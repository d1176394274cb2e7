"""Unit tests for the server-side dispatcher: dedup, redirects, accounting."""

import pytest

import repro
from repro.apps.counter import Counter
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.service import Service
from repro.iface.interface import operation
from repro.kernel.errors import MarshalError, ObjectMoved, ProtocolError
from repro.wire.frames import REQUEST, Frame
from repro.wire.marshal import memo_stats


@pytest.fixture
def served(pair):
    system, server, client = pair
    counter = Counter()
    ref = get_space(server).export(counter)
    dispatcher = server.handler.__self__
    return system, server, client, counter, ref, dispatcher


def send_raw(system, client, ref, verb, args=(), msg_id=1):
    """Hand-deliver a raw request frame to the target dispatcher."""
    frame = Frame(REQUEST, msg_id, client.context_id, ref.context_id,
                  target=ref.oid, verb=verb, body=(args, {}))
    data = frame.encode_message(system.transport.encoder_for(client))
    dst = system.context(ref.context_id)
    return dst.handler(data, client.now)


class TestAtMostOnce:
    def test_duplicate_request_not_reexecuted(self, served):
        system, server, client, counter, ref, dispatcher = served
        send_raw(system, client, ref, "incr", msg_id=42)
        send_raw(system, client, ref, "incr", msg_id=42)
        assert counter.value == 1
        assert dispatcher.stats["duplicates"] == 1

    def test_duplicate_returns_identical_reply(self, served):
        system, server, client, counter, ref, dispatcher = served
        first, _ = send_raw(system, client, ref, "incr", msg_id=9)
        second, _ = send_raw(system, client, ref, "incr", msg_id=9)
        # Identical means: the same bytes, and the same size charged.
        assert first.to_bytes() == second.to_bytes()
        assert first.nbytes == second.nbytes

    def test_replay_cache_means_what_was_sent(self, pair):
        # A duplicate answers what was sent, not what the service's object
        # or the caller's copy of the first reply later became; it is a
        # copy of the remembered snapshot, not a decode.
        system, server, client = pair

        class Journal(Service):
            def __init__(self):
                self.lines = ["first"]

            @operation
            def tail(self, blob=b"") -> list:
                return [self.lines, blob]   # the live list: plain data

        journal = Journal()
        ref = get_space(server).export(journal)
        dispatcher = server.handler.__self__
        decoder = system.transport.decoder_for(client)
        decoded = memo_stats()["frames_decoded"]
        bulk = b"\x07" * 8192              # a bulk leaf in the snapshot
        for msg_id, blob in ((3, b""), (4, bulk)):
            want = [list(journal.lines), blob]
            first, _ = send_raw(system, client, ref, "tail", (blob,), msg_id)
            image = first.to_bytes()
            journal.lines.append("later")   # mutated in place afterwards
            taken = Frame.decode_message(first, decoder)
            taken.body[0].append("the caller's")
            second, _ = send_raw(system, client, ref, "tail", (blob,), msg_id)
            assert dispatcher.stats["duplicates"] == msg_id - 2
            assert second.nbytes == first.nbytes == len(image)
            assert second.to_bytes() == image
            assert Frame.decode_message(second, decoder).body == want
            assert Frame.decode_message(first, decoder).body == want
        assert memo_stats()["frames_decoded"] == decoded

    def test_a_written_reply_is_replayed_as_sent(self, pair):
        # A reply the carry cannot take is written: a bulk bytearray, or
        # bulk bytes beside a set.  The service overwrites its buffer
        # after each reply; a duplicate still answers what was sent.
        system, server, client = pair

        class Buffer(Service):
            def __init__(self):
                self.buf = bytearray(b"\x11" * 4096)

            @operation
            def raw(self) -> bytearray:
                return self.buf

            @operation
            def beside_a_set(self) -> tuple:
                return (bytes(self.buf), {1})

        service = Buffer()
        ref = get_space(server).export(service)
        dispatcher = server.handler.__self__
        decoder = system.transport.decoder_for(client)
        for msg_id, verb in ((1, "raw"), (2, "beside_a_set")):
            sent = bytes(service.buf)
            want = sent if verb == "raw" else (sent, {1})
            first, _ = send_raw(system, client, ref, verb, msg_id=msg_id)
            assert first.carried is None        # written, not sized
            image = first.to_bytes()
            service.buf[:] = bytes([msg_id + 0x20]) * len(service.buf)
            second, _ = send_raw(system, client, ref, verb, msg_id=msg_id)
            assert dispatcher.stats["duplicates"] == msg_id
            assert second.nbytes == first.nbytes == len(image)
            assert second.to_bytes() == image
            assert Frame.decode_message(second, decoder).body == want

    def test_distinct_ids_execute_separately(self, served):
        system, server, client, counter, ref, dispatcher = served
        send_raw(system, client, ref, "incr", msg_id=1)
        send_raw(system, client, ref, "incr", msg_id=2)
        assert counter.value == 2

    def test_same_id_different_callers_do_not_collide(self, star):
        system, server, clients = star
        counter = Counter()
        ref = get_space(server).export(counter)
        send_raw(system, clients[0], ref, "incr", msg_id=5)
        send_raw(system, clients[1], ref, "incr", msg_id=5)
        assert counter.value == 2

    def test_at_most_once_off_reexecutes(self, served):
        system, server, client, counter, ref, dispatcher = served
        dispatcher.at_most_once = False
        send_raw(system, client, ref, "incr", msg_id=7)
        send_raw(system, client, ref, "incr", msg_id=7)
        assert counter.value == 2

    def test_replay_cache_capacity_evicts(self, served):
        system, server, client, counter, ref, dispatcher = served
        dispatcher.replay_capacity = 3
        for msg_id in range(1, 6):
            send_raw(system, client, ref, "incr", msg_id=msg_id)
        assert len(dispatcher._replay) == 3


def _serve_image(kind, headers):
    """One fresh system serving one ``incr`` request, handed over as its
    message (``kind`` None) or as a ``kind`` copy of its wire image."""
    system = repro.make_system(seed=99)
    server = system.add_node("server").create_context("main")
    client = system.add_node("client0").create_context("main")
    counter = Counter()
    ref = get_space(server).export(counter)
    frame = Frame(REQUEST, 5, client.context_id, ref.context_id, ref.oid,
                  "incr", ((), {}), headers)
    data = frame.encode_message(system.transport.encoder_for(client))
    if kind is not None:
        data = kind(data.to_bytes())
    reply, ready = server.handler(data, client.now)
    return reply.to_bytes(), counter.value, ready, server.now


class TestWireImages:
    """``Context.handler`` takes a wire image as well as a message.  At the
    parent of the change that wrapped it, ``bytes`` and ``bytearray`` raised
    ``AttributeError`` ('nbytes'), a ``memoryview`` ``AttributeError``
    ('carried')."""

    @pytest.mark.parametrize("headers", [{}, {"d": [1]}],
                             ids=["pure", "sized"])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_an_image_is_served_exactly_as_its_message_is(self, kind,
                                                          headers):
        # The same reply image, one execution, the same clock.
        assert _serve_image(kind, headers) == _serve_image(None, headers)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_a_truncated_image_executes_nothing_and_is_not_remembered(
            self, served, kind):
        system, server, client, counter, ref, dispatcher = served
        frame = Frame(REQUEST, 5, client.context_id, ref.context_id, ref.oid,
                      "incr", ((), {}), {})
        image = frame.encode_message(
            system.transport.encoder_for(client)).to_bytes()
        with pytest.raises(MarshalError):
            server.handler(kind(image[:-1]), client.now)
        assert counter.value == 0
        assert not dispatcher._replay

    @pytest.mark.parametrize("data", [None, "req", 5, [b"req"]])
    def test_anything_else_is_refused_typed(self, served, data):
        system, server, client, counter, ref, dispatcher = served
        with pytest.raises(ProtocolError):
            server.handler(data, client.now)


class TestRedirects:
    def test_moved_object_answers_redirect(self, served):
        system, server, client, counter, ref, dispatcher = served
        space = get_space(server)
        forward = ref.moved_to("elsewhere/main")
        space.mark_migrated(ref.oid, forward)
        with pytest.raises(ObjectMoved) as excinfo:
            system.rpc.call(client, ref, "incr", ())
        assert excinfo.value.forward == forward
        assert dispatcher.stats["redirects"] == 1


class TestQueueing:
    def test_requests_serialise_on_server_clock(self, served):
        system, server, client, counter, ref, dispatcher = served
        # Two back-to-back arrivals: the second starts after the first ends.
        send_raw(system, client, ref, "incr", msg_id=1)
        first_done = server.now
        send_raw(system, client, ref, "incr", msg_id=2)
        assert server.now > first_done


class TestStats:
    def test_requests_counted(self, served):
        system, server, client, counter, ref, dispatcher = served
        send_raw(system, client, ref, "incr", msg_id=1)
        send_raw(system, client, ref, "read", msg_id=2)
        assert dispatcher.stats["requests"] == 2

    def test_exceptions_counted(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        dispatcher = server.handler.__self__
        with pytest.raises(Exception):
            system.rpc.call(client, ref, "no_such_verb", ())
        assert dispatcher.stats["requests"] == 1
