"""Unit tests for the server-side dispatcher: dedup, redirects, accounting."""

import pytest

from repro.apps.counter import Counter
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.service import Service
from repro.iface.interface import operation
from repro.kernel.errors import ObjectMoved
from repro.wire.frames import REQUEST, Frame


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
        # The first reply may carry its fields; the remembered one is the
        # wire image alone.  Identical means: the same bytes.
        assert second.carried is None
        assert first.to_bytes() == second.to_bytes()

    def test_replay_cache_keeps_the_wire_image_and_means_what_was_sent(
            self, pair):
        # Covers what nothing covered (a duplicate answers what was sent,
        # not what the service's object later became); the `_replay`
        # assertion is new with the carried snapshot and fails on a cut
        # that remembers the reply message as it was sent.
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
        bulk = b"\x07" * 8192              # the reply rides a segment
        for msg_id, blob in ((3, b""), (4, bulk)):
            want = [list(journal.lines), blob]
            first, _ = send_raw(system, client, ref, "tail", (blob,), msg_id)
            assert first.carried is not None
            journal.lines.append("later")   # mutated in place afterwards
            second, _ = send_raw(system, client, ref, "tail", (blob,), msg_id)
            assert dispatcher.stats["duplicates"] == msg_id - 2
            # Before anyone took the snapshot: the cache never had it, and
            # the duplicate carries nothing.
            kept = dispatcher._replay[client.context_id, msg_id]
            assert kept is second.head if kept.__class__ is bytes \
                else kept == (second.head, second.segments, second.nbytes)
            assert second.carried is None and second.nbytes == first.nbytes
            assert first.to_bytes() == second.to_bytes()
            assert Frame.decode_message(second, decoder).body == want
            assert Frame.decode_message(first, decoder).body == want
        # One reply inline (its head), one riding a frozen segment.
        inline, segmented = dispatcher._replay.values()
        assert inline.__class__ is bytes
        assert [payload.__class__ for _, payload in segmented[1]] == [bytes]

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

    def test_forget_caller(self, served):
        system, server, client, counter, ref, dispatcher = served
        send_raw(system, client, ref, "incr", msg_id=1)
        send_raw(system, client, ref, "incr", msg_id=2)
        evicted = dispatcher.forget_caller(client.context_id)
        assert evicted == 2


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
