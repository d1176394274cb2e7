"""Unit tests for the RPC protocol: retries, timeouts, semantics, fast path."""

import pytest

from repro.apps.counter import Counter
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.failures.injectors import message_loss
from repro.kernel.errors import DanglingReference, InterfaceError, RpcTimeout
from repro.rpc.protocol import RemoteError
from repro.iface.interface import operation
from repro.core.service import Service


class Grumpy(Service):
    """A service whose operations raise various exceptions."""

    @operation
    def key_error(self):
        raise KeyError("missing thing")

    @operation
    def value_error(self):
        raise ValueError("bad value")

    @operation
    def custom_error(self):
        class Oddball(Exception):
            pass
        raise Oddball("weird")

    @operation(readonly=True)
    def fine(self):
        return "ok"


@pytest.fixture
def rpc_pair(pair):
    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    return system, server, client, store, ref


def call(system, client, ref, verb, *args):
    return system.rpc.call(client, ref, verb, args)


class TestBasicCalls:
    def test_remote_call_returns_value(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        assert call(system, client, ref, "put", "k", 42) is True
        assert call(system, client, ref, "get", "k") == 42

    def test_call_advances_client_clock(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        before = client.now
        call(system, client, ref, "get", "k")
        # At least two one-way remote latencies.
        assert client.now - before >= 2 * system.costs.remote_latency

    def test_server_clock_advances_too(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        call(system, client, ref, "get", "k")
        assert server.now > 0

    def test_calls_are_traced(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        mark = system.trace.mark()
        call(system, client, ref, "get", "k")
        events = system.trace.since(mark)
        kinds = [ev.kind for ev in events]
        assert kinds.count("send") == 2  # request + reply
        assert "invoke" in kinds

    def test_unknown_target_raises_dangling(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        from dataclasses import replace
        bogus = replace(ref, oid="nonexistent")
        with pytest.raises(DanglingReference):
            call(system, client, bogus, "get", "k")

    def test_undeclared_verb_rejected_server_side(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        with pytest.raises(InterfaceError):
            call(system, client, ref, "no_such_op")


class TestExceptionMapping:
    @pytest.fixture
    def grumpy(self, pair):
        system, server, client = pair
        ref = get_space(server).export(Grumpy())
        return system, client, ref

    def test_key_error_reraised(self, grumpy):
        system, client, ref = grumpy
        with pytest.raises(KeyError):
            call(system, client, ref, "key_error")

    def test_value_error_reraised(self, grumpy):
        system, client, ref = grumpy
        with pytest.raises(ValueError):
            call(system, client, ref, "value_error")

    def test_unknown_exception_becomes_remote_error(self, grumpy):
        system, client, ref = grumpy
        with pytest.raises(RemoteError) as excinfo:
            call(system, client, ref, "custom_error")
        assert excinfo.value.remote_type == "Oddball"

    def test_server_survives_exceptions(self, grumpy):
        system, client, ref = grumpy
        for _ in range(3):
            with pytest.raises(KeyError):
                call(system, client, ref, "key_error")
        assert call(system, client, ref, "fine") == "ok"


class TestRetriesAndTimeouts:
    def test_loss_is_masked_by_retries(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        with message_loss(system, 0.3):
            for index in range(30):
                assert call(system, client, ref, "put", f"k{index}", index)
        assert system.rpc.stats["retries"] > 0
        assert system.rpc.stats["timeouts"] == 0

    def test_crashed_server_times_out(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        server.node.crash()
        before = client.now
        with pytest.raises(RpcTimeout):
            call(system, client, ref, "get", "k")
        budget = (1 + system.costs.rpc_max_retries)
        assert client.now - before >= budget * system.costs.rpc_timeout * 0.9

    def test_recovery_after_restart(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        server.node.crash()
        with pytest.raises(RpcTimeout):
            call(system, client, ref, "put", "k", 1)
        server.node.restart()
        assert call(system, client, ref, "put", "k", 2) is True
        assert call(system, client, ref, "get", "k") == 2

    def test_at_most_once_under_loss(self, pair):
        system, server, client = pair
        counter = Counter()
        ref = get_space(server).export(counter)
        attempts = 40
        with message_loss(system, 0.25):
            done = 0
            for _ in range(attempts):
                try:
                    call(system, client, ref, "incr")
                    done += 1
                except RpcTimeout:
                    pass
        # Each logical increment executed at most once.
        assert counter.value <= attempts
        assert counter.value >= done

    def test_large_payload_still_completes(self, rpc_pair):
        system, server, client, store, ref = rpc_pair
        big = "x" * 200_000  # transit ≫ base timeout
        assert call(system, client, ref, "put", "big", big) is True
        assert call(system, client, ref, "get", "big") == big


class TestLocalFastPath:
    def test_same_context_call_is_cheap(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        before = server.now
        assert system.rpc.call(server, ref, "put", ("k", 1)) is True
        elapsed = server.now - before
        assert elapsed < system.costs.ipc_latency
        assert system.rpc.stats["local_fast_path"] == 1

    def test_fast_path_sends_no_messages(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        mark = system.trace.mark()
        system.rpc.call(server, ref, "get", ("k",))
        assert all(ev.kind != "send" for ev in system.trace.since(mark))

    def test_same_context_enveloped_call_takes_the_dispatcher_step(
            self, pair):
        # Headers apply to both arms of call(): a same-context target
        # answers with the protocol step's reply wrapper, exactly as a
        # remote one does — not with the bare value.
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        system.rpc.call(server, ref, "put", ("k", 1),
                        headers={"q.w": ["k"]})
        mark = system.trace.mark()
        local = system.rpc.call(server, ref, "get", ("k",),
                                headers={"q.r": ["k"]})
        assert local == {"q.v": 1, "q.val": 1}
        assert [ev.kind for ev in system.trace.since(mark)] == ["invoke"]
        assert system.rpc.stats["local_fast_path"] == 2
        remote = system.rpc.call(client, ref, "get", ("k",),
                                 headers={"q.r": ["k"]})
        assert remote == local

    def test_disabled_fast_path_marshals(self, pair):
        from repro.rpc.lightweight import lrpc_disabled
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        mark = system.trace.mark()
        with lrpc_disabled(system.rpc):
            system.rpc.call(server, ref, "get", ("k",))
        sends = [ev for ev in system.trace.since(mark) if ev.kind == "send"]
        assert len(sends) == 2


class TestOneway:
    def test_oneway_returns_immediately(self, pair):
        system, server, client = pair
        mailbox_log = []

        class Sink(Service):
            @operation(oneway=True)
            def fire(self, value):
                mailbox_log.append(value)

        ref = get_space(server).export(Sink())
        system.rpc.send_oneway(client, ref, "fire", ("hello",))
        assert mailbox_log == ["hello"]

    def test_oneway_loss_is_silent(self, pair):
        system, server, client = pair

        class Sink(Service):
            @operation(oneway=True)
            def fire(self, value):
                pass

        ref = get_space(server).export(Sink())
        system.network.set_default_loss(1.0)
        system.rpc.send_oneway(client, ref, "fire", ("gone",))  # no raise

    def test_a_hook_oneway_leaves_before_its_write_is_traced(self, pair):
        # The invalidation a put fans out is sent (and served) inside the
        # operation: after the request, before the server's invoke event.
        system, server, client = pair
        ref = get_space(server).export(KVStore(), policy="caching")
        proxy = get_space(client).bind_ref(ref, handshake=True)
        mark = system.trace.mark()
        proxy.put("k", 1)
        assert [(ev.kind, ev.label) for ev in system.trace.since(mark)] == [
            ("send", "req:put"), ("send", "one:invalidate"),
            ("invoke", "put"), ("send", "rep")]

    def test_oneway_to_a_crashed_node_is_sent_dropped_and_not_run(self, pair):
        system, server, client = pair
        fired = []

        class Sink(Service):
            @operation(oneway=True)
            def fire(self, value):
                fired.append(value)

        ref = get_space(server).export(Sink())
        server.node.crash()
        mark = system.trace.mark()
        system.rpc.send_oneway(client, ref, "fire", ("gone",))
        assert [(ev.kind, ev.label) for ev in system.trace.since(mark)] == [
            ("send", "one:fire"), ("drop", "crash")]
        assert fired == []


class TestRequestFrame:
    """The request ``call`` sends (covers what nothing pinned; passes at
    the parent of the PR that built the frame positionally)."""

    def test_headers_are_copied_and_the_frame_is_the_keyword_built_one(
            self, rpc_pair, monkeypatch):
        from repro.resilience.deadline import DEADLINE_HEADER, Deadline
        from repro.rpc import dispatcher
        from repro.wire.frames import REPLY, REQUEST, Frame
        from repro.wire.marshal import Marshaller
        system, server, client, store, ref = rpc_pair
        sent, decoded = [], []
        encode = Marshaller.encode_frame_message
        read = dispatcher.fields_of

        def spy_encode(self, *fields):
            # Every frame crosses the marshaller; a successful reply is
            # encoded from its fields, with no frame built around them.
            sent.append(fields)
            return encode(self, *fields)

        def spy_read(data, marshaller):
            # The server reads the request's fields; no frame is built.
            fields = read(data, marshaller)
            decoded.append(Frame(*fields))
            return fields

        monkeypatch.setattr(Marshaller, "encode_frame_message", spy_encode)
        monkeypatch.setattr(dispatcher, "fields_of", spy_read)
        mine = {"x.tag": ["a", 1]}
        deadline = Deadline.after(client.now, 5.0)
        assert system.rpc.call(client, ref, "put", ["k", 7], {},
                               deadline=deadline, headers=mine) is True
        assert mine == {"x.tag": ["a", 1]}, "the caller's dict is its own"
        request_fields, reply_fields = sent
        request = Frame(*request_fields)
        expected = Frame(REQUEST, request.msg_id, client.context_id,
                         server.context_id, target=ref.oid, verb="put",
                         body=(("k", 7), {}))
        expected.headers.update(mine)
        deadline.to_headers(expected.headers)
        assert request == expected
        assert request.headers is not mine
        assert request.headers[DEADLINE_HEADER] == deadline.expires_at
        served = decoded[0]
        for name in ("kind", "msg_id", "src", "dst", "target", "verb",
                     "headers"):
            assert getattr(served, name) == getattr(expected, name), name
        assert [list(served.body[0]), served.body[1]] == [["k", 7], {}]
        assert reply_fields == (REPLY, request.msg_id, server.context_id,
                                client.context_id, "", "", True, {})


class TestMessageIds:
    """Each sending context numbers its messages 1, 2, 3, ... on its own."""

    @staticmethod
    def _sent_ids(monkeypatch):
        from repro.wire.marshal import Marshaller
        sent = []
        encode = Marshaller.encode_frame_message

        def spy(self, kind, msg_id, src, *rest):
            if kind in ("req", "one"):
                sent.append((src, msg_id))
            return encode(self, kind, msg_id, src, *rest)

        monkeypatch.setattr(Marshaller, "encode_frame_message", spy)
        return sent

    def test_ids_are_unique_and_increasing(self, rpc_pair, monkeypatch):
        system, server, client, store, ref = rpc_pair
        sent = self._sent_ids(monkeypatch)
        for index in range(5):
            call(system, client, ref, "put", f"k{index}", index)
        system.rpc.send_oneway(client, ref, "put", ("k", 1))
        assert [msg_id for _, msg_id in sent] == [1, 2, 3, 4, 5, 6]

    def test_each_context_counts_on_its_own(self, star, monkeypatch):
        system, server, clients = star
        ref = get_space(server).export(KVStore())
        sent = self._sent_ids(monkeypatch)
        for ctx in clients + clients:
            system.rpc.call(ctx, ref, "get", ("k",))
        assert sent == [(ctx.context_id, msg_id) for msg_id in (1, 2)
                        for ctx in clients]
