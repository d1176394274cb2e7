"""Tests for the transport layer: hook application, costs, tracing."""


from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.proxy import is_proxy
from repro.wire.frames import REQUEST, Frame


class TestEncodeDecode:
    def test_encode_charges_sender(self, pair):
        system, server, client = pair
        get_space(client)
        frame = Frame(REQUEST, 1, client.context_id, server.context_id,
                      target="t", verb="v", body=(("x" * 1000,), {}))
        before = client.now
        system.transport.encode_frame(frame)
        assert client.now > before

    def test_sender_hook_swizzles_exports(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        frame = Frame(REQUEST, 1, server.context_id, client.context_id,
                      target="t", verb="v", body=((store,), {}))
        data = system.transport.encode_frame(frame)
        get_space(client)
        decoded = system.transport.decode_frame(data, client)
        (argument,), _ = decoded.body
        assert is_proxy(argument)
        assert argument.proxy_ref == ref

    def test_transmit_traces_sends(self, pair):
        system, server, client = pair
        get_space(client)
        frame = Frame(REQUEST, 1, client.context_id, server.context_id,
                      target="t", verb="ping", body=((), {}))
        data = system.transport.encode_frame(frame)
        mark = system.trace.mark()
        system.transport.transmit(frame, data, client.now)
        events = system.trace.since(mark)
        assert len(events) == 1
        assert events[0].kind == "send"
        assert events[0].label == "req:ping"
        assert events[0].size == len(data)

    def test_transmit_reports_crash(self, pair):
        system, server, client = pair
        get_space(client)
        frame = Frame(REQUEST, 1, client.context_id, server.context_id,
                      target="t", verb="v", body=((), {}))
        data = frame.encode(system.transport.encoder_for(client))
        server.node.crash()
        delivery = system.transport.transmit(frame, data, client.now)
        assert not delivery.delivered
        assert delivery.reason == "crash"
