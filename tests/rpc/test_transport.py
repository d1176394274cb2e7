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
        data = system.transport.encode_frame(frame)
        server.node.crash()
        delivery = system.transport.transmit(frame, data, client.now)
        assert not delivery.delivered
        assert delivery.reason == "crash"


class TestMarshallerPerContext:
    """The marshaller a context encodes and decodes with is checked
    against its *current* hook on every frame (covers what nothing did:
    the miss path after a first frame)."""

    def test_a_hook_installed_after_a_first_frame_applies_to_the_second(
            self, pair):
        system, server, client = pair
        transport = system.transport
        bare = system.add_node("late").create_context("main")
        store = KVStore()
        ref = get_space(server).export(store)
        frame = Frame(REQUEST, 1, server.context_id, bare.context_id,
                      target="t", verb="v", body=((store,), {}))
        first = transport.decode_frame(
            transport.encode_frame(frame), bare)
        (argument,), _ = first.body
        assert argument == ref and not is_proxy(argument)
        hookless = transport.decoder_for(bare)
        get_space(bare)    # installs bare's hooks, after its first frame
        second = transport.decode_frame(
            transport.encode_frame(frame), bare)
        (argument,), _ = second.body
        assert is_proxy(argument) and argument.proxy_ref == ref
        assert transport.decoder_for(bare) is not hookless
        assert transport.decoder_for(bare).decoder_hook is bare.decoder_hook

    def test_the_encoder_follows_the_hook_too(self, pair):
        system, server, client = pair
        transport = system.transport
        bare = system.add_node("late").create_context("main")
        frame = Frame(REQUEST, 1, bare.context_id, server.context_id,
                      target="t", verb="v", body=((1,), {}))
        transport.encode_frame(frame, bare)
        hookless = transport.encoder_for(bare)
        assert hookless.encoder_hook is None
        get_space(bare)
        transport.encode_frame(frame, bare)
        assert transport.encoder_for(bare) is not hookless
        assert transport.encoder_for(bare).encoder_hook is bare.encoder_hook
        # A hit builds nothing: the same marshaller serves the next frame.
        kept = transport.encoder_for(bare)
        transport.encode_frame(frame, bare)
        assert transport.encoder_for(bare) is kept
