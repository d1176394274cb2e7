"""The round trip reads a message where it lands.

The server reads a request's or a one-way's fields, with no frame built
around them; a served one-way builds no reply; a successful reply is
encoded from its fields.  A *pure* reply reaches the caller as its value,
and an *envelope* reply (a quorum or shard reply wrapper) as a fresh copy
of its dict — neither through a frame.  Everything else the caller
receives — a plain reply (copied per delivery), an exception, an
admission shed — is still delivered as a frame.
"""

from __future__ import annotations

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.service import Service
from repro.iface.interface import operation
from repro.kernel.admission import install_admission
from repro.kernel.errors import InterfaceError, Overloaded
from repro.kernel.network import Delivery
from repro.resilience.retry import RetryPolicy
from repro.rpc import dispatcher
from repro.simtest.runner import SimCase
from repro.simtest.workload import deploy
from repro.wire import frames
from repro.wire.frames import (EXCEPTION, K_OVERLOAD, ONEWAY, REPLY,
                               REQUEST, Frame, reply_value)
from repro.wire.marshal import Marshaller


@pytest.fixture
def received(monkeypatch):
    """Every message a receiver reads as its fields — a server's request,
    a caller's framed reply — each shown as the frame of those fields."""
    seen = []
    read = frames.fields_of

    def watched(msg, marshaller):
        fields = read(msg, marshaller)
        seen.append(Frame(*fields))
        return fields

    monkeypatch.setattr(frames, "fields_of", watched)
    monkeypatch.setattr(dispatcher, "fields_of", watched)
    return seen


def _framed_at(received, context):
    return [frame for frame in received if frame.dst == context.context_id]


class Journal(Service):
    def __init__(self):
        self.lines = ["first"]

    @operation
    def tail(self) -> list:
        return self.lines       # the live list: plain data, not pure


def test_a_served_oneway_builds_no_reply(pair, monkeypatch):
    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    built, encoded = [], []
    init, encode = Frame.__init__, Marshaller.encode_frame_message
    read = dispatcher.fields_of

    def spy_init(self, kind, *rest, **fields):
        built.append(kind)
        init(self, kind, *rest, **fields)

    def spy_read(msg, marshaller):
        fields = read(msg, marshaller)
        built.append(fields[0])
        return fields

    def spy_encode(self, kind, *rest):
        encoded.append(kind)
        return encode(self, kind, *rest)

    monkeypatch.setattr(Frame, "__init__", spy_init)
    monkeypatch.setattr(dispatcher, "fields_of", spy_read)
    monkeypatch.setattr(Marshaller, "encode_frame_message", spy_encode)
    system.rpc.send_oneway(client, ref, "put", ("k", 1))     # succeeds
    system.rpc.send_oneway(client, ref, "undeclared")        # fails
    assert store.data == {"k": 1}
    assert server.handler.__self__.stats["oneways"] == 2
    # Each one-way is encoded once from its fields, with no frame built
    # on either side, and read by its receiver; neither outcome becomes a
    # reply.
    assert built == [ONEWAY] * 2
    assert encoded == [ONEWAY] * 2


def test_a_pure_reply_reaches_the_caller_without_a_frame(pair, received):
    system, server, client = pair
    ref = get_space(server).export(KVStore())
    system.rpc.call(client, ref, "put", ("k", ("v", 1)))
    assert system.rpc.call(client, ref, "get", ("k",)) == ("v", 1)
    assert _framed_at(received, client) == []
    assert len(_framed_at(received, server)) == 2


def test_a_plain_reply_and_its_duplicate_each_reach_the_caller_as_a_copy(
        pair, received, monkeypatch):
    system, server, client = pair
    journal = Journal()
    ref = get_space(server).export(journal)
    replies = []
    serve, transmit = server.handler, system.network.transmit

    def handled(data, arrive):
        outcome = serve(data, arrive)
        replies.append(outcome[0])
        return outcome

    def lossy(src, dst, nbytes, at):
        if src == server.node.name and len(replies) == 1:
            return Delivery(False, 0.0, "loss")    # the first reply leg
        return transmit(src, dst, nbytes, at)

    monkeypatch.setattr(system.network, "transmit", lossy)
    monkeypatch.setattr(server, "handler", handled)
    # The retransmission is answered from the replay cache: the message
    # as it was sent.
    duplicate = system.rpc.call(client, ref, "tail")
    assert serve.__self__.stats["duplicates"] == 1
    assert replies[1] is replies[0]
    assert duplicate == ["first"] and duplicate is not journal.lines
    duplicate.append("the caller's")
    journal.lines.append("the service's")
    first = system.rpc.call(client, ref, "tail")
    assert first == ["first", "the service's"]
    assert first is not journal.lines and first is not duplicate
    # Both reached the caller through a frame, and the replayed message
    # still holds what was sent.
    assert [frame.kind for frame in _framed_at(received, client)] == \
        [REPLY, REPLY]
    assert system.transport.decode_frame(replies[0], client).body == \
        ["first"]


def test_an_exception_reply_is_framed(pair, received):
    system, server, client = pair
    ref = get_space(server).export(KVStore())
    with pytest.raises(InterfaceError):
        system.rpc.call(client, ref, "undeclared")
    (reply,) = _framed_at(received, client)
    assert reply.kind == EXCEPTION and reply.body[0] == "InterfaceError"


def test_a_shed_reply_is_framed_with_its_hint(star, received):
    system, server, clients = star
    alice, bob = clients[:2]
    ref = get_space(server).export(KVStore())
    install_admission(server.node, rate=1.0, burst=1.0)
    system.rpc.retry_policy = RetryPolicy(attempts=1)
    system.rpc.call(alice, ref, "put", ("x", 1))     # spends the token
    with pytest.raises(Overloaded) as err:
        system.rpc.call(bob, ref, "put", ("x", 2))
    (reply,) = _framed_at(received, bob)
    assert reply.kind == EXCEPTION and reply.body[0] == "Overloaded"
    assert err.value.retry_after is not None
    assert reply.headers[K_OVERLOAD] == err.value.retry_after


def test_an_enveloped_reply_reaches_the_caller_without_a_frame(
        received, monkeypatch):
    deployment = deploy(SimCase(seed=5, policy="replicated", service="kv",
                                ops=8, clients=1, faults=()))
    (_, ctx, proxy), = deployment.clients
    proxy.put("k0", 7)
    replies = []
    encode = Marshaller.encode_frame_message

    def sent_back(self, kind, msg_id, src, dst, *rest):
        data = encode(self, kind, msg_id, src, dst, *rest)
        if dst == ctx.context_id:
            replies.append(data)
        return data

    monkeypatch.setattr(Marshaller, "encode_frame_message", sent_back)
    del received[:]
    assert proxy.get("k0") == 7
    assert replies, "a quorum read's replies are reply wrappers"
    assert all(reply_value(data).__class__ is dict for data in replies)
    assert _framed_at(received, ctx) == []
    # The replicas read each quorum request's fields, envelope included.
    assert received and all(frame.kind == REQUEST and frame.headers
                            for frame in received)
