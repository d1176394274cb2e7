"""Shared fixtures: wired systems and common topologies."""

from __future__ import annotations

import pytest

import repro
from repro.naming.bootstrap import install_name_service


@pytest.fixture
def system():
    """A wired system with no nodes yet."""
    return repro.make_system(seed=1234)


@pytest.fixture
def star():
    """(system, server_ctx, [client_ctxs]) with a name service on the server."""
    sys_ = repro.make_system(seed=99)
    server = sys_.add_node("server").create_context("main")
    clients = [sys_.add_node(f"client{i}").create_context("main")
               for i in range(3)]
    install_name_service(server)
    return sys_, server, clients


@pytest.fixture
def pair(star):
    """(system, server_ctx, one_client_ctx)."""
    sys_, server, clients = star
    return sys_, server, clients[0]


class MutationLog:
    """A mutation hook (see ``ExportEntry.mutation_hooks``) that remembers
    what it was told."""

    def __init__(self):
        self.fired = []

    def after(self, verb, args, kwargs):
        self.fired.append((verb, tuple(args), kwargs))


@pytest.fixture
def mutation_log():
    """A fresh recording mutation hook to append to an export entry."""
    return MutationLog()


@pytest.fixture
def hooked():
    """``hooked(entry) -> MutationLog``: a fresh recording hook appended to
    one export entry (for tests that tell several entries apart)."""
    def hook(entry):
        log = MutationLog()
        entry.mutation_hooks.append(log)
        return log
    return hook


@pytest.fixture
def caller_reads(pair, monkeypatch):
    """``caller_reads(msg) -> (value, framed)``: what ``RpcProtocol.call``
    hands its caller when ``msg`` (a :class:`~repro.wire.WireMessage`) is
    the reply its request gets, and whether the caller read it as a frame
    (through ``Transport.decode_frame``) rather than as its value.  What
    the call raises is returned as the value."""
    from repro.apps.kv import KVStore
    from repro.core.export import get_space
    system, server, client = pair
    ref = get_space(server).export(KVStore())
    framed = []
    decode = system.transport.decode_frame

    def watched(data, dst_context):
        framed.append(data)
        return decode(data, dst_context)

    monkeypatch.setattr(system.transport, "decode_frame", watched)

    def read(msg):
        del framed[:]
        monkeypatch.setattr(server, "handler",
                            lambda data, arrive: (msg, arrive))
        try:
            value = system.rpc.call(client, ref, "get", ("k",))
        except Exception as exc:
            value = exc
        return value, bool(framed)

    return read


@pytest.fixture
def server_reads(pair):
    """``server_reads(msg) -> (target, verb, body, headers)``: what
    ``Dispatcher.handle`` hands the service when ``msg`` (a request or
    one-way :class:`~repro.wire.WireMessage`) arrives.  Every delivery is
    read afresh (the replay cache is off), and no service runs."""
    system, server, client = pair
    dispatcher = server.handler.__self__
    dispatcher.at_most_once = False
    served = []
    dispatcher.serve = lambda target, verb, args, kwargs, headers: \
        served.append((target, verb, (args, kwargs), headers))

    def read(msg):
        del served[:]
        server.clock.now = server.line.busy_until = 0.0
        dispatcher.handle(msg, 0.0)
        (fields,) = served
        return fields

    return read
