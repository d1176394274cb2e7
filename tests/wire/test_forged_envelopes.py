"""Forged ``q.*``/``s.*`` envelopes are refused typed, and change nothing.

A request envelope is input from a peer.  Each value below is one an
honest caller never sends; each used to reach the caller as whatever bare
Python error the protocol step tripped over (``TypeError``,
``IndexError``, ``ValueError``, or a ``KeyError`` indistinguishable from
the application's own miss).  The envelope parse refuses them with
``ProtocolError`` before any step runs, so the store, the version log, the
shard state and the replay cache are as they were — and the refusal, which
executed nothing, is not remembered.  Fails at the parent of the change
that added the parse: every case raised untyped.
"""

from __future__ import annotations

import copy

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.iface.interface import operation
from repro.kernel.errors import ProtocolError
from repro.wire import shards, versions

FORGED = [
    # (headers, verb, args)
    ({"q.r": 5}, "get", ("k",)),
    ({"q.r": []}, "get", ("k",)),
    ({"q.r": {}}, "get", ("k",)),
    ({"q.a": ["k"]}, "put", ("k", 2)),
    ({"q.a": ["k", "x"]}, "put", ("k", 2)),
    ({"q.w": 7}, "put", ("k", 2)),
    ({"q.c": []}, "", ()),
    ({"q.c": ["pull"]}, "", ()),
    ({"q.c": ["push", "k"]}, "", ([[1]],)),
    ({"q.c": ["push", "k"]}, "", (5,)),
    ({"s.c": []}, "", ()),
    ({"s.c": 3}, "", ()),
    ({"s.c": ["commit"]}, "", ([2, []],)),
    ({"s.c": ["install"]}, "", ({},)),
    # A string indexes character by character: each of these used to be
    # served — a put logged under key "z", a read answered with "z"'s
    # version, a term of 1 led by 2, an epoch of 9.
    ({"q.w": "zz"}, "put", ("k", 2)),
    ({"q.r": "zz"}, "get", ("k",)),
    ({"q.a": ("k", 2), "q.t": "12"}, "put", ("k", 2)),
    ({"s.e": "9"}, "get", ("k",)),
]


@pytest.fixture
def served(pair):
    """A KV store holding one logged key, exported as shard 0 of 1."""
    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    system.rpc.call(client, ref, "put", ("k", 1),
                    headers={versions.H_ASSIGN: ("k",)})
    entry = get_space(server).entry(ref.oid)
    entry.sharding = shards.ShardState(
        0, 1, shards.default_ring(1), [list(ref.fields())])
    return system, server, client, store, ref, entry


def _state(store, entry, dispatcher):
    # A remembered reply is a message; what it means is its image.
    return copy.deepcopy((
        store.data, entry.replica_log.digest(),
        entry.replica_log.suffix("k", 0), entry.sharding.map(),
        [(key, reply.to_bytes())
         for key, reply in dispatcher._replay.items()]))


@pytest.mark.parametrize("caller", ["remote", "local"])
@pytest.mark.parametrize("headers,verb,args", FORGED,
                         ids=[repr(h) + repr(a) for h, _, a in FORGED])
def test_a_forged_envelope_is_refused_typed_and_changes_nothing(
        served, caller, headers, verb, args):
    system, server, client, store, ref, entry = served
    dispatcher = server.handler.__self__
    before = _state(store, entry, dispatcher)
    ctx = client if caller == "remote" else server
    with pytest.raises(ProtocolError):
        system.rpc.call(ctx, ref, verb, args, headers=headers)
    assert _state(store, entry, dispatcher) == before


class Picky(KVStore):
    @operation(invalidates=("key",))
    def pop(self, key):
        return self.data.pop(key)      # KeyError on a miss


def test_what_the_operation_raises_still_travels_as_itself(pair):
    system, server, client = pair
    ref = get_space(server).export(Picky())
    # A well-formed primary write whose operation raises: the step lets
    # the application's own error through, untouched by the parse.
    with pytest.raises(KeyError):
        system.rpc.call(client, ref, "pop", ("gone",),
                        headers={versions.H_ASSIGN: ("gone",)})
