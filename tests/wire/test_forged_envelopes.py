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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.failures.election import ElectionState
from repro.iface.interface import operation
from repro.kernel.errors import ProtocolError
from repro.wire import shards, versions

#: A shard's reference fields, well formed: what a forged map lists.
SPEC = ["n0/main", "o9", "KVStore", 0, "stub"]

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
    # A field of the wrong kind used to be converted: an entry's args
    # "kz" applied as put("k", "z"), install keys "ab" discarded "a" and
    # "b", a version "2" applied and logged, a negative since answered the
    # last entry, and a digit string, a bool or a float was an epoch.
    ({"q.c": ("push", "k")}, "", ([[2, "put", "kz", {}]],)),
    ({"s.c": ("install", "ab")}, "", ({},)),
    ({"q.a": ("k", "2")}, "put", ("k", 2)),
    ({"q.c": ("pull", "k", -1)}, "", ()),
    ({"s.e": ("9",)}, "get", ("k",)),
    ({"s.e": (True,)}, "get", ("k",)),
    ({"s.e": (1.5,)}, "get", ("k",)),
    ({"s.c": ("handoff", "0", "0", "1")}, "", ()),
    # A commit used to adopt any ring of [int, int] points: an empty one
    # (every stale-epoch call then raised IndexError), an owner outside
    # the map's shards, a point twice, points out of order.
    ({"s.c": ("commit",)}, "", ([2, [], [SPEC]],)),
    ({"s.c": ("commit",)}, "", ([2, [[5, 7]], [SPEC]],)),
    ({"s.c": ("commit",)}, "", ([2, [[5, 0], [5, 0]], [SPEC]],)),
    ({"s.c": ("commit",)}, "", ([2, [[9, 0], [5, 0]], [SPEC]],)),
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


# -- the table-derived fuzz ---------------------------------------------------
#
# Strategies built from the declared tables: every request header and
# control kind of ``versions.SHAPES`` and ``shards.SHAPES``, its fields drawn
# by kind.  A valid envelope is served; the same envelope with any one
# field replaced by a value of another kind is refused, and changes nothing.

#: Values each kind takes, small enough that every step serves them: the
#: fixture below has two shards, so a count is a valid shard index.
VALID = {
    versions.COUNT: st.integers(0, 1),
    versions.KEY: st.sampled_from(["k", "j"]),
    versions.KEYS: st.lists(st.sampled_from(["k", "j"]), max_size=2),
    versions.VERB: st.sampled_from(["put", "get"]),
    versions.ARGS: st.lists(st.sampled_from(["k", 1]), max_size=2),
    versions.KWARGS: st.dictionaries(st.just("value"), st.integers(0, 3)),
    versions.DATA: st.dictionaries(st.sampled_from(["k", "j"]),
                                   st.integers(0, 3)),
}
#: Values of another kind: a digit string, a bool, a float, a negative, an
#: unhashable, a string where a sequence belongs.
OTHER = {
    versions.COUNT: st.sampled_from(["1", True, 1.5, -1, None]),
    versions.KEY: st.sampled_from([["k"], {"k": 1}]),
    versions.KEYS: st.sampled_from(["kj", 5, [["k"]], None]),
    versions.VERB: st.sampled_from([5, True, None, ["put"]]),
    versions.ARGS: st.sampled_from(["k1", 5, {"k": 1}, None]),
    versions.KWARGS: st.sampled_from([["value"], "value", {1: 2}, None]),
    versions.DATA: st.sampled_from([["k"], "kj", 5, None]),
    "control": st.sampled_from(["gossip", 5, None, ["map"]]),
}
#: Where a control's body rides among an envelope's parts.
BODY = "body"
#: A request envelope's rider header, and the call each request opens.
RIDER = {versions: versions.H_TERM, shards: shards.H_KEY}
CALL = {versions.H_READ: ("get", ("k",)), versions.H_ASSIGN: ("put", ("k", 1)),
        versions.H_APPLY: ("put", ("k", 1)), shards.H_EPOCH: ("get", ("k",))}
ENVELOPES = [(versions, versions.H_READ, None),
             (versions, versions.H_ASSIGN, None),
             (versions, versions.H_APPLY, None),
             (shards, shards.H_EPOCH, None)] + [
    (wire, wire.H_CONTROL, kind) for wire in (versions, shards)
    for kind in wire.SHAPES[wire.H_CONTROL]]


def _build(draw, shape):
    """A value of ``shape`` whose fields are valid, built of lists."""
    if isinstance(shape, str):
        return draw(VALID[shape])
    if isinstance(shape, list):
        return [_build(draw, draw(st.sampled_from(shape)))
                for _ in range(draw(st.integers(1, 2)))]
    return [_build(draw, kind) for kind in shape]


def _fields(shape, value, path=()):
    """``(path, kind)`` of every field in ``value``, a value of ``shape``."""
    if isinstance(shape, str):
        return [(path, shape)]
    if isinstance(shape, list):
        return [field for i, item in enumerate(value) for each in shape
                if len(each) == len(item)
                for field in _fields(each, item, path + (i,))]
    return [field for i, kind in enumerate(shape)
            for field in _fields(kind, value[i], path + (i,))]


@st.composite
def envelopes(draw, wire, name, kind, ring_map):
    """One valid envelope: ``(parts, shapes, verb, args)``, where
    ``parts`` maps each header — and a control's body, under
    :data:`BODY` — to its value and ``shapes`` to its declared shape (a
    control's kind is a field of its own)."""
    if kind is None:
        verb, args = CALL[name]
        shapes = {name: wire.SHAPES[name],
                  RIDER[wire]: wire.SHAPES[RIDER[wire]]}
    else:
        fields, body, *_ = wire.SHAPES[name][kind]
        verb, args = "", None
        shapes = {name: fields, BODY: body}
        if wire is versions:
            shapes[versions.H_TERM] = versions.SHAPES[versions.H_TERM]
    parts = {key: _build(draw, shape) for key, shape in shapes.items()}
    if kind is not None:
        parts[name] = [kind] + parts[name]
        shapes[name] = ("control",) + shapes[name]
    if kind == "commit":             # the ring rule: the shard's own ring
        # Built of lists, as every part is, so any field can be forged.
        _, ring, specs = ring_map
        parts[BODY] = [[draw(VALID[versions.COUNT]),
                        [list(entry) for entry in ring],
                        [list(spec) for spec in specs]]]
    return parts, shapes, verb, args


def _forge(draw, parts, shapes):
    """``parts`` with one field replaced by a value of another kind."""
    fields = [((key,) + path, kind) for key, shape in shapes.items()
              for path, kind in _fields(shape, parts[key])]
    (*where, last), kind = draw(st.sampled_from(fields))
    forged = copy.deepcopy(parts)
    container = forged
    for step in where:
        container = container[step]
    container[last] = draw(OTHER[kind])
    return forged


def _call(system, ctx, ref, parts, verb, args):
    headers = {key: value for key, value in parts.items() if key != BODY}
    return system.rpc.call(ctx, ref, verb, tuple(parts.get(BODY, args)),
                           headers=headers)


def _votes(election):
    return (election.term, election.leader, election.lease_expiry,
            election.vote_term, election.voted_for)


@pytest.fixture
def fuzzed(served):
    """``served`` with an election state, as shard 0 of two."""
    system, server, client, store, ref, entry = served
    other = get_space(server).export(KVStore())
    specs = [list(ref.fields()), list(other.fields())]
    ring = shards.default_ring(2)
    entry.sharding = shards.ShardState(0, 1, ring, specs)
    get_space(server).entry(other.oid).sharding = shards.ShardState(
        1, 1, ring, specs)
    entry.election = ElectionState(0, (server.context_id, "gone/main"))
    return served


@pytest.mark.parametrize("caller", ["remote", "local"])
@pytest.mark.parametrize("wire,name,kind", ENVELOPES,
                         ids=[kind or name for _, name, kind in ENVELOPES])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_table_serves_its_shapes_and_refuses_any_other_kind(
        fuzzed, caller, wire, name, kind, data):
    system, server, client, _store, ref, entry = fuzzed
    dispatcher = server.handler.__self__
    ctx = client if caller == "remote" else server
    parts, shapes, verb, args = data.draw(
        envelopes(wire, name, kind, entry.sharding.map()))
    _call(system, ctx, ref, parts, verb, args)      # served: no refusal
    forged = _forge(data.draw, parts, shapes)
    before = _state(entry.obj, entry, dispatcher), _votes(entry.election)
    with pytest.raises(ProtocolError):
        _call(system, ctx, ref, forged, verb, args)
    assert (_state(entry.obj, entry, dispatcher),
            _votes(entry.election)) == before


# -- an elected group's writes carry a term -----------------------------------
#
# An elected group's proxy stamps every write with its ``(term, leader)``
# belief.  A write envelope without one used to be served as if fenced by
# nothing: a reset emptied a follower, an apply or a push logged a version
# under term 0, and an assign was served at the leader.  It is refused
# before anything changes, and the refusal is not remembered.

#: ``(replica index, headers, verb, args)``: each write step, term-less.
UNTERMED = [
    (1, {"q.c": ("reset",)}, "", ()),
    (1, {"q.a": ("k0", 2)}, "put", ("k0", 9)),
    (1, {"q.c": ("push", "k0")}, "", ([[2, "put", ["k0", 9], {}]],)),
    (0, {"q.w": ("k0",)}, "put", ("k0", 9)),
]


@pytest.fixture
def elected():
    """A deployed elected three-replica group holding ``k0 = 7``:
    ``(system, client context, replica references)``."""
    from repro.simtest.runner import SimCase
    from repro.simtest.workload import deploy
    deployment = deploy(SimCase(seed=5, policy="replicated", service="kv",
                                ops=8, clients=1, faults=()))
    (_, ctx, proxy), = deployment.clients
    proxy.put("k0", 7)
    return ctx.system, ctx, [each.proxy_ref for each in proxy._replicas]


def _replica_state(entry, dispatcher):
    return copy.deepcopy((
        entry.obj.data, entry.replica_log.digest(),
        entry.replica_log.suffix("k0", 0),
        [(key, reply.to_bytes())
         for key, reply in dispatcher._replay.items()]))


@pytest.mark.parametrize("caller", ["remote", "local"])
@pytest.mark.parametrize("index,headers,verb,args", UNTERMED,
                         ids=["reset", "apply", "push", "assign"])
def test_an_elected_write_without_a_term_is_refused_and_changes_nothing(
        elected, caller, index, headers, verb, args):
    system, client, refs = elected
    ref = refs[index]
    server = system.context(ref.context_id)
    entry = get_space(server).entry(ref.oid)
    dispatcher = server.handler.__self__
    before = _replica_state(entry, dispatcher)
    ctx = client if caller == "remote" else server
    with pytest.raises(ProtocolError):
        system.rpc.call(ctx, ref, verb, args, headers=headers)
    assert _replica_state(entry, dispatcher) == before
    # The same envelope with a stale term is fenced.
    assert system.rpc.call(ctx, ref, verb, args,
                           headers={**headers, "q.t": (0, 0)}) \
        == {"q.f": (1, 0)}
    assert _replica_state(entry, dispatcher)[:3] == before[:3]
