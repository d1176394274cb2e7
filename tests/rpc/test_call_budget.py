"""The call budget: Python-level calls one warm operation makes, counted
exactly (``sys.setprofile`` ``"call"`` events; C calls are not counted).

Fails at the parent of the PR that added it (stub 89, replicated 255,
sharded 119): a property, a forwarding method or a generated constructor
in front of a value fixed at construction is a call that does no work.
The ``get`` budgets were lowered again when the frame path stopped
forwarding (stub 63, replicated 203, sharded 92 before), and the enveloped
ones again when a plain frame stopped being written (replicated 159,
sharded 69, put 229 before).  A ``put`` of a value never sent before
writes no frame since a pure frame is sized too (stub 53, caching 97
before).  An envelope built from tuples is sized and shared like a stub
frame, neither snapshotted nor copied (replicated get 133, sharded 61,
put 192, caching 89 before).  A cache hit reads only attributes: the
TTL, the hit's cost and the operation (caching hit 8, composite hit 10,
caching put 86, replicated get 127, put 183 before).  An RPC crosses each
layer once and builds a frame only where one is received: no attempt,
dispatch or reply frame in between, and a pure reply is read without one
(stub get 45, replicated 126, sharded 58, put 182, caching put 84, stub
put 45, one-way 26 before).  An envelope is parsed once, against its
declared table: a belief is not re-parsed by every step that fences, and
a shard's fence and heal are one step (replicated put 164, sharded 52
before).  A carried message is read as its fields: the server builds no
request frame, and an envelope reply, sized without a pure walk first,
reaches the caller as its dict (stub get 35, replicated 114, sharded 51,
put 159, caching put 68, stub put 35, one-way 21 before).  A shard route
is derived once per ring epoch: a routed call reads its shard's reference
and key index where they are stored, and a map travels pure (sharded get
46, put 46, rebalance sweep 725 before).  A reference travels carried and
a new proxy sets its interface without the invalidation walk: a handshake
bind writes and parses no frame (replicated 289, composite 304, caching
396, stub 82 before).  A round trip calls only the layers that do work:
no request frame, no transport hop, no message constructor and no clock
method — a charge is a slot write — and a class with its own interface is
exportable without a scan (stub get 34, replicated 100, sharded 43, put
138 and 43, one-way 20, fresh put 34 and 66, sweep 676, bind 118, 131,
227 and 76, retransmission 44, duplicate 52 before).
"""

import gc
import itertools
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.export import ObjectSpace, get_space
from repro.simtest.runner import SimCase
from repro.simtest.workload import deploy
from repro.wire.frames import Frame
from repro.wire.marshal import clear_memos
from repro.wire.refs import ObjectRef

# Lower a budget when the count falls; never raise one without a line in
# DESIGN.md ("The shell ledger") saying what the extra calls bought.
# 3.12+ inlines comprehensions, so a count can only be lower there.
BUDGET = {"stub": 21, "replicated": 74, "sharded": 30,
          "caching": 3, "composite": 4}
#: A warm quorum write: the assign at the primary plus its replica apply;
#: a routed write.
PUT_BUDGET = {"replicated": 99, "sharded": 30}
#: One plain one-way, sent and served.
ONEWAY_BUDGET = 12
#: A put of a value no frame carried before: nothing is memoised per value.
FRESH_PUT_BUDGET = {"stub": 21, "caching": 44}
#: One warm rebalance sweep: the map-sync poll of every holder, then the
#: handoff with its install and commit legs.  Each sweep moves another
#: arc, so readings differ by a few calls; the largest is budgeted.
SWEEP_BUDGET = 568

#: A handshake bind from a fresh context: the ``describe`` round trip and
#: the proxy (with a replica proxy per member, or the cache's register).
BIND_BUDGET = {"replicated": 103, "composite": 115, "caching": 142,
               "stub": 64}
#: A stub get whose first request is lost: the timeout, the retransmission.
RETRANSMIT_BUDGET = 30
#: A stub get whose first reply is lost: the retransmission is a duplicate,
#: answered from the server's replay cache.
DUPLICATE_BUDGET = 34

#: Frames that stand in front of a value fixed at construction, or that
#: only forward: a size, a message id, a snapshot's hand-over, the clock's
#: rebase, a context lookup, the frame encoder's middle hop, the byte
#: encoder (every frame of a warm call is pure or plain data, which is
#: sized, not written) — and the round trip's plumbing: an attempt, a
#: dispatch step, a reply frame built only to be encoded, a frame built
#: from a carried message (its fields are read where it lands) — and the
#: hops that only forwarded or wrote one float: the transport's encode and
#: reply send, a message's constructor, the clock's and busy line's methods.
BANNED = {"context_id", "_feed_breaker", "_accept", "encoder_for",
          "decoder_for", "<lambda>", "__len__", "_mint", "mint", "take",
          "image", "reset", "context", "encode_message",
          "encode_frame_fields", "_encode_into", "_attempt", "_handle_at",
          "_dispatch", "reply_to", "decode_frame", "decode_message",
          "encode_frame", "transmit_reply", "__new__", "advance",
          "advance_to", "occupy"}
#: What the enveloped arm picked or parsed more than once — and the plain
#: walks: an envelope and a reply wrapper are pure, so nothing snapshots
#: or copies them.
ENVELOPE_BANNED = {"has_envelope", "serve_enveloped", "from_headers",
                   "_plain_sized", "_plain_copy"}
#: What a cache hit re-derived although it is fixed between install and
#: upgrade: the TTL, the cost model, the operation, the composite's stack.
HIT_BANNED = {"_read", "_effective_ttl", "system", "proxy_interface",
              "operation", "_build_stack"}


def _deployment(policy):
    # The encode memos are process-wide: start from empty ones, so what
    # ran earlier in the process cannot turn a reading's miss into a hit.
    clear_memos()
    deployment = deploy(SimCase(seed=5, policy=policy, service="kv", ops=8,
                                clients=1, faults=()))
    (_, ctx, proxy), = deployment.clients
    proxy.put("k0", 0)
    proxy.get("k0")     # under caching and composite, the next get hits
    return ctx, proxy


def _readings(operation, values=None):
    """Eight readings of the code names called by ``operation()``, once
    it ran warm (its memo entries recorded) — or, given ``values``, by
    ``operation(next(values))``.  With the collector off: a collection
    inside a reading runs whatever weakref callbacks earlier tests left
    behind."""
    args = () if values is None else (next(values),)
    operation(*args)
    readings = []
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(8):
            names = []

            def profile(frame, event, arg):
                if event == "call":
                    names.append(frame.f_code.co_name)

            args = () if values is None else (next(values),)
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                operation(*args)
            finally:
                sys.setprofile(previous)
            readings.append(names)
    finally:
        if collecting:
            gc.enable()
    return readings


def _warm_get_calls(policy):
    _, proxy = _deployment(policy)
    return _readings(partial(proxy.get, "k0"))


def _count(readings):
    counts = {len(names) for names in readings}
    assert len(counts) == 1, counts
    return counts.pop()


@pytest.mark.parametrize("policy", sorted(BUDGET))
def test_a_warm_get_stays_within_its_call_budget(policy):
    assert _count(_warm_get_calls(policy)) <= BUDGET[policy]


@pytest.mark.parametrize("policy", sorted(PUT_BUDGET))
def test_a_warm_put_stays_within_its_call_budget(policy):
    _, proxy = _deployment(policy)
    readings = _readings(partial(proxy.put, "k0", 1))
    assert _count(readings) <= PUT_BUDGET[policy]
    for names in readings:
        assert not (BANNED | ENVELOPE_BANNED).intersection(names)


@pytest.mark.parametrize("policy", sorted(FRESH_PUT_BUDGET))
def test_a_put_of_a_new_value_writes_no_frame(policy):
    _, proxy = _deployment(policy)
    readings = _readings(partial(proxy.put, "k0"), itertools.count(1000))
    assert _count(readings) <= FRESH_PUT_BUDGET[policy]
    for names in readings:      # caching: its invalidation one-way is pure
        assert not (BANNED | ENVELOPE_BANNED).intersection(names), \
            sorted(names)


def test_a_oneway_stays_within_its_call_budget():
    ctx, proxy = _deployment("stub")
    readings = _readings(partial(ctx.system.rpc.send_oneway, ctx,
                                 proxy.proxy_ref, "put", ("k0", 1)))
    assert _count(readings) <= ONEWAY_BUDGET
    for names in readings:
        assert not BANNED.intersection(names), sorted(names)


def test_the_plain_path_calls_nothing_that_computes_nothing():
    for names in _warm_get_calls("stub"):
        assert not BANNED.intersection(names), sorted(names)


@pytest.mark.parametrize("policy", ["replicated", "sharded"])
def test_the_enveloped_path_picks_and_parses_once(policy):
    for names in _warm_get_calls(policy):
        assert not (BANNED | ENVELOPE_BANNED).intersection(names), \
            sorted(names)


def test_a_warm_rebalance_sweep_stays_within_its_call_budget():
    _, proxy = _deployment("sharded")
    readings = _readings(proxy.proxy_rebalance)
    assert max(len(names) for names in readings) <= SWEEP_BUDGET
    for names in readings:      # every map-bearing reply is read as a dict
        assert not BANNED.intersection(names), sorted(names)


def test_a_warm_round_trip_builds_no_frame(monkeypatch):
    ctx, proxy = _deployment("stub")
    built = []
    init = Frame.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", spy)
    proxy.get("k0")
    proxy.put("k0", 1)
    ctx.system.rpc.send_oneway(ctx, proxy.proxy_ref, "put", ("k0", 2))
    assert built == []


def test_a_warm_routed_call_builds_no_reference(monkeypatch):
    _, proxy = _deployment("sharded")
    built = []
    init = ObjectRef.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ObjectRef, "__init__", spy)
    proxy.get("k0")
    proxy.put("k0", 1)
    assert built == []


@pytest.mark.parametrize("policy", ["caching", "composite"])
def test_a_cache_hit_reads_only_attributes(policy):
    for names in _warm_get_calls(policy):
        assert not HIT_BANNED.intersection(names), sorted(names)


#: The writer and the decoder: a reference travels carried, so a bind
#: writes and parses no frame.
WRITTEN = {"encode_frame_fields", "_encode_into", "decode_frame_fields",
           "_decode_from"}


@pytest.mark.parametrize("policy", sorted(BIND_BUDGET))
def test_a_handshake_bind_stays_within_its_call_budget(policy):
    ctx, proxy = _deployment(policy)
    system = ctx.system
    spaces = iter([get_space(system.add_node(f"fresh{i}")
                             .create_context("main")) for i in range(9)])
    readings = _readings(partial(ObjectSpace.bind_ref, ref=proxy.proxy_ref,
                                 handshake=True), spaces)
    assert _count(readings) <= BIND_BUDGET[policy]
    for names in readings:
        assert not WRITTEN.intersection(names), sorted(names)


def _lossy(ctx, draws):
    """The stub deployment's network loses the legs ``draws`` marks: each
    message draws the next value, and a draw of 0 is a loss.  The draws
    are a C iterator, so they add no counted call."""
    network = ctx.system.network
    network.set_default_loss(0.5)
    network._rng = SimpleNamespace(random=iter(draws * 9).__next__)


def test_a_retransmission_stays_within_its_call_budget():
    ctx, proxy = _deployment("stub")
    _lossy(ctx, [0.0, 0.9, 0.9])        # the request is lost once
    readings = _readings(partial(proxy.get, "k0"))
    assert _count(readings) <= RETRANSMIT_BUDGET
    assert proxy.proxy_protocol.stats["retries"] >= 9


def test_a_duplicate_from_the_replay_cache_stays_within_its_call_budget():
    ctx, proxy = _deployment("stub")
    server = ctx.system.context(proxy.proxy_ref.context_id)
    _lossy(ctx, [0.9, 0.0, 0.9, 0.9])   # the reply is lost once
    readings = _readings(partial(proxy.get, "k0"))
    assert _count(readings) <= DUPLICATE_BUDGET
    assert server.handler.__self__.stats["duplicates"] == 9
