"""Shard ring envelopes: consistent-hash routing metadata on the wire.

The ``sharded`` policy partitions a service's key space over N shard
objects with a **consistent-hash ring**: a sorted list of ``[point,
owner]`` pairs over the 64-bit hash circle, where ring entry ``i`` owns
the arc ``(point[i-1], point[i]]`` (wrapping at the top).  Routing a call
is a hash of its shard key plus a bisect — no directory lookup, no
coordination.

This module owns the wire representation and the server-side protocol
steps.  As in :mod:`repro.wire.versions` there is **one call path**:
every enveloped call reaches :func:`serve_envelope` through the serving
context's dispatcher (:meth:`~repro.rpc.dispatcher.Dispatcher.serve`) —
the caller's **ring epoch** rides the request
headers, and the reply is a marshalled wrapper (a dict with reserved
``s.*`` keys).  Whether the shard is remote or co-located with its caller
(a client next to a shard, two shards of one context handing an arc over)
is decided in :meth:`RpcProtocol.call <repro.rpc.protocol.RpcProtocol.
call>`, not here and not in the proxy.

**Epoch fencing** mirrors PR 6's term fencing: every shard export entry
carries a :class:`ShardState` (its shard index, the ring, and the ring's
epoch).  A request stamped with an *older* epoch whose key has **moved
away** is refused with a :data:`K_FENCED` redirect carrying the whole
current map — the caller adopts it and re-routes, exactly like following
a migration forward.  A stale-epoch request whose key this shard *still
owns* (judged by the advisory :data:`H_KEY` routing hash) routed
correctly despite its old ring, so it is served, with the current map
piggybacked on the reply as a one-round-trip heal — redirect storms
after a rebalance hit only the keys that actually moved.  Requests that
carry no shard envelope are untouched, so a single-shard epoch-1
deployment is byte-identical to a plain ``stub`` export; once a
rebalance bumps the epoch, plain (un-enveloped) calls are fenced at the
dispatcher with a ``StaleShardRing`` exception whose detail carries the
same map.

**Rebalancing** reuses the arc-transfer idea of :mod:`repro.migration`
(state out of one live object, into another) at sub-object granularity.
The ``handoff`` control runs **at the source shard**, inside its
dispatch, so the extract-install-commit sequence is atomic with respect
to that shard's other operations:

1. fence if the caller's believed epoch is stale (ring changed under it);
2. compute the keys in the departing arc (``obj.shard_keys()`` filtered
   by hash), extract them (``obj.shard_fragment``);
3. **install at the target first** (a nested control call) — the data
   exists at the new owner before any map names it;
4. commit locally: bump the epoch, reassign the ring point, discard the
   moved keys — the fencing authority (the old owner) advances first, so
   a client routed by the old map is fenced into adopting the new one;
5. best-effort commit at the target (a lost commit leaves the target
   serving correctly at the old epoch; map-sync anti-entropy heals it).

A failed install aborts before step 4, leaving at worst a harmless stale
copy at the target (``install`` is discard-first, hence idempotent).

Request headers and ``s.c`` control kinds are declared once, in
:data:`SHAPES`, and checked by the quorum module's :func:`~repro.wire.
versions.parse` before any step runs.  ``s.e`` is the caller's ring epoch
(older than the shard's ⇒ a :data:`K_FENCED` redirect when the key moved,
an in-band heal otherwise) and ``s.k`` the call's routing hash; ``s.c``
carries the ring controls (verb-less frames): read the map, adopt a newer
one, absorb an arc fragment, or run the source side of an arc transfer.

Reply wrappers: ``{"s.val": result}`` on success (plus ``"s.map"`` when
healing a stale caller), ``{"s.f": map}`` when fenced, ``{"s.map":
map}`` from controls — where ``map`` is the pure ``(epoch, ring,
shards)`` tuple of :meth:`ShardState.map`, shared and never copied.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Any, Callable

from ..kernel.errors import ConfigurationError, ProtocolError
from .refs import ObjectRef
from .versions import COUNT, DATA, KEYS, VERB, parse

#: Request header: the caller's ring epoch.
H_EPOCH = "s.e"
#: Request header: a ring control.
H_CONTROL = "s.c"
#: Request header: the routing hash of the call's shard key.  Advisory:
#: it refines the *stale* path only — a stale-epoch call whose key the
#: serving shard still owns is served (with the new map piggybacked on
#: the reply) instead of redirected, since its routing was right anyway.
H_KEY = "s.k"

#: Reply key: the operation's result (present on success).
K_VALUE = "s.val"
#: Reply key: fenced — the caller's epoch is stale; value is the map.
K_FENCED = "s.f"
#: Reply key: the shard's current ``(epoch, ring, shards)`` map.  On a
#: verb reply (next to :data:`K_VALUE`) it is the in-band heal of a
#: stale-but-correctly-routed caller.
K_MAP = "s.map"

#: The request-header keys that open a shard envelope: a call carrying
#: either is served by :func:`serve_envelope`.
ENVELOPE_KEYS = frozenset((H_EPOCH, H_CONTROL))

#: Ring points per shard in a generated ring (vnodes smooth the arcs).
DEFAULT_VNODES = 8

#: The shard key used when an operation carries no key argument: the whole
#: object routes as one unit.
WHOLE_OBJECT = "*"


def stable_hash(key: Any) -> int:
    """A seed-independent 64-bit hash of a shard key.

    ``hash()`` is salted per process (PYTHONHASHSEED), which would make
    ring placement nondeterministic across runs — the determinism lint's
    whole reason to exist.  blake2b of the key's ``repr`` is stable,
    uniform, and cheap.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def default_ring(count: int, vnodes: int = DEFAULT_VNODES) -> list:
    """A generated ring: ``vnodes`` points per shard, sorted by point.

    Point placement hashes a stable label, so the same ``(count, vnodes)``
    always yields the same ring — deployments and rebinding clients agree
    without exchanging it.
    """
    if count < 1:
        raise ConfigurationError(f"shard count {count} must be >= 1")
    if vnodes < 1:
        raise ConfigurationError(f"vnodes {vnodes} must be >= 1")
    ring = [[stable_hash(f"vnode:{shard}:{v}"), shard]
            for shard in range(count) for v in range(vnodes)]
    ring.sort()
    return ring


def validate_ring(ring: list, count: int) -> list:
    """Check a ring's invariants; returns it normalised to sorted lists.

    Raises :class:`ConfigurationError` on an empty ring, a duplicate
    point (two entries would contest one arc), or an owner outside
    ``0..count-1``.
    """
    if not ring:
        raise ConfigurationError("shard ring is empty")
    normalised = sorted([int(point), int(owner)] for point, owner in ring)
    for i, (point, owner) in enumerate(normalised):
        if i and point == normalised[i - 1][0]:
            raise ConfigurationError(
                f"duplicate ring point {point} (entries {i - 1} and {i})")
        if not 0 <= owner < count:
            raise ConfigurationError(
                f"ring point {point} owned by shard {owner}, outside "
                f"0..{count - 1}")
    return normalised


def in_arc(h: int, lo: int, hi: int) -> bool:
    """True when hash ``h`` lies in the ring arc ``(lo, hi]``.

    ``lo == hi`` is the single-point ring: one arc covering the whole
    circle.  ``lo > hi`` is the wrapping arc through the top.
    """
    if lo == hi:
        return True
    if lo < hi:
        return lo < h <= hi
    return h > lo or h <= hi


class ShardState:
    """One participant's view of the ring: epoch, arcs, and shard homes.

    Installed on every shard's export entry (``index`` = its position)
    and on the group entry (``index`` = -1); the sharded proxy holds one
    too (also -1) as its routing cache.  The view is derived once per
    epoch (:meth:`_reindex`): ``ring`` is a tuple of ``(point, owner)``
    pairs, ``shards`` a tuple of reference field tuples ``(context_id,
    oid, interface, epoch, policy)`` — the swizzle-free form
    :meth:`~repro.migration.mover.MoverService.migrate_to` uses — and
    ``refs`` their :class:`~repro.wire.refs.ObjectRef`, one per shard.
    Nothing writes them in place: a newer map (:meth:`adopt`) or a moved
    shard (:meth:`rebind`) derives a new view.  The ``(epoch, ring,
    shards)`` map is pure data, so it travels shared, never copied.
    """

    __slots__ = ("index", "epoch", "ring", "shards", "refs", "_map",
                 "_points", "_owners")

    def __init__(self, index: int, epoch: int, ring, shards):
        self.index = index
        self._reindex(int(epoch), ring, shards)

    def _reindex(self, epoch: int, ring, shards) -> None:
        """Derive the epoch's view: the map, one reference per shard, and
        the bisect columns — the one place any of them is built."""
        self.epoch = epoch
        self.ring = ring = tuple(map(tuple, ring))
        self.shards = shards = tuple(map(tuple, shards))
        try:
            self.refs = tuple(ObjectRef(*spec) for spec in shards)
        except TypeError:
            self.refs = ()      # a routing-only view: owners, no homes
        self._map = (epoch, ring, shards)
        self._points = [entry[0] for entry in ring]
        self._owners = [entry[1] for entry in ring]

    def owner_of(self, h: int) -> int:
        """The shard index owning hash ``h`` (first point clockwise)."""
        idx = bisect_left(self._points, h)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def arc_of(self, point_index: int) -> tuple[int, int]:
        """The ``(lo, hi]`` arc of ring entry ``point_index``."""
        hi = self._points[point_index]
        lo = self._points[point_index - 1] if point_index else \
            self._points[-1]
        return lo, hi

    def map(self) -> tuple:
        """The epoch's ``(epoch, ring, shards)`` map, built of tuples."""
        return self._map

    def adopt(self, epoch: int, ring, shards) -> bool:
        """Replace the view iff ``epoch`` is strictly newer."""
        if epoch <= self.epoch:
            return False
        self._reindex(epoch, ring, shards)
        return True

    def rebind(self, index: int, fields) -> None:
        """Shard ``index`` now lives where the reference ``fields`` say
        (a migration forward): same epoch, a new view."""
        shards = list(self.shards)
        shards[index] = fields
        self._reindex(self.epoch, self.ring, shards)


def _sorted_ring(body) -> None:
    """A commit's rule: its map's ring is one :func:`validate_ring` takes
    as it is — not empty, sorted, no point twice, every owner one of the
    map's shards — or :class:`ProtocolError`."""
    _epoch, ring, specs = body[0]
    try:
        valid = validate_ring(ring, len(specs)) == [list(e) for e in ring]
    except ConfigurationError:
        valid = False
    if not valid:
        raise ProtocolError(f"commit of a malformed ring {ring!r}")


#: A shard's reference fields ``[context_id, oid, interface, epoch,
#: policy]``, and the ``(epoch, ring, shards)`` map a commit carries.
SHARD_SPEC = (VERB, VERB, VERB, COUNT, VERB)
RING_MAP = (COUNT, [(COUNT, COUNT)], [SHARD_SPEC])

#: The ``s.*`` envelope, declared as :data:`repro.wire.versions.SHAPES`
#: declares the ``q.*`` one (``s.k`` is a bare routing hash, not a spec).
SHAPES = {
    H_EPOCH: (COUNT,),
    H_KEY: COUNT,
    H_CONTROL: {
        "map": ((), ()),
        "commit": ((), (RING_MAP,), _sorted_ring),
        "install": ((KEYS,), (DATA,)),
        "handoff": ((COUNT, COUNT, COUNT), ()),
    },
}


# -- server-side protocol steps -----------------------------------------------
#
# Each step takes the export entry and the envelope's parsed fields, and
# returns the marshallable reply wrapper; the dispatcher has already
# admitted the operation (interface check, compute accounting) when a step
# runs, so a step fences and then takes the entry's ``run``.  Application
# exceptions propagate — the dispatcher ships them as ordinary exception
# frames and the client re-raises, exactly as for plain calls.


def serve_verb(entry, verb: str, args, kwargs, epoch: int,
               h: int | None = None) -> dict:
    """One enveloped operation at a shard: fence, or serve (and heal).

    The caller's ``epoch`` is the fencing authority; the advisory routing
    hash ``h`` softens it.  A stale caller whose key this shard *still
    owns* routed correctly despite its old ring, so refusing it buys
    nothing — it is served, and the current map rides back on the reply
    (:data:`K_MAP` next to the value) to heal the caller in one round
    trip.  Only a stale caller at the *wrong* shard — or one carrying no
    key hash to judge by — is redirected.  (A caller lying about its
    epoch skips both checks; that is exactly the bug class the simtest
    ``staleshard`` canary exists to convict.)
    """
    state = entry.sharding
    if state is not None and epoch < state.epoch and (
            h is None or state.index < 0
            or state.owner_of(h) != state.index):
        return {K_FENCED: state.map()}
    reply = {K_VALUE: entry.run(verb, args, kwargs)}
    if state is not None and epoch < state.epoch:
        reply[K_MAP] = state.map()
    return reply


def serve_control(entry, control, body_args,
                  call_peer: Callable[[list, tuple, tuple], dict]
                  | None = None) -> dict:
    """A ring control call (verb-less frames).

    ``("map",)`` returns the current map; ``("commit",)`` adopts the map
    riding ``body_args[0]`` iff newer; ``("install", keys)`` absorbs the
    arc fragment riding ``body_args[0]`` (discard-first, so a replayed
    install is idempotent); ``("handoff", point, target, epoch)`` runs
    the source side of an arc transfer (module docstring) — it needs
    ``call_peer(shard_spec, control, body_args)``, the nested-call thunk
    the dispatcher supplies.
    """
    kind = control[0]
    state = entry.sharding
    if kind == "map":
        if state is None:
            raise ProtocolError("map control on an unsharded entry")
        return {K_MAP: state.map()}
    if kind == "commit":
        epoch, ring, shards = body_args[0]
        if state is None:
            # A freshly migrated shard entry: infer our index from the
            # map (our own oid must appear in it) and install the state.
            index = _own_index(entry, shards)
            state = entry.sharding = ShardState(index, epoch, ring, shards)
        else:
            state.adopt(epoch, ring, shards)
        if state.index < 0:
            # The group entry doubles as the bootstrap directory: keep its
            # shipped configuration current so late-binding clients start
            # from the newest map instead of redirecting their way to it.
            entry.policy_config["ring"] = [list(e) for e in state.ring]
            entry.policy_config["ring_epoch"] = state.epoch
            entry.policy_config["shards"] = [list(s) for s in state.shards]
        return {K_MAP: state.map()}
    if kind == "install":
        entry.obj.shard_discard(control[1])
        entry.obj.shard_absorb(body_args[0])
        return {K_VALUE: True}
    # "handoff": the table declares no other kind.
    if state is None:
        raise ProtocolError("handoff control on an unsharded entry")
    if call_peer is None:
        raise ProtocolError("handoff needs a nested-call thunk")
    return _serve_handoff(entry, state, control, call_peer)


def _own_index(entry, shards: list) -> int:
    """This entry's shard index in a map (a group entry gets -1)."""
    for index, spec in enumerate(shards):
        if spec[1] == entry.ref.oid:
            return index
    return -1


def _serve_handoff(entry, state: ShardState, control,
                   call_peer: Callable) -> dict:
    """The source side of one arc transfer (runs at the departing owner)."""
    _, point_index, target, believed = control
    if believed != state.epoch:
        return {K_FENCED: state.map()}
    if not 0 <= point_index < len(state.ring):
        raise ProtocolError(
            f"handoff of ring point {point_index}, ring has "
            f"{len(state.ring)} points")
    if not 0 <= target < len(state.shards):
        raise ProtocolError(
            f"handoff to shard {target}, map has {len(state.shards)}")
    source = state.ring[point_index][1]
    if source != state.index:
        return {K_FENCED: state.map()}
    if target == source:
        return {K_MAP: state.map()}    # idempotent no-op
    lo, hi = state.arc_of(point_index)
    keys = [key for key in entry.obj.shard_keys()
            if in_arc(stable_hash(key), lo, hi)]
    fragment = entry.obj.shard_fragment(keys)
    new_ring = list(state.ring)
    new_ring[point_index] = (new_ring[point_index][0], target)
    new_map = (state.epoch + 1, tuple(new_ring), state.shards)
    peer = state.shards[target]
    # Install at the target first: a DistributionError here propagates and
    # aborts the handoff before any commit — the map never names an owner
    # that lacks the data.
    call_peer(peer, ("install", keys), (fragment,))
    # Source-first commit: the fencing authority advances before anyone
    # else, so every stale-mapped call is refused into adopting the truth.
    state.adopt(*new_map)
    entry.obj.shard_discard(keys)
    try:
        call_peer(peer, ("commit",), (new_map,))
    except Exception:
        # Best-effort: a target left at the old epoch still serves
        # correctly (fencing only rejects *older* requests); the map-sync
        # sweep will deliver the commit eventually.
        pass
    return {K_MAP: state.map()}


def serve_envelope(entry, verb: str, args, kwargs, headers: dict, *,
                   now: float, invoke: Callable,
                   call_peer: Callable) -> dict:
    """Serve one enveloped call — control or operation — with the matching
    protocol step.

    The module's single entry point, called by the dispatcher's routing
    step (:meth:`~repro.rpc.dispatcher.Dispatcher.serve`), which supplies
    ``call_peer`` for a handoff's nested calls (``now`` and ``invoke`` are
    the quorum module's needs; both modules take the same three so the
    dispatcher has one call site).

    The envelope is parsed first (:func:`~repro.wire.versions.parse`
    against :data:`SHAPES`): what no honest caller sends is refused with
    :class:`ProtocolError` before any step runs, so nothing changes.
    What an operation raises travels as itself.
    """
    parse(SHAPES, headers, args)
    control = headers.get(H_CONTROL)
    if control is not None:
        return serve_control(entry, control, args, call_peer)
    spec = headers.get(H_EPOCH)
    if spec is None:
        raise ProtocolError("frame carries no shard envelope")
    return serve_verb(entry, verb, args, kwargs, spec[0], headers.get(H_KEY))
