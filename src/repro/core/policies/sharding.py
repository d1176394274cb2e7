"""The ``sharded`` policy: a proxy that routes each call by key.

The service's data spans N shard objects in N contexts; the proxy the
service ships holds a **consistent-hash ring** (:mod:`repro.wire.shards`)
and routes every operation to the owning shard — the client calls the
same interface it always did and never learns the service is partitioned.
That is the paper's thesis at its most productive: the distribution
structure (how many shards, where they live, how keys map to them) is
entirely behind the proxy.

**Routing.**  The shard key is the operation's argument at the
configurable ``shard_key`` index (default 0 — right for keyed services
like KV and locks, the same convention as the replicated policy's
``version_key``); ``shard_key=None`` routes the whole object as one unit.
The key hashes onto the ring (:func:`~repro.wire.shards.stable_hash` —
seeded ``hash()`` would break determinism) and a bisect finds the owner.

**Degenerate ring.**  A single-shard deployment at the bootstrap epoch
sends *plain* calls — byte-identical to a ``stub`` proxy bound to the
shard directly.  Multi-shard (or post-rebalance) traffic carries the ring
epoch in the frame headers, so a mis-routed call is **fenced** with a
redirect carrying the whole current map, which the proxy adopts and
retries — mirroring both the migration forwarding chain and PR 6's
``K_FENCED`` term fencing.  A plain call reaching a rebalanced shard gets
the same treatment via the ``StaleShardRing`` exception.

**Rebalancing** (:meth:`ShardedProxy.proxy_rebalance`) moves one ring
arc per sweep: the current epoch picks a ring point deterministically,
and a ``handoff`` control at the departing owner extracts the arc's
keys, installs them at the new owner *first*, then commits the epoch
bump (see :mod:`repro.wire.shards` for the safety argument).
:meth:`ShardedProxy.proxy_split` moves half a hot shard's arcs to a
designated target — the E19 hot-shard scenario.

**Composition.**  ``resilient``-over-``sharded`` stacks through the
composite policy (``extra_layers=["resilient"]``), and a shard may
itself be a ``replicate(...)`` group (pass a list of contexts in the
``contexts`` slot): the proxy then routes to the group's replicated
sub-proxy instead of a stub entry — from the group's own home context
as well, so a write made there fans out like any other.  Replicated
shards keep a static ring (arc handoff needs direct fragment access,
which a group encapsulates) — scale-out with per-shard redundancy,
rebalance within the stub tier.

Deployment helper: :func:`shard` builds the partitioned group and
returns the client-facing reference.
"""

from __future__ import annotations

from typing import Any, Callable

from ...kernel.errors import (
    ConfigurationError,
    DistributionError,
    StaleShardRing,
)
from ...wire import shards
from ...wire.refs import ObjectRef
from ..factory import register_policy
from ..proxy import Proxy

#: Re-route bound per call (fence redirects).
ROUTE_ATTEMPTS = 4


def _ring_params(count: int, ring: list | None, vnodes, ring_epoch,
                 shard_key) -> tuple[int, list]:
    """Validated ``(epoch, ring)`` of a ``count``-shard deployment.

    The one validator behind :func:`shard` and the proxy's construction:
    a duplicate ring point, a ring owner outside the shard range, a
    non-positive epoch or vnode count, or a negative ``shard_key`` index
    is a configuration error, not a distribution outcome.
    """
    if ring is None:
        ring = shards.default_ring(count, int(vnodes))
    else:
        ring = shards.validate_ring(ring, count)
    epoch = int(ring_epoch)
    if epoch < 1:
        raise ConfigurationError(f"ring_epoch {epoch} must be >= 1")
    if shard_key is not None and int(shard_key) < 0:
        raise ConfigurationError(f"shard_key index {shard_key} is negative")
    return epoch, ring


@register_policy
class ShardedProxy(Proxy):
    """Route each operation to the shard owning its key."""

    proxy_policy_name = "sharded"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._state: shards.ShardState | None = None
        self._subs: dict[str, Proxy] = {}
        self.proxy_stats.update(shard_routes=0, shard_local=0,
                                shard_redirects=0, shard_heals=0,
                                rebalances=0, splits=0,
                                handoff_failures=0, map_syncs=0)
        self._key_index = self._shard_key_index()
        if self.proxy_config.get("shards") is not None:
            # Broken deployments fail at construction, not first call.
            self._shard_params()

    def proxy_install(self) -> None:
        """Re-read the shard key index: a late handshake may ship it."""
        self._key_index = self._shard_key_index()

    # -- configuration ------------------------------------------------------------

    def _shard_params(self) -> tuple[int, list, list]:
        """Validated ``(epoch, ring, shard_specs)`` from the configuration.

        The installation handshake is completed first when the
        configuration arrived without the shard map (reference passed by
        value).  A group that ships none — there is no object behind a
        group reference to serve the call instead — or anything
        :func:`_ring_params` rejects is a configuration error.
        """
        specs = self.proxy_shipped("shards")
        if not specs:
            raise ConfigurationError("sharded policy configured with no "
                                     "shards")
        config = self.proxy_config
        epoch, ring = _ring_params(
            len(specs), config.get("ring"),
            config.get("vnodes", shards.DEFAULT_VNODES),
            config.get("ring_epoch", 1), config.get("shard_key", 0))
        return epoch, ring, specs

    def _shard_state(self) -> shards.ShardState:
        """The routing state, resolved lazily."""
        if self._state is None:
            epoch, ring, specs = self._shard_params()
            self._state = shards.ShardState(-1, epoch, ring, specs)
        return self._state

    def _shard_key_index(self) -> int | None:
        """The argument index that carries an operation's shard key.

        ``shard_key`` names it (like the replicated policy's
        ``version_key``); ``None`` — or an operation without that
        argument (``size()``, ``stats()``) — routes as the whole object.
        Fixed between install and upgrade, so read once for both.
        """
        index = self.proxy_config.get("shard_key", 0)
        return None if index is None else int(index)

    # -- canary override points (see simtest's staleshard) ------------------------

    def _routing_state(self, state: shards.ShardState) -> shards.ShardState:
        """The state used for owner lookups (canaries freeze this)."""
        return state

    def _route_epoch(self, route: shards.ShardState) -> int:
        """The epoch stamped on envelopes (canaries spoof this)."""
        return route.epoch

    def _adopt_map(self, ring_map) -> bool:
        """Fold a fence redirect's (or sync's) newer map into the state."""
        return self._shard_state().adopt(*ring_map)

    # -- invocation ---------------------------------------------------------------

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        state = self._state
        if state is None:
            state = self._shard_state()
        index = self._key_index
        h = shards.stable_hash(
            args[index] if index is not None and len(args) > index
            else shards.WHOLE_OBJECT)
        for _ in range(ROUTE_ATTEMPTS):
            route = self._routing_state(state)
            index = route.owner_of(h)
            ref = route.refs[index]
            enveloped = ref.policy == "stub" and (len(route.refs) > 1
                                                  or route.epoch > 1)
            try:
                if not enveloped:
                    result = self._plain_call(ref, verb, args, kwargs)
                else:
                    reply = self._enveloped_call(
                        ref, verb, args, kwargs,
                        {shards.H_EPOCH: (self._route_epoch(route),),
                         shards.H_KEY: h})
                    if shards.K_FENCED in reply:
                        self.proxy_stats["shard_redirects"] += 1
                        self._adopt_map(reply[shards.K_FENCED])
                        continue
                    if shards.K_MAP in reply:
                        # Served despite a stale ring (the key had not
                        # moved): the shard healed us in-band.
                        self.proxy_stats["shard_heals"] += 1
                        self._adopt_map(reply[shards.K_MAP])
                    result = reply[shards.K_VALUE]
            except StaleShardRing as exc:
                # A plain call outran a rebalance: adopt the map the
                # redirect carries and re-route (now enveloped).
                self.proxy_stats["shard_redirects"] += 1
                if exc.ring_map is not None:
                    self._adopt_map(exc.ring_map)
                else:
                    self._sync_map(state)
                continue
            self.proxy_stats["shard_routes"] += 1
            return result
        raise DistributionError(
            f"sharded call {verb!r} exhausted {ROUTE_ATTEMPTS} routing "
            f"attempts (ring epoch {state.epoch})")

    def _sub(self, ref: ObjectRef) -> Proxy:
        """The bound sub-proxy for one shard, wherever the shard lives."""
        sub = self._subs.get(ref.oid)
        if sub is None:
            sub = self.proxy_context.space.proxy_for(ref)
            self._subs[ref.oid] = sub
        return sub

    def _plain_call(self, ref: ObjectRef, verb: str, args: tuple,
                    kwargs: dict) -> Any:
        """Un-enveloped invocation: single-shard fast path (byte-identical
        to a stub client) and non-stub shard policies (replicated groups)."""
        if ref.context_id == self.proxy_context.context_id:
            self.proxy_stats["shard_local"] += 1
        return self._sub(ref).invoke(verb, args, kwargs)

    def _enveloped_call(self, ref: ObjectRef, verb: str, args: tuple,
                        kwargs: dict, headers: dict) -> dict:
        """One enveloped shard call; returns the reply wrapper.

        Where the shard lives is the protocol's business: a shard
        co-located with the caller is served by the same dispatcher step
        without frames (only the ``shard_local`` count knows).
        """
        context = self.proxy_context
        if ref.context_id == context.context_id:
            self.proxy_stats["shard_local"] += 1
        return self.proxy_protocol.call(context, ref, verb, args, kwargs,
                                        headers=headers)

    def _control_call(self, ref: ObjectRef, control: tuple,
                      body_args: tuple = ()) -> dict:
        """A verb-less ring-control call to one shard (or the group)."""
        return self._enveloped_call(ref, "", tuple(body_args), {},
                                    {shards.H_CONTROL: control})

    # -- ring maintenance ---------------------------------------------------------

    def _sync_targets(self, state: shards.ShardState) -> list:
        """Every map holder: the stub shards plus the group entry."""
        targets = [ref for ref in state.refs if ref.policy == "stub"]
        group = self.proxy_ref
        if all(ref.oid != group.oid for ref in targets):
            targets.append(group)
        return targets

    def _sync_map(self, state: shards.ShardState) -> list:
        """Map-sync anti-entropy: poll every holder, push the newest map.

        Heals shards that missed a handoff's best-effort commit (so no
        source can get stuck fencing handoffs against an old epoch) and
        keeps the group entry's bootstrap configuration current.  Failures
        are swallowed — a sweep is opportunistic repair, never an outcome.
        """
        self.proxy_stats["map_syncs"] += 1
        best = state.map()
        behind: list[ObjectRef] = []
        for ref in self._sync_targets(state):
            try:
                reply = self._control_call(ref, ("map",))
            except DistributionError:
                continue
            seen = reply.get(shards.K_MAP)
            if seen is None:
                continue
            if seen[0] > best[0]:
                best = seen
            elif seen[0] < best[0]:
                behind.append(ref)
        if best[0] > state.epoch:
            self._adopt_map(best)
            # Everyone polled before the newer map surfaced may be behind.
            behind = self._sync_targets(state)
        for ref in behind:
            try:
                self._control_call(ref, ("commit",), (best,))
            except DistributionError:
                continue
        return state.map()

    def proxy_shard_map(self, sync: bool = True) -> tuple:
        """The current ``(epoch, ring, shards)`` map: the epoch's pure
        tuple, shared with the proxy's routing state (nothing in it can
        change; a newer epoch is a new tuple).

        ``sync`` runs the anti-entropy sweep first (one control round trip
        per holder); pass ``False`` to read the proxy's own view — right
        when the caller knows the ring is current (e.g. before the first
        rebalance) and the sweep's serial round trips would cost more than
        the staleness risk.
        """
        state = self._shard_state()
        if sync:
            return self._sync_map(state)
        return state.map()

    def proxy_rebalance(self) -> list:
        """One rebalance sweep: move one deterministically chosen arc.

        The epoch picks the ring point (``epoch % len(ring)``) and the
        arc moves from its current owner to the next shard around — a
        rotation that exercises every arc over successive sweeps.  The
        handoff runs at the source; a fence or an unreachable source makes
        the sweep a no-op (it is opportunistic, like anti-entropy).
        Returns the resulting map.
        """
        state = self._shard_state()
        if len(state.shards) < 2:
            return state.map()    # nowhere to move to
        self._sync_map(state)
        point = state.epoch % len(state.ring)
        source = state.ring[point][1]
        target = (source + 1) % len(state.shards)
        if state.refs[source].policy != "stub" \
                or state.refs[target].policy != "stub":
            return state.map()    # replicated shards keep a static ring
        if self._handoff(state, source, point, target):
            self.proxy_stats["rebalances"] += 1
        return state.map()

    def _handoff(self, state: shards.ShardState, source: int, point: int,
                 target: int) -> bool:
        """Ask ``source`` to hand ring point ``point``'s arc to ``target``
        and adopt the map that comes back; true when the arc moved — when
        that map is newer than the epoch sent (a fence, an unreachable
        source or an arc already at ``target`` makes it a no-op)."""
        sent = state.epoch
        try:
            reply = self._control_call(state.refs[source],
                                       ("handoff", point, target, sent))
        except DistributionError:
            self.proxy_stats["handoff_failures"] += 1
            return False
        fenced = reply.get(shards.K_FENCED)
        ring_map = reply[shards.K_MAP] if fenced is None else fenced
        self._adopt_map(ring_map)
        return fenced is None and ring_map[0] > sent

    def proxy_split(self, source: int, target: int,
                    sync: bool = True) -> int:
        """Split a hot shard: move every other of its arcs to ``target``.

        The E19 scenario — a Zipf head concentrates on one shard, and the
        operator (or an autoscaler) splits its load in half.  Returns the
        number of arcs moved; failures skip the arc (the next sweep can
        retry).  ``sync=False`` skips the pre-split anti-entropy sweep —
        the handoffs themselves are still epoch-fenced, so a stale view
        costs a fenced no-op arc at worst, while the sweep's serial round
        trips run the caller's clock ahead of the traffic it is splitting
        around.  A split of a shard onto itself is a configuration error.
        """
        state = self._shard_state()
        if not (0 <= source < len(state.shards)
                and 0 <= target < len(state.shards)):
            raise ConfigurationError(
                f"split {source}->{target} outside "
                f"0..{len(state.shards) - 1}")
        if source == target:
            raise ConfigurationError(
                f"split {source}->{target}: a shard cannot split onto "
                "itself")
        if sync:
            self._sync_map(state)
        points = [i for i, entry in enumerate(state.ring)
                  if entry[1] == source]
        # Every other arc moves; the source keeps the rest.
        moved = sum(self._handoff(state, source, point, target)
                    for point in points[1::2])
        if moved:
            self.proxy_stats["splits"] += 1
        return moved


def shard(contexts: list, factory: Callable[[], object], interface=None,
          shard_key: int | None = 0, vnodes: int = shards.DEFAULT_VNODES,
          ring: list | None = None, ring_epoch: int = 1,
          extra_layers: list[str] | None = None,
          replicate_with: dict | None = None,
          policy: str = "sharded") -> ObjectRef:
    """Deploy a sharded group and return the client-facing reference.

    One instance from ``factory`` is exported (under the plain ``stub``
    policy) in each of ``contexts``; the first context additionally
    exports the group entry (:meth:`ObjectSpace.export_group
    <repro.core.export.ObjectSpace.export_group>`) under the ``sharded``
    policy, whose configuration carries the shard map and ring.  Whoever
    binds the returned reference — in the first context too — receives a
    :class:`ShardedProxy`: zero client change, per the paper.

    A ``contexts`` item that is itself a list deploys that shard as a
    ``replicate(...)`` group over those contexts (``replicate_with``
    supplies the replication kwargs) — sharding for scale, replication
    for durability, composed.  ``extra_layers`` stacks policies in front
    (e.g. ``["resilient"]``); ``policy`` overrides the registered policy
    name (the simtest canary deploys a broken subclass this way).

    Configuration is validated here as well as at proxy construction, so
    a broken deployment fails at deploy: no contexts, a bad ring
    (duplicate points, out-of-range owners), a non-positive epoch or
    vnode count, a negative ``shard_key``, or a ``policy`` or
    ``extra_layers`` name no factory answers to all raise
    :class:`ConfigurationError` — before any shard is exported.
    """
    from ...iface.interface import Interface
    from ..export import get_space
    from .composite import check_group_policy
    from .replicating import replicate
    if not contexts:
        raise ConfigurationError("shard() needs at least one context")
    ring_epoch, ring = _ring_params(len(contexts), ring, vnodes, ring_epoch,
                                    shard_key)
    home = contexts[0] if not isinstance(contexts[0], (list, tuple)) \
        else contexts[0][0]
    check_group_policy(home.system.codebase, policy, extra_layers)
    specs: list[list] = []
    stub_entries: dict = {}    # shard index → its stub export entry
    for index, item in enumerate(contexts):
        if isinstance(item, (list, tuple)):
            ref = replicate(list(item), factory, interface=interface,
                            **dict(replicate_with or {}))
            if interface is None:
                # The factory runs once per member context and no more:
                # the nested group's reference names the interface.
                interface = item[0].system.codebase.interface(ref.interface)
        else:
            obj = factory()
            if interface is None:
                interface = Interface.of(type(obj))
            space = get_space(item)
            ref = space.export(obj, interface=interface, policy="stub")
            stub_entries[index] = space.entry(ref.oid)
        specs.append(list(ref.fields()))
    config: dict = {
        "shards": specs,
        "ring": [list(entry) for entry in ring],
        "ring_epoch": int(ring_epoch),
        "vnodes": int(vnodes),
        "shard_key": None if shard_key is None else int(shard_key),
    }
    group_entry = get_space(home).export_group(
        interface, policy, config, extra_layers, stub_entries.values())
    # Arm every stub shard entry — and the group entry — with its ring
    # state; fencing switches on at the dispatcher the moment an entry
    # carries one.
    for index, entry in stub_entries.items():
        entry.sharding = shards.ShardState(index, ring_epoch, ring, specs)
    group_entry.sharding = shards.ShardState(-1, ring_epoch, ring, specs)
    return group_entry.ref
