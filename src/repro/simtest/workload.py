"""Seeded multi-client workloads against policy-proxied services.

This module owns everything between "a :class:`~repro.simtest.runner.
SimCase` exists" and "a :class:`~repro.simtest.history.History` exists":

* **topology** — one or three server nodes (``s0``…) depending on the
  policy, plus N client nodes (``c0``…), one context each;
* **deployment** — the case's service exported under the case's policy,
  one bound proxy per client;
* **fault menus** — the fault kinds each policy's *consistency contract*
  tolerates (see :data:`FAULT_MENUS`);
* **the driver** — a min-clock scheduler: every step runs the client whose
  virtual clock is furthest behind, which makes the Python execution order
  a real-time-respecting linearization witness (if op X completed before
  op Y was invoked in virtual time, X was necessarily driven first);
* **classification** — each outcome lands in the history as ``ok``,
  ``maybe``, or ``fail`` per the rules of :mod:`repro.simtest.history`;
* **the ``dirtycache``, ``underquorum`` and ``splitbrain`` canaries** — a
  caching proxy with the coherence machinery removed, a replica group
  deployed with ``R + W <= N``, and an election-mode group whose proxies
  each crown their own leader *without collecting votes*.  All three are
  deliberately broken and the harness must convict them: if the checker
  ever stops flagging one, the harness — not the library — has the bug.

Fault menus as consistency contracts
------------------------------------

Not every shipped policy is linearizable under arbitrary faults, *by
design*, and the menu documents each contract:

* ``stub`` and ``resilient`` (no replicas, ``stale_reads`` off) forward
  every call and tolerate the full menu — crash, partition, loss burst,
  latency spike.
* ``caching`` tolerates ``(crash, latency)``: its invalidations are
  one-way messages, so a loss burst or partition can silently drop one and
  leave a cache permanently stale (invalidation-mode TTL is ∞) — a
  documented freshness trade, not a bug.
* ``replicated`` runs in versioned quorum mode here (``W=2, R=2`` over
  three replicas, so ``R + W > N``) **with leader election** and
  tolerates the full menu *plus* the ``primary_crash`` and
  ``primary_partition`` kinds aimed squarely at the current primary:
  term-fenced leader-sequenced versions, quorum reads with read-repair,
  and lease-bounded elections keep every exposed value stable and bring
  writes back within the lease TTL + election time (see
  ``repro.core.policies.replicating``).  The driver additionally pumps
  one anti-entropy sweep every :data:`MAINT_EVERY` operations, so
  restarted replicas catch up off the read path.
* ``underquorum`` is the quorum deployment with ``W=1, R=1`` —
  ``R + W <= N``, so a partitioned replica can serve stale reads the
  moment the read rotation lands on it.  It runs the full menu *expecting
  conviction* (the quorum-overlap counterpart of ``dirtycache``).
* ``splitbrain`` is the election deployment with the vote-collection
  step deleted: every client's proxy unilaterally announces its own
  favourite replica as the term-2 leader, so two-plus leaders of the
  *same term* accept writes concurrently.  Under loss or partition their
  logs silently diverge at equal ``(term, version)`` pairs — the exact
  anomaly one-vote-per-term forbids — and the checker must convict it.
* ``composite`` (caching over replicated) deploys its replication layer
  under the unversioned write-all contract — quorum versioning is
  configuration opt-in — so its menu stays the intersection of a coherent
  cache and write-all replication: ``(latency,)``.
* ``sharded`` partitions the service over three shard contexts behind a
  consistent-hash ring and tolerates the full menu: each key lives on
  exactly one shard, so a shard outage fails that key's calls cleanly
  (``maybe``/``fail``) without exposing stale state, and epoch fencing
  turns every mid-rebalance misroute into a redirect.  The driver pumps
  one :meth:`~repro.core.policies.sharding.ShardedProxy.proxy_rebalance`
  sweep every :data:`MAINT_EVERY` operations, so arcs genuinely move
  under traffic.
* ``staleshard`` is the sharded deployment with the ring-maintenance
  loop severed from routing: the proxy snapshots the bootstrap ring on
  first use, routes by that frozen copy forever, and stamps a spoofed
  far-future epoch on every envelope so the fence never corrects it.
  Once the rebalance pump moves an arc, the frozen ring points at the
  *old* owner — whose handoff discarded the moved keys — and reads go
  stale (or writes land where nobody looks).  The checker must convict
  it; it is the ring-epoch counterpart of ``dirtycache``.
* ``admitted`` is the stub deployment with the full admission stack
  installed on its server node (bounded run queue + token bucket) and
  the ``overload`` fault kind added to its menu: burst faults slam
  background jobs into the node, the stack sheds them (and sometimes the
  workload's own calls — an ``Overloaded`` rejection is a clean ``fail``:
  shed calls are definitely never executed), and the grading adds a
  **collapse SLO** (:data:`COLLAPSE_SLO`): no completed operation may
  take longer than the bound, because a bounded queue caps the worst
  admitted wait.
* ``shedless`` is the same deployment with the *unbounded* queue — every
  burst job admits, the backlog is whatever arrives, and the completed
  operations behind a burst wait the whole backlog out.  It runs
  ``overload``-only schedules *expecting conviction* by the collapse
  SLO: the congestion-collapse counterpart of ``dirtycache``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import make_system
from ..core.export import get_space
from ..core.factory import register_policy
from ..core.policies.caching import CachingProxy
from ..core.policies.replicating import ReplicatedProxy, replicate
from ..core.policies.sharding import ShardedProxy, shard
from ..wire import shards
from ..apps.counter import Counter
from ..apps.kv import KVStore
from ..apps.locks import LockService
from ..apps.queue import WorkQueue
from ..failures.schedule import (
    FAULT_KINDS,
    PRIMARY_FAULT_KINDS,
    ChaosSchedule,
)
from ..iface.interface import Interface
from ..kernel.admission import install_admission
from ..kernel.errors import (
    CircuitOpen,
    DistributionError,
    Overloaded,
    ReproError,
)
from ..kernel.network import LinkSpec
from ..rpc.protocol import RemoteError
from ..transactions import VersionedKVStore
from .bank import (
    ACCOUNTS,
    BANK_FACADES,
    BANK_POLICIES,
    INITIAL,
    grade_bank,
    store_index,
)
from .history import History, canonical
from .models import MODELS, Model

#: The shipped policies the battery must prove clean.
SHIPPED_POLICIES = ("stub", "caching", "replicated", "resilient",
                    "composite", "sharded", "admitted", "regional",
                    "txn2pc", "saga")

#: Per-policy fault menus (the consistency contracts — module docstring).
FAULT_MENUS: dict[str, tuple[str, ...]] = {
    "stub": FAULT_KINDS,
    "resilient": FAULT_KINDS,
    "caching": ("crash", "latency"),
    "dirtycache": ("crash", "latency"),
    "replicated": FAULT_KINDS + PRIMARY_FAULT_KINDS,
    "underquorum": FAULT_KINDS,
    "splitbrain": ("partition", "loss"),
    "composite": ("latency",),
    "sharded": FAULT_KINDS,
    "staleshard": FAULT_KINDS,
    "admitted": FAULT_KINDS + ("overload",),
    "shedless": ("overload",),
    "regional": FAULT_KINDS,
    "txn2pc": FAULT_KINDS,
    "saga": FAULT_KINDS,
    "sagaskip": ("partition", "loss"),
}

#: Policies graded by the bank atomicity audit *instead of* the
#: linearizability checker: an honest saga exposes intermediate states by
#: design (debit visible before credit), so a strict atomic-transfer model
#: would convict it — its contract is completes-or-compensates, which is
#: exactly what :func:`repro.simtest.bank.grade_bank` demands.  ``txn2pc``
#: is *not* here: blocking 2PC never exposes a half-applied state (wedged
#: keys refuse reads), so it is held to full linearizability on top of
#: the audit.
AUDIT_ONLY_POLICIES = ("saga", "sagaskip")

#: WAN latency multiplier for the ``regional`` deployment's two regions
#: (modest next to E21's 20× so fault-menu retries stay inside budgets).
_REGION_WAN_FACTOR = 4.0

#: Admission stacks the overload deployments install on their server node.
#: ``admitted`` bounds the run queue at 8 slots (worst admitted wait:
#: 8 × 20 ms = 0.16 s) with a 200/s, burst-16 token bucket in front;
#: ``shedless`` keeps the same per-call service time but an unbounded
#: queue — every burst job admits and the backlog is the fault's size.
_ADMISSION_CONFIGS: dict[str, dict] = {
    "admitted": {"capacity": 8, "service_time": 0.02,
                 "rate": 200.0, "burst": 16.0},
    "shedless": {"capacity": None, "service_time": 0.02},
}

#: Collapse SLO per overload deployment: no *completed* operation may take
#: longer than this (virtual seconds, invoke → complete).  A bounded queue
#: caps the worst admitted wait far under the bound; an unbounded one lets
#: a single burst push completions seconds out — that asymmetry is the
#: conviction.
COLLAPSE_SLO: dict[str, float] = {"admitted": 1.0, "shedless": 1.0}

#: Policies deployed as a three-replica group (everything else: one server).
_REPLICA_POLICIES = ("replicated", "underquorum", "splitbrain", "composite",
                     "regional")

#: Policies deployed as a three-shard consistent-hash group.
_SHARD_POLICIES = ("sharded", "staleshard")

#: Quorum deployments per harness policy label: ``(write_quorum,
#: read_quorum, read_policy)`` over the three replicas.  ``replicated``
#: overlaps (R + W > N: every read intersects every acknowledged write);
#: ``underquorum`` deliberately does not, and rotates its reads so the
#: battery actually lands on a stale copy.  ``splitbrain`` overlaps too —
#: its bug is upstream of the quorum, in the election — and rotates reads
#: so diverged copies actually get exposed.
_QUORUM_CONFIGS = {
    "replicated": (2, 2, "nearest"),
    "underquorum": (1, 1, "roundrobin"),
    "splitbrain": (2, 2, "roundrobin"),
    # R + W > N with the region-aware read order: reads make first contact
    # in-region, the quorum overlap keeps them linearizable anyway.
    "regional": (2, 2, "regional"),
}

#: The driver runs one anti-entropy sweep every this many operations for
#: the election-mode ``replicated`` deployment (never for ``splitbrain`` —
#: background repair would paper over the very divergence the canary must
#: exhibit).
MAINT_EVERY = 8

#: Service rotation for cases that don't pin one (seed-indexed).
SERVICE_CYCLE = ("kv", "counter", "lock", "queue")

_SERVICE_CLASSES = {"kv": KVStore, "counter": Counter, "lock": LockService,
                    "queue": WorkQueue}

#: Keys / lock names the generators draw from (small on purpose: contention
#: is where linearizability violations live).
_KV_KEYS = ("k0", "k1", "k2", "k3")
_LOCK_NAMES = ("l0", "l1")


def _shard_ring() -> list:
    """The ring the shard deployments use: one point per workload key.

    A generated ring would scatter this tiny key set arbitrarily (with 4
    hot keys it usually lands them all on one shard and the rebalance
    sweep moves empty arcs for epochs on end).  Placing a ring point *at*
    each key's hash makes every key the top of its own arc: the keys
    spread round-robin over the three shards, and each maintenance sweep
    (epoch ``e`` moves ring point ``e % len(ring)``) hands off exactly
    one key's data — so the battery genuinely exercises mid-traffic arc
    transfer, fencing, and (for the canary) staleness on every run.
    """
    labels = _KV_KEYS + _LOCK_NAMES + (shards.WHOLE_OBJECT,)
    points = sorted(shards.stable_hash(label) for label in labels)
    return [[point, index % 3] for index, point in enumerate(points)]


@register_policy
class DirtyCachingProxy(CachingProxy):
    """A caching proxy with the coherence machinery *removed*.

    No server-side invalidation control is installed, no callback is
    registered, and entries never expire — so any write by one client
    leaves every other client's cache permanently stale.  This is the
    harness's canary: the linearizability checker must convict it.
    """

    proxy_policy_name = "dirtycache"

    def proxy_install(self) -> None:
        pass    # never register for invalidations

    def _effective_ttl(self) -> float | None:
        return None    # cache forever

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        pass    # no server-side coherence either


@register_policy
class SplitBrainProxy(ReplicatedProxy):
    """An election-mode replicated proxy with the vote step *removed*.

    Before its first operation, each client's proxy unilaterally announces
    a per-client favourite replica as the leader of term 2 — no status
    round, no votes, no candidate sync.  Different clients crown different
    favourites, and because every favourite is still at the bootstrap term
    1, each accepts its own coronation: two-plus leaders of the **same**
    term now assign versions independently.  A lost apply then leaves two
    replicas holding different entries at equal ``(term, version)`` pairs,
    which the idempotent-apply check cannot tell apart — precisely the
    split brain that one-vote-per-term makes impossible in the real
    protocol.  The checker must convict this canary.
    """

    proxy_policy_name = "splitbrain"

    def invoke(self, verb: str, args: tuple, kwargs: dict):
        if not getattr(self, "_usurped", False):
            self._usurped = True
            self._usurp()
        return super().invoke(verb, args, kwargs)

    def _usurp(self) -> None:
        """Crown this client's favourite replica, collecting no votes."""
        replicas = self._resolve_replicas()
        if not replicas:
            return
        digits = [ch for ch in self.proxy_context.context_id
                  if ch.isdigit()]
        favourite = int(digits[0]) % len(replicas) if digits else 0
        try:
            self._control_call(favourite, ("announce", 2, favourite), ())
        except DistributionError:
            pass
        self._term, self._leader = 2, favourite

    def _run_election(self, replicas: list) -> None:
        # The bug, part two: instead of electing, re-assert the favourite.
        try:
            self._control_call(self._leader,
                               ("announce", self._term, self._leader), ())
        except DistributionError:
            pass
        raise DistributionError("splitbrain canary never elects")


@register_policy
class StaleShardProxy(ShardedProxy):
    """A sharded proxy whose routing never learns the ring moved.

    Two overrides sever routing from ring maintenance: the routing state
    is a **frozen copy** of the first map the proxy ever resolves, and
    every envelope is stamped with a far-future epoch so the shard-side
    fence (which only refuses *older* epochs) waves the misroute
    through.  The honest machinery is otherwise untouched — the
    maintenance pump's ``proxy_rebalance`` genuinely moves arcs and the
    live state adopts every new map — so after the first sweep the
    frozen ring names owners whose handoffs already discarded the moved
    keys.  Reads then return the new owner's data *absence* (or writes
    land where no honest reader looks): a linearizability violation
    manufactured purely from stale routing, with no fault injection
    needed.  The checker must convict this canary.
    """

    proxy_policy_name = "staleshard"

    def _routing_state(self, state):
        frozen = getattr(self, "_frozen", None)
        if frozen is None:
            frozen = shards.ShardState(state.index, state.epoch,
                                       state.ring, state.shards)
            self._frozen = frozen
        return frozen

    def _route_epoch(self, route):
        return 10 ** 9    # never fenced: the shard believes we are newer


def topology(policy: str, clients: int) -> tuple[list[str], list[str]]:
    """Node names for a case: ``(server_names, client_names)``.

    Replica/shard groups get three servers; so do the bank deployments
    (``s0`` the facade, ``s1``/``s2`` the two stores — the fault menu
    aims at all three, so partitions genuinely strand a participant).
    """
    multi = _REPLICA_POLICIES + _SHARD_POLICIES + BANK_POLICIES
    servers = 3 if policy in multi else 1
    return ([f"s{i}" for i in range(servers)],
            [f"c{i}" for i in range(clients)])


@dataclass
class Deployment:
    """A built system, ready to drive: one bound proxy per client."""

    system: object
    interface: Interface
    model: Model
    clients: list    # (name, context, proxy) triples, driver order
    maintenance: object = None    # background sweep thunk, or None
    grade: object = None    # post-run invariant hook -> Violation | None


def deploy(case) -> Deployment:
    """Build the case's system and deployment (no faults active yet)."""
    if case.policy not in FAULT_MENUS:
        raise ValueError(f"unknown policy {case.policy!r}")
    if (case.service == "bank") != (case.policy in BANK_POLICIES):
        raise ValueError(
            f"service {case.service!r} does not fit policy {case.policy!r}: "
            f"the bank workload and the bank policies go together")
    system = make_system(seed=case.seed)
    server_names, client_names = topology(case.policy, case.clients)
    server_ctxs = [system.add_node(name).create_context("main")
                   for name in server_names]
    client_ctxs = [system.add_node(name).create_context("main")
                   for name in client_names]
    if case.policy == "regional":
        _regionalise(system, server_ctxs, client_ctxs)
    if case.policy in BANK_POLICIES:
        return _deploy_bank(case, system, server_ctxs, client_ctxs,
                            client_names)
    service_cls = _SERVICE_CLASSES.get(case.service)
    if service_cls is None:
        raise ValueError(f"unknown service {case.service!r}")
    interface = Interface.of(service_cls)
    ref = _export(case.policy, server_ctxs, service_cls, interface,
                  case.service)
    clients = [(name, ctx, get_space(ctx).bind_ref(ref, handshake=True))
               for name, ctx in zip(client_names, client_ctxs)]
    admission = _ADMISSION_CONFIGS.get(case.policy)
    if admission is not None:
        # Install *after* the bind handshakes: deployment traffic is not
        # offered load and must not spend tokens or queue slots.
        install_admission(server_ctxs[0].node, **admission)
    maintenance = None
    if case.policy == "replicated":
        # The first client's proxy doubles as the anti-entropy pump (the
        # sweep costs that client virtual time, which the min-clock driver
        # absorbs deterministically).  splitbrain never sweeps: background
        # repair would heal the divergence the canary must exhibit.
        maintenance = clients[0][2].proxy_anti_entropy
    elif case.policy in _SHARD_POLICIES:
        # Same pump slot, rebalance sweep: arcs move under live traffic.
        # The staleshard canary's pump is the *honest* inherited
        # rebalance — only its routing is frozen — so the ring genuinely
        # changes underneath the frozen copy it routes by.
        maintenance = clients[0][2].proxy_rebalance
    return Deployment(system=system, interface=interface,
                      model=MODELS[case.service](), clients=clients,
                      maintenance=maintenance)


def _regionalise(system, server_ctxs: list, client_ctxs: list) -> None:
    """Split the case's nodes into two regions with WAN links between.

    ``s0``/``s1`` and the even clients are *east* (so the home region
    holds a write quorum by itself); ``s2`` and the odd clients are
    *west* — a west client's region-aware reads stay on ``s2`` while its
    writes pay the WAN to the east primary.
    """
    east = server_ctxs[:2] + client_ctxs[0::2]
    west = server_ctxs[2:] + client_ctxs[1::2]
    for ctx in east:
        ctx.node.region = "east"
    for ctx in west:
        ctx.node.region = "west"
    costs = system.costs
    wan = LinkSpec(latency=costs.remote_latency * _REGION_WAN_FACTOR,
                   byte_cost=costs.byte_cost)
    for ctx_a in east:
        for ctx_b in west:
            system.network.set_link(ctx_a.node.name, ctx_b.node.name, wan)


def _deploy_bank(case, system, server_ctxs: list, client_ctxs: list,
                 client_names: list) -> Deployment:
    """The bank deployment: facade on ``s0``, one store each on ``s1``/``s2``.

    The stores are exported as plain stubs and seeded *before* any client
    traffic (direct object writes: no virtual time, no wire bytes); the
    facade binds store proxies in its own context, so every hop it takes
    on a client's behalf is charged honestly.  The returned deployment
    carries the :func:`~repro.simtest.bank.grade_bank` audit as its
    ``grade`` hook and a fault-guarded ``settle`` pump as maintenance.
    """
    facade_ctx, store_ctxs = server_ctxs[0], server_ctxs[1:]
    store_interface = Interface.of(VersionedKVStore)
    store_refs = []
    for ctx in store_ctxs:
        store = VersionedKVStore()
        store_refs.append(get_space(ctx).export(
            store, interface=store_interface, policy="stub"))
        for account in ACCOUNTS:
            if store_ctxs[store_index(account)] is ctx:
                store.write(account, INITIAL)
    store_proxies = [get_space(facade_ctx).bind_ref(ref, handshake=True)
                     for ref in store_refs]
    facade_cls = BANK_FACADES[case.policy]
    facade = facade_cls(store_proxies)
    interface = Interface.of(facade_cls)
    facade_ref = get_space(facade_ctx).export(facade, interface=interface,
                                              policy="stub")
    clients = [(name, ctx, get_space(ctx).bind_ref(facade_ref,
                                                   handshake=True))
               for name, ctx in zip(client_names, client_ctxs)]

    def pump():
        # The settle pump rides the first client like the anti-entropy
        # sweep; a pump that lands mid-partition must not kill the driver.
        try:
            clients[0][2].invoke("settle", (), {})
        except DistributionError:
            pass

    return Deployment(system=system, interface=interface,
                      model=MODELS["bank"](), clients=clients,
                      maintenance=pump,
                      grade=lambda: grade_bank(facade, clients))


def _export(policy: str, server_ctxs: list, service_cls, interface,
            service: str):
    primary = server_ctxs[0]
    if policy in _SHARD_POLICIES:
        # Keyed services shard per key (argument 0, like the replicated
        # version_key convention); the single-state services shard as one
        # unit — the ring still fences and rebalances, it just moves the
        # whole object's arc set between owners.
        shard_key = 0 if service in ("kv", "lock") else None
        return shard(server_ctxs, service_cls, interface=interface,
                     shard_key=shard_key, ring=_shard_ring(),
                     policy=policy)
    quorum = _QUORUM_CONFIGS.get(policy)
    if quorum is not None:
        write_quorum, read_quorum, read_policy = quorum
        # Keyed services version per key (their model partitions the same
        # way); the single-state services serialise under one object log.
        version_key = "arg0" if service in ("kv", "lock") else "object"
        extra = {}
        if policy == "replicated":
            extra = {"elect": True}
        elif policy == "regional":
            # Fixed primary in the home region; the config carries each
            # replica's region label so the proxy can rank by it.
            extra = {"policy": "regional",
                     "extra_config": {
                         "regions": [ctx.node.region
                                     for ctx in server_ctxs]}}
        elif policy == "splitbrain":
            # A practically-infinite lease keeps the legitimate election
            # machinery quiet; only the canary's vote-free coronations
            # change leadership.
            extra = {"elect": True, "lease_ttl": 1e9,
                     "policy": "splitbrain"}
        return replicate(server_ctxs, service_cls, interface=interface,
                         read_policy=read_policy, write_quorum=write_quorum,
                         read_quorum=read_quorum, version_key=version_key,
                         **extra)
    if policy in _REPLICA_POLICIES:
        extra = ["caching"] if policy == "composite" else None
        return replicate(server_ctxs, service_cls, interface=interface,
                         read_policy="nearest", extra_layers=extra)
    obj = service_cls()
    if policy in ("stub", "admitted", "shedless"):
        # The overload deployments are plain stub exports: the whole
        # admission stack is node-side (installed in deploy()), invisible
        # to the proxy policy — the paper's encapsulation claim on display.
        return get_space(primary).export(obj, interface=interface,
                                         policy="stub")
    if policy == "caching":
        return get_space(primary).export(obj, interface=interface,
                                         policy="caching",
                                         config={"invalidation": True})
    if policy == "dirtycache":
        return get_space(primary).export(obj, interface=interface,
                                         policy="dirtycache", config={})
    if policy == "resilient":
        return get_space(primary).export(
            obj, interface=interface, policy="resilient",
            config={"replicas": [], "stale_reads": False,
                    "retry": {"attempts": 3}})
    raise ValueError(f"unknown policy {policy!r}")


# -- op generation -------------------------------------------------------------


def _kv_op(rng, client: str, index: int) -> tuple[str, tuple]:
    key = _KV_KEYS[rng.randrange(len(_KV_KEYS))]
    r = rng.random()
    if r < 0.40:
        return "get", (key,)
    if r < 0.75:
        return "put", (key, index)    # op index: globally unique values
    if r < 0.85:
        return "delete", (key,)
    return "contains", (key,)


def _counter_op(rng, client: str, index: int) -> tuple[str, tuple]:
    r = rng.random()
    if r < 0.40:
        return "incr", (1 + rng.randrange(3),)
    if r < 0.60:
        return "decr", (1 + rng.randrange(2),)
    if r < 0.90:
        return "read", ()
    return "reset", ()


def _lock_op(rng, client: str, index: int) -> tuple[str, tuple]:
    name = _LOCK_NAMES[rng.randrange(len(_LOCK_NAMES))]
    r = rng.random()
    if r < 0.35:
        return "try_acquire", (name, client)
    if r < 0.60:
        return "release", (name, client)
    if r < 0.85:
        return "holder", (name,)
    if r < 0.95:
        return "enqueue", (name, client)
    return "queue_length", (name,)


def _queue_op(rng, client: str, index: int) -> tuple[str, tuple]:
    r = rng.random()
    if r < 0.40:
        return "submit", (f"task-{index}",)
    if r < 0.70:
        return "take", (client,)
    if r < 0.85:
        return "ack", (1 + rng.randrange(max(2, index + 1)),)
    if r < 0.95:
        return "depth", ()
    return "stats", ()


def _bank_op(rng, client: str, index: int) -> tuple[str, tuple]:
    r = rng.random()
    if r < 0.45:
        src = ACCOUNTS[rng.randrange(len(ACCOUNTS))]
        dst = ACCOUNTS[rng.randrange(len(ACCOUNTS))]
        while dst == src:
            dst = ACCOUNTS[rng.randrange(len(ACCOUNTS))]
        return "transfer", (src, dst, 1 + rng.randrange(3))
    if r < 0.85:
        return "balance", (ACCOUNTS[rng.randrange(len(ACCOUNTS))],)
    return "total", ()


_OPGENS = {"kv": _kv_op, "counter": _counter_op, "lock": _lock_op,
           "queue": _queue_op, "bank": _bank_op}


# -- the driver ----------------------------------------------------------------


def drive(deployment: Deployment, case,
          schedule: ChaosSchedule | None) -> History:
    """Run the case's workload; returns the recorded history.

    Min-clock scheduling: each step drives the client whose virtual clock
    is furthest behind (ties break on client order).  One operation runs
    to completion per step — the simulation applies effects eagerly — so
    the Python execution order is a valid linearization of the history
    whenever the policy under test is actually linearizable.
    """
    history = History()
    rng = deployment.system.seeds.stream("simtest.ops")
    opgen = _OPGENS[case.service]
    if schedule is not None:
        schedule.reset()
    try:
        for index in range(case.ops):
            if schedule is not None:
                schedule.tick(deployment.system)
            if deployment.maintenance is not None and index \
                    and index % MAINT_EVERY == 0:
                deployment.maintenance()
            name, ctx, proxy = min(deployment.clients,
                                   key=lambda c: c[1].clock.now)
            verb, args = opgen(rng, name, index)
            readonly = deployment.interface.operation(verb).readonly
            invoke = ctx.clock.now
            try:
                result = proxy.invoke(verb, tuple(args), {})
            except CircuitOpen as exc:
                # The breaker refused before any transmission: the op
                # definitely did not execute.
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke, complete=ctx.clock.now,
                               status="fail", error=type(exc).__name__)
            except RemoteError as exc:
                # An application exception of a type the protocol cannot
                # reconstruct: the server executed the op.
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke, complete=ctx.clock.now,
                               status="ok",
                               result=f"!{exc.remote_type}")
            except Overloaded as exc:
                # Shed at admission before any execution: unlike a lost
                # reply, the server *said so*, so even a mutator is a
                # definite "fail" — never a "maybe".
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke, complete=ctx.clock.now,
                               status="fail", error=type(exc).__name__)
            except DistributionError as exc:
                # Lost request or lost reply — indistinguishable.  A
                # failed read cannot move state either way; a failed
                # mutator is a "maybe" with an open completion time.
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke,
                               complete=ctx.clock.now if readonly else None,
                               status="fail" if readonly else "maybe",
                               error=type(exc).__name__)
            except ReproError:
                raise    # a harness or kernel bug, not an outcome
            except Exception as exc:
                # A reconstructed application exception (PermissionError
                # and friends): the server executed the op and raised.
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke, complete=ctx.clock.now,
                               status="ok",
                               result=f"!{type(exc).__name__}")
            else:
                history.record(client=name, verb=verb, args=list(args),
                               invoke=invoke, complete=ctx.clock.now,
                               status="ok", result=canonical(result))
    finally:
        if schedule is not None:
            schedule.finish()
    return history
