"""The ``resilient`` policy: backoff, deadlines, breakers, and failover.

This proxy composes the resilience primitives into one client-side
representative — which is the proxy principle's point: the *service* ships
the distribution policy, and the client gets availability engineering it
never wrote.  Per operation the proxy

1. consults the circuit breaker for the destination and **fails fast**
   (:class:`~repro.kernel.errors.CircuitOpen`, one local check's worth of
   virtual time) instead of burning a retry budget against a dead context;
2. calls through with an **exponential-backoff** retry schedule and a
   per-call **deadline** (both from ``proxy_config``), so a struggling
   destination is neither hammered in lockstep nor waited on forever;
3. on failure **fails over reads** to the configured replicas in shipped
   order, skipping the ones an open breaker refuses (each candidate is a
   bound proxy — one hosted by the caller's own context included, which
   is served through its export entry like the rest);
4. optionally **hedges reads**: the primary request is issued as a
   single-attempt promise, and after a per-link p95-ish delay
   (``system.latency``) a backup request races it to the nearest
   breaker-admitted replica — first answer wins, the loser is
   :meth:`~repro.rpc.promises.Promise.discard`-ed, both outcomes land in
   the breaker registry, and if both legs lose the serial walk of step 3
   takes over with the full retry budget;
5. when every candidate is down, **degrades gracefully**: a read is served
   from the proxy's stale-value cache (last successfully read value), and
   any operation can fall back to a user-installed ``proxy_fallback`` hook
   before the error finally propagates.

Configuration (all marshallable, shipped by the exporter, and checked at
bind: a key or value the policy does not admit is a
:class:`~repro.kernel.errors.ConfigurationError`):

* ``retry`` — dict of :meth:`RetryPolicy.exponential`'s arguments
  (default: 4 attempts, multiplier 2.0, jitter 0.1); add
  ``"adaptive": true`` to pace retransmissions by the link's observed RTT
  instead of the global ``costs.rpc_timeout``;
* ``call_budget`` — per-call deadline budget in virtual seconds (optional;
  when omitted and a latency tracker is installed, a default budget is
  derived from the link's RTO once it is warm);
* ``hedge`` — ``true`` hedges read-only operations after the per-link
  delay (default off);
* ``replicas`` — list of :class:`~repro.wire.refs.ObjectRef` read-failover
  candidates (optional), each bound with :meth:`ObjectSpace.proxy_for
  <repro.core.export.ObjectSpace.proxy_for>`;
* ``breaker`` — dict of :class:`~repro.resilience.breaker.BreakerRegistry`
  knobs (``failure_threshold``/``reset_timeout``);
* ``stale_reads`` — serve cached reads when all candidates fail
  (default true).

Deployment helper: :func:`resilient_group` deploys a primary plus read
replicas and returns the client-facing reference, mirroring
:func:`repro.core.policies.replicating.replicate`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.factory import register_policy
from ..core.proxy import Proxy
from ..kernel.errors import (
    CircuitOpen,
    ConfigurationError,
    DistributionError,
    ObjectMoved,
    Overloaded,
)
from ..wire.refs import ObjectRef
from .breaker import ensure_breakers
from .deadline import Deadline
from .latency import ensure_latency
from .retry import RetryPolicy


def _flag(value) -> bool:
    return value.__class__ is bool


def _count(value) -> bool:
    return value.__class__ is int and value >= 1


def _number(value) -> bool:
    return value.__class__ in (int, float)


#: What a shipped configuration may set, each key with the values it
#: admits: the ``retry`` and ``breaker`` dicts' keys, then the scalars.
_RETRY_KEYS = {"attempts": _count,
               "multiplier": lambda value: _number(value) and value >= 1.0,
               "jitter": lambda value: _number(value) and 0 <= value < 1.0,
               "adaptive": _flag}
_BREAKER_KEYS = {"failure_threshold": _count,
                 "reset_timeout": lambda value: _number(value) and value >= 0}
_SCALAR_KEYS = {"call_budget": lambda value: _number(value) and value > 0,
                "hedge": _flag,
                "stale_reads": _flag}


def _check_config(config: dict) -> None:
    """Refuse a shipped value this policy does not admit, with
    :class:`ConfigurationError`: a ``retry`` or ``breaker`` key it does not
    know, or any value its key's check refuses."""
    for key, check in _SCALAR_KEYS.items():
        if key in config and not check(config[key]):
            raise ConfigurationError(
                f"resilient {key!r} admits no {config[key]!r}")
    for name, admits in (("retry", _RETRY_KEYS), ("breaker", _BREAKER_KEYS)):
        shipped = config.get(name, {})
        if shipped.__class__ is not dict:
            raise ConfigurationError(
                f"resilient {name!r} must be a dict, not {shipped!r}")
        for key, value in shipped.items():
            check = admits.get(key)
            if check is None or not check(value):
                raise ConfigurationError(
                    f"resilient {name!r} admits no {key!r} = {value!r}")


@register_policy
class ResilientProxy(Proxy):
    """Breaker-gated, deadline-bounded, backoff-paced forwarding proxy."""

    proxy_policy_name = "resilient"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._replicas: list | None = None
        self._retry: RetryPolicy | None = None
        self._hedge = False
        self._stale: dict = {}
        #: Last-resort hook: ``fallback(verb, args, kwargs) -> value``,
        #: consulted after every candidate and the stale cache failed.
        self.proxy_fallback: Callable | None = None
        self.proxy_stats.update(reads=0, writes=0, fast_fails=0,
                                failovers=0, stale_serves=0, fallbacks=0,
                                hedges=0, hedge_wins=0, overloads=0)

    # -- lifecycle ----------------------------------------------------------

    def proxy_install(self) -> None:
        config = self.proxy_config
        _check_config(config)
        self._retry = RetryPolicy.from_config(config.get("retry"))
        self._hedge = config.get("hedge", False)
        ensure_breakers(self.proxy_context.system, **config.get("breaker", {}))
        if self._retry.adaptive or self._hedge:
            # Both knobs need per-link RTT state; installing the tracker
            # here means every call this system makes from now on feeds it.
            ensure_latency(self.proxy_context.system)

    # -- knobs --------------------------------------------------------------

    @property
    def proxy_retry(self) -> RetryPolicy:
        """The retry schedule this proxy paces calls with."""
        if self._retry is None:
            self.proxy_install()
        return self._retry

    def _breakers(self):
        registry = self.proxy_context.system.breakers
        if registry is None:
            registry = ensure_breakers(self.proxy_context.system,
                                       **self.proxy_config.get("breaker", {}))
        return registry

    def _deadline(self) -> Deadline | None:
        ctx = self.proxy_context
        budget = self.proxy_config.get("call_budget")
        if budget is not None:
            return Deadline.after(ctx.clock.now, float(budget))
        # No explicit budget: derive one from the link's observed RTT once
        # a tracker is installed and the link is warm — the worst-case wall
        # time of the whole retry schedule paced by the Jacobson RTO.
        tracker = ctx.system.latency
        if tracker is None:
            return None
        budget = tracker.budget(ctx.context_id, self.proxy_ref.context_id,
                                self.proxy_retry)
        if budget is None:
            return None
        return Deadline.after(ctx.clock.now, budget)

    def _resolve_replicas(self) -> list:
        """Bound proxies for the read-failover candidates, resolved lazily
        (one hosted by the caller's own context is a candidate like any
        other: breaker-gated, served through its export entry)."""
        if self._replicas is None:
            bind = self.proxy_context.space.proxy_for
            self._replicas = [bind(item) for item
                              in self.proxy_shipped("replicas") or []]
        return self._replicas

    # -- invocation ---------------------------------------------------------

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        op = self.proxy_operation(verb)
        if op.oneway or self.proxy_is_local:
            return self.proxy_remote(verb, args, kwargs)
        readonly = op.readonly
        self.proxy_stats["reads" if readonly else "writes"] += 1
        deadline = self._deadline()
        candidates: list[Proxy] = [self]    # the primary binding first
        if readonly:
            candidates += self._resolve_replicas()
        registry = self._breakers()
        ctx = self.proxy_context
        knobs = self.proxy_config.get("breaker", {})
        if readonly and self._hedge:
            hedged = self._try_hedged(verb, args, kwargs, deadline,
                                      candidates[1:], registry, knobs)
            if hedged is not None:
                self._remember(verb, args, kwargs, hedged[0])
                return hedged[0]
            # Not applicable or both legs lost: the serial walk below is
            # the slow path (and redoes the primary with the full budget).
        last_error: DistributionError | None = None
        admitted = 0
        try:
            for index, candidate in enumerate(candidates):
                if deadline is not None and deadline.expired(ctx.clock.now):
                    break
                # configure(), not between(): the pair's breaker usually
                # predates this proxy (handshake traffic created it with
                # registry defaults), and the policy's knobs must win.
                breaker = registry.configure(
                    ctx.context_id, candidate.proxy_ref.context_id, **knobs)
                if not breaker.allow(ctx.clock.now):
                    # Fast fail: the refusal costs one local check, not a
                    # retry budget — that asymmetry is the breaker's value.
                    ctx.charge(ctx.system.costs.local_call)
                    self.proxy_stats["fast_fails"] += 1
                    continue
                admitted += 1
                if index > 0:
                    self.proxy_stats["failovers"] += 1
                try:
                    if candidate.proxy_next is not None:
                        # Stacked: the next layer paces itself.
                        result = candidate.proxy_remote(verb, args, kwargs)
                    else:
                        result = candidate.proxy_remote(
                            verb, args, kwargs, retry=self.proxy_retry,
                            deadline=deadline)
                except DistributionError as exc:
                    if isinstance(exc, Overloaded):
                        # The destination shed the call at admission; the shed
                        # is definitely-not-executed, so failover is safe even
                        # for writes — but count it so operators can tell
                        # "server said no" apart from "server went away".
                        self.proxy_stats["overloads"] += 1
                    last_error = exc
                    continue
                if readonly:
                    self._remember(verb, args, kwargs, result)
                return result
            return self._degrade(verb, args, kwargs, readonly,
                                 last_error, admitted)
        finally:
            # A kept exception's traceback holds this frame, and the frame
            # the exception: drop it on every exit, or the cycle pins the
            # proxy and its whole system.
            last_error = None

    # -- hedged reads --------------------------------------------------------

    def _try_hedged(self, verb: str, args: tuple, kwargs: dict,
                    deadline: Deadline | None, replicas: list,
                    registry, knobs: dict):
        """Race the primary against one delayed backup replica.

        Each leg is a **single attempt**: hedging spreads redundancy across
        replicas instead of across time, so a lost request is covered by the
        other leg rather than by its own retransmissions (gRPC draws the
        same line — a call hedges or retries, never both).  The discipline
        also keeps the promise model honest: a multi-attempt leg abandoned
        by the race would still have walked the simulated server's queue
        through its whole retry schedule, and the queueing delay it left
        behind would poison every later RTT sample on the link.

        Returns ``(value,)`` when either leg won.  Returns ``None`` when
        hedging is not applicable right now — no breaker-admitted remote
        replica, primary breaker open, no deadline room for the backup —
        *or* when both single-shot legs lost; either way the caller falls
        through to the serial failover walk, which retries with the full
        budget on a consistent timeline.
        """
        from ..rpc.promises import call_async
        ctx = self.proxy_context
        now = ctx.clock.now
        backup = self._hedge_candidate(replicas, registry, knobs, now)
        if backup is None:
            return None
        primary_breaker = registry.configure(ctx.context_id,
                                             self.proxy_ref.context_id,
                                             **knobs)
        if not primary_breaker.would_allow(now):
            return None
        delay = self._hedge_delay()
        fire_at = now + delay
        if deadline is not None and deadline.expired(fire_at):
            return None
        leg_retry = RetryPolicy(attempts=1,
                                adaptive=self.proxy_retry.adaptive)
        primary_breaker.allow(now)
        primary = call_async(self, verb, *args, retry=leg_retry,
                             deadline=deadline, **kwargs)
        if primary.succeeded and primary.ready_at <= fire_at:
            return (primary.wait(),)    # answered inside the hedge window
        # The primary is late (or already known lost): launch the backup.
        # Both legs' outcomes reach the breaker registry through the
        # protocol's feed, so a hedged loss still counts against its link.
        self.proxy_stats["hedges"] += 1
        registry.configure(ctx.context_id, backup.proxy_ref.context_id,
                           **knobs).allow(fire_at)
        ctx.clock.advance_to(fire_at)
        contender = call_async(backup, verb, *args, retry=leg_retry,
                               deadline=deadline, **kwargs)
        moved = primary.error
        if isinstance(moved, ObjectMoved) and moved.forward is not None:
            # Keep migration transparency: the next call dials the new home
            # instead of paying a doomed primary leg every time.
            self.proxy_rebind(moved.forward)
        racers = [p for p in (primary, contender) if p.succeeded]
        if not racers:
            primary.discard()
            contender.discard()
            return None
        winner = min(racers, key=lambda promise: promise.ready_at)
        if winner is contender:
            self.proxy_stats["hedge_wins"] += 1
        for promise in (primary, contender):
            if promise is not winner:
                promise.discard()
        return (winner.wait(),)

    def _hedge_candidate(self, replicas: list, registry, knobs: dict,
                         now: float):
        """The nearest breaker-admitted replica, or ``None``.

        Survey uses :meth:`CircuitBreaker.would_allow` so ranking consumes
        no half-open probes; the chosen backup's probe is consumed by the
        caller when it actually dials.
        """
        ctx = self.proxy_context
        network = ctx.system.network
        best = None
        best_distance = None
        for candidate in replicas:
            target_id = candidate.proxy_ref.context_id
            if target_id == self.proxy_ref.context_id:
                continue    # a backup to the same context hedges nothing
            breaker = registry.configure(ctx.context_id, target_id, **knobs)
            if not breaker.would_allow(now):
                continue
            distance = network.transit_time(
                ctx.node.name, candidate.proxy_ref.node_name, 0)
            if best_distance is None or distance < best_distance:
                best, best_distance = candidate, distance
        return best

    def _hedge_delay(self) -> float:
        """The backup-launch delay: per-link p95-ish, or half the global
        ``rpc_timeout`` while the link is cold."""
        ctx = self.proxy_context
        fallback = ctx.system.costs.rpc_timeout / 2.0
        tracker = ctx.system.latency
        if tracker is None:
            return fallback
        return tracker.hedge_delay(ctx.context_id, self.proxy_ref.context_id,
                                   fallback)

    def _degrade(self, verb: str, args: tuple, kwargs: dict, readonly: bool,
                 last_error: DistributionError | None, admitted: int) -> Any:
        """Every candidate failed or was refused: serve stale, fall back,
        or finally raise."""
        if readonly and self.proxy_config.get("stale_reads", True):
            key = self._cache_key(verb, args, kwargs)
            if key is not None and key in self._stale:
                self.proxy_stats["stale_serves"] += 1
                return self._stale[key]
        if self.proxy_fallback is not None:
            self.proxy_stats["fallbacks"] += 1
            return self.proxy_fallback(verb, args, kwargs)
        if last_error is not None:
            try:
                raise last_error
            finally:
                last_error = None   # see invoke
        if admitted == 0:
            raise CircuitOpen(
                f"{verb!r} on {self.proxy_ref}: every candidate refused "
                "by an open breaker")
        raise CircuitOpen(f"{verb!r} on {self.proxy_ref}: no candidate answered")

    def _remember(self, verb: str, args: tuple, kwargs: dict,
                  value: Any) -> None:
        key = self._cache_key(verb, args, kwargs)
        if key is not None:
            self._stale[key] = value

    @staticmethod
    def _cache_key(verb: str, args: tuple, kwargs: dict):
        try:
            key = (verb, args, tuple(sorted(kwargs.items())))
            hash(key)
        except TypeError:
            return None  # unhashable arguments: this read is uncacheable
        return key


def resilient_group(contexts: list, factory: Callable[[], object],
                    interface=None, retry: dict | None = None,
                    call_budget: float | None = None,
                    breaker: dict | None = None,
                    stale_reads: bool = True,
                    hedge: bool = False) -> ObjectRef:
    """Deploy a primary plus read replicas under the ``resilient`` policy.

    One instance from ``factory`` runs in each of ``contexts``; the first is
    the primary (all writes land there), the rest are read-failover
    candidates.  Replicas receive no writes after deployment — reads served
    from them (or from the proxy's stale cache) may lag the primary, which
    is the availability-over-freshness trade the policy makes explicit.

    Returns the client-facing reference; clients that bind it receive a
    :class:`ResilientProxy`.
    """
    from ..core.export import get_space
    from ..iface.interface import Interface
    if not contexts:
        raise ValueError("resilient_group() needs at least one context")
    # Checked as a bind checks it, before any export; ``replicas`` stays the
    # first key and is filled after.
    replica_refs: list = []
    config: dict = {"replicas": replica_refs, "stale_reads": stale_reads}
    if retry is not None:
        config["retry"] = retry
    if call_budget is not None:
        config["call_budget"] = call_budget
    if breaker is not None:
        config["breaker"] = breaker
    if hedge is not False:
        config["hedge"] = hedge
    _check_config(config)
    primary = factory()
    if interface is None:
        interface = Interface.of(type(primary))
    replica_refs.extend(get_space(ctx).export(factory(), interface=interface,
                                              policy="stub")
                        for ctx in contexts[1:])
    return get_space(contexts[0]).export(primary, interface=interface,
                                         policy="resilient", config=config)
