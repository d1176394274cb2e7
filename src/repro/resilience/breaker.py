"""Circuit breakers: fail fast instead of burning retry budgets.

Once a destination has eaten a few full retry budgets, the *next* call is
overwhelmingly likely to eat one too — and a client that keeps trying turns
one slow failure into many.  The breaker is the standard cure (Nygard's
pattern, Finagle/gRPC practice), and per the proxy principle it lives on the
client side, inside the proxy, as part of the distribution policy the
service shipped.

State machine (per caller-context → target-context pair):

* **CLOSED** — calls flow; consecutive failures are counted, successes
  reset the count; at ``failure_threshold`` the breaker trips to OPEN.
* **OPEN** — calls are refused locally (:class:`~repro.kernel.errors.
  CircuitOpen` costs a local check, not a retry budget) until
  ``reset_timeout`` virtual seconds have passed.
* **HALF_OPEN** — after the cooldown, one trial call (the probe) is let
  through; a success closes the breaker, a failure reopens it (and
  restarts the cooldown).

The :class:`BreakerRegistry` hangs off the :class:`~repro.kernel.system.
System` (``system.breakers``); once installed, the RPC protocol feeds every
call outcome into it, so *all* traffic — not just the resilient proxy's —
keeps the failure picture fresh.  Transitions are recorded as ``"breaker"``
trace events and metrics counters, and the registry exchanges suspicion
with the heartbeat :class:`~repro.failures.detector.FailureDetector`
(``trip_target`` / ``open_toward``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive failures that trip a CLOSED breaker.
DEFAULT_FAILURE_THRESHOLD = 5
#: Virtual seconds an OPEN breaker waits before probing again.
DEFAULT_RESET_TIMEOUT = 0.25


@dataclass
class CircuitBreaker:
    """Failure-rate gate for one caller→target context pair.

    Attributes:
        caller: calling context id (bookkeeping / trace only).
        target: destination context id.
        failure_threshold: consecutive failures that trip the breaker.
        reset_timeout: cooldown before an OPEN breaker admits a probe.
        on_transition: callback ``(breaker, old_state, new_state, now)``.
    """

    caller: str = ""
    target: str = ""
    failure_threshold: int = DEFAULT_FAILURE_THRESHOLD
    reset_timeout: float = DEFAULT_RESET_TIMEOUT
    on_transition: Callable | None = None
    _state: str = field(default=CLOSED, repr=False)
    _failures: int = field(default=0, repr=False)
    _opened_at: float = field(default=0.0, repr=False)
    _probing: bool = field(default=False, repr=False)
    stats: dict = field(default_factory=lambda: {
        "successes": 0, "failures": 0, "fast_fails": 0,
        "trips": 0, "resets": 0})

    # -- queries -----------------------------------------------------------

    def state(self, now: float) -> str:
        """Current state at virtual time ``now`` (cooldown-aware)."""
        if self._state == OPEN and now - self._opened_at >= self.reset_timeout:
            return HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (while CLOSED)."""
        return self._failures

    def would_allow(self, now: float) -> bool:
        """Whether :meth:`allow` would admit a call at ``now``, without
        consuming a half-open probe or counting a fast fail.

        Candidate-ranking code (e.g. the hedging proxy picking the nearest
        healthy replica) uses this to survey breakers non-destructively,
        then calls :meth:`allow` on the one it actually dials.
        """
        state = self.state(now)
        if state == CLOSED:
            return True
        if state == HALF_OPEN:
            return self._state == OPEN or not self._probing
        return False

    # -- the gate ----------------------------------------------------------

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now``.

        An OPEN breaker whose cooldown has elapsed transitions to HALF_OPEN
        here and admits one probe; refused calls are counted as
        ``fast_fails``.
        """
        state = self.state(now)
        if state == CLOSED:
            return True
        if state == HALF_OPEN:
            if self._state == OPEN:  # cooldown just elapsed: transition now
                self._transition(HALF_OPEN, now)
                self._probing = False
            if not self._probing:
                self._probing = True
                return True
        self.stats["fast_fails"] += 1
        return False

    # -- outcome feed ------------------------------------------------------

    def record_success(self, now: float) -> None:
        """One call to the target succeeded."""
        self.stats["successes"] += 1
        self._failures = 0
        if self._state == HALF_OPEN:
            self.stats["resets"] += 1
            self._probing = False
            self._transition(CLOSED, now)

    def record_failure(self, now: float) -> None:
        """One call to the target failed (timeout / deadline / transport)."""
        self.stats["failures"] += 1
        if self._state == HALF_OPEN:
            self._probing = False
            self._trip(now)
        elif self._state == CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip(now)
        else:  # OPEN: a straggling in-flight failure restarts the cooldown
            self._opened_at = now

    def trip(self, now: float) -> None:
        """Force-open (e.g. the failure detector suspects the target)."""
        if self._state != OPEN:
            self._trip(now)
        else:
            self._opened_at = now

    def reset(self, now: float) -> None:
        """Force-close (e.g. the detector saw the target recover)."""
        self._failures = 0
        self._probing = False
        if self._state != CLOSED:
            self.stats["resets"] += 1
            self._transition(CLOSED, now)

    # -- internals ---------------------------------------------------------

    def _trip(self, now: float) -> None:
        self.stats["trips"] += 1
        self._opened_at = now
        self._transition(OPEN, now)

    def _transition(self, new_state: str, now: float) -> None:
        old_state, self._state = self._state, new_state
        if old_state != new_state and self.on_transition is not None:
            self.on_transition(self, old_state, new_state, now)

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.caller!r}->{self.target!r}, "
                f"{self._state}, failures={self._failures})")


class BreakerRegistry:
    """All breakers of one system, keyed (caller context, target context).

    Installed on ``system.breakers`` by :func:`ensure_breakers`; from then
    on the RPC protocol feeds call outcomes in, and resilience-aware
    proxies consult :meth:`between` before spending a retry budget.
    Transitions land in the system trace (kind ``"breaker"``) and in
    :attr:`counters`.
    """

    def __init__(self, system, failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 reset_timeout: float = DEFAULT_RESET_TIMEOUT):
        self.system = system
        self.defaults = {"failure_threshold": failure_threshold,
                         "reset_timeout": reset_timeout}
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        # Imported here, not at module top: this module loads while the
        # repro package is still initialising (via rpc.dispatcher), before
        # repro.metrics can be.  Registries are only built at runtime.
        from ..metrics.counters import CounterSet
        self.counters = CounterSet()
        # Bound to the trace and counters, not to the registry: a breaker
        # holding the registry would make every registry a cycle.
        self._on_transition = partial(_record_transition, system.trace,
                                      self.counters)

    # -- lookup ------------------------------------------------------------

    def between(self, caller_id: str, target_id: str) -> CircuitBreaker:
        """The breaker for one caller→target pair (created on first use,
        with the registry defaults; see :meth:`configure`)."""
        key = (caller_id, target_id)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(caller=caller_id, target=target_id,
                                     on_transition=self._on_transition,
                                     **self.defaults)
            self._breakers[key] = breaker
        return breaker

    def configure(self, caller_id: str, target_id: str,
                  **params) -> CircuitBreaker:
        """:meth:`between`, but applying ``params`` even to an existing
        breaker.

        A policy's shipped knobs must beat the registry defaults, and the
        breaker for a pair often exists before the policy first consults it
        (any earlier RPC outcome on the pair — handshakes, name-service
        lookups — creates it with defaults).  Only the knobs the registry
        has defaults for may be set: a breaker's state and identity are not
        configuration.
        """
        breaker = self.between(caller_id, target_id)
        for name, value in params.items():
            if name not in self.defaults:
                raise TypeError(f"CircuitBreaker has no knob {name!r}")
            setattr(breaker, name, value)
        return breaker

    def snapshot(self, now: float) -> dict[tuple[str, str], str]:
        """State of every breaker at ``now``."""
        return {key: breaker.state(now)
                for key, breaker in self._breakers.items()}

    # -- outcome feed (called by RpcProtocol) ------------------------------

    def record_success(self, caller_id: str, target_id: str,
                       now: float) -> None:
        """Feed one successful call outcome."""
        self.counters.incr("rpc.successes")
        self.between(caller_id, target_id).record_success(now)

    def record_failure(self, caller_id: str, target_id: str,
                       now: float) -> None:
        """Feed one failed call outcome (timeout / deadline)."""
        self.counters.incr("rpc.failures")
        self.between(caller_id, target_id).record_failure(now)

    # -- failure-detector exchange -----------------------------------------

    def open_toward(self, target_id: str, now: float) -> list[str]:
        """Caller contexts whose breaker to ``target_id`` is currently open."""
        return sorted(caller for (caller, target), breaker
                      in self._breakers.items()
                      if target == target_id and breaker.state(now) == OPEN)

    def trip_target(self, target_id: str, now: float) -> int:
        """Force-open every breaker toward a suspected target context.

        Called by the failure detector when suspicion starts; returns how
        many breakers were affected.
        """
        tripped = 0
        for (_, target), breaker in self._breakers.items():
            if target == target_id:
                breaker.trip(now)
                tripped += 1
        return tripped

    def reset_target(self, target_id: str, now: float) -> int:
        """Force-close every breaker toward a recovered target context."""
        reset = 0
        for (_, target), breaker in self._breakers.items():
            if target == target_id:
                breaker.reset(now)
                reset += 1
        return reset

    def __len__(self) -> int:
        return len(self._breakers)

    def __repr__(self) -> str:
        return f"BreakerRegistry({len(self._breakers)} breakers)"


def _record_transition(trace, counters, breaker: CircuitBreaker,
                       old_state: str, new_state: str, now: float) -> None:
    """A registry's transition callback: one trace event, two counts."""
    trace.emit(now, "breaker", breaker.caller, breaker.target,
               f"{old_state}->{new_state}")
    counters.incr("breaker.transitions")
    counters.incr(f"breaker.{new_state}")


def ensure_breakers(system, **defaults) -> BreakerRegistry:
    """Get or install the system's breaker registry.

    ``defaults`` apply only when the registry is created here; an existing
    registry keeps its configuration.
    """
    registry = system.breakers
    if registry is None:
        registry = BreakerRegistry(system, **defaults)
        system.breakers = registry
    return registry
