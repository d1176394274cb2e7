"""Retry policies: the pluggable engine behind the RPC retransmission loop.

The Birrell–Nelson client retransmits on timeout.  *When* it retransmits is
distribution policy, and per the proxy principle that belongs to the layer
the service controls — so the schedule is a value, not code baked into the
protocol: :class:`RetryPolicy` maps an attempt number to that attempt's
retransmission-timer interval.

Two standard shapes:

* ``RetryPolicy()`` — every attempt waits the same base patience; this is
  the classic 1984 discipline and the protocol-wide default
  (:data:`DEFAULT_RETRY`; it keeps a lightly loaded system maximally
  responsive).
* :meth:`RetryPolicy.exponential` — intervals grow by ``multiplier`` per
  attempt with proportional jitter, the modern discipline that stops a
  lossy or overloaded destination from being hammered in lockstep by every
  client at once.

Either way, a call a server sheds at admission with a retry-after hint
(:mod:`repro.kernel.admission`) waits until exactly the hinted virtual time
before retransmitting instead of running the schedule: the server knows
when it will have capacity.

Jitter is drawn from a **seeded** stream (:mod:`repro.kernel.randomness`),
so a retry schedule is exactly reproducible: same seed, same backoff, same
trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """A retransmission schedule.

    Attributes:
        attempts: total send attempts (first try + retries); ``None`` defers
            to the cost model (``1 + costs.rpc_max_retries``).
        multiplier: growth factor of the interval per attempt (1.0 = fixed).
        jitter: proportional jitter amplitude in [0, 1): each interval is
            scaled by a factor drawn uniformly from ``[1 - jitter,
            1 + jitter]``.  0 disables the draw entirely.
        adaptive: derive the base patience from the link's observed RTT
            (Jacobson RTO via ``system.latency``) instead of the global
            ``costs.rpc_timeout``; a no-op until a
            :class:`~repro.resilience.latency.LatencyTracker` is installed
            and the link is warm.
    """

    attempts: int | None = None
    multiplier: float = 1.0
    jitter: float = 0.0
    adaptive: bool = False

    def __post_init__(self):
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1.0, got {self.multiplier!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter!r}")

    # -- the engine interface (consumed by RpcProtocol.call) -----------------

    def budget(self, costs) -> int:
        """Total attempts for one call under the given cost model."""
        if self.attempts is not None:
            return self.attempts
        return 1 + costs.rpc_max_retries

    def interval(self, attempt: int, patience: float,
                 rng: random.Random | None = None) -> float:
        """Retransmission-timer interval for ``attempt`` (0-based).

        ``patience`` is the base timeout the protocol computed for this call
        (cost-model timeout plus size-scaled transit); the policy shapes it.
        """
        wait = patience * (self.multiplier ** attempt)
        if self.jitter > 0.0 and rng is not None:
            wait *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return wait

    def total_wait(self, patience: float) -> float:
        """Sum of all intervals, jitter-free (the worst-case wall budget)."""
        return sum(self.interval(attempt, patience)
                   for attempt in range(self.attempts or 1))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def exponential(cls, attempts: int = 4, multiplier: float = 2.0,
                    jitter: float = 0.1,
                    adaptive: bool = False) -> "RetryPolicy":
        """Exponential backoff with proportional jitter."""
        return cls(attempts=attempts, multiplier=multiplier, jitter=jitter,
                   adaptive=adaptive)

    @classmethod
    def from_config(cls, config: dict | None) -> "RetryPolicy":
        """Build a policy from a marshallable config dict.

        ``None`` yields the exponential policy, so resilience-aware proxies
        back off out of the box; an explicit dict overrides
        :meth:`exponential`'s arguments.
        """
        if config is None:
            return cls.exponential()
        return cls.exponential(**config)


#: The protocol-wide default: the classic fixed-interval discipline.
DEFAULT_RETRY = RetryPolicy()

