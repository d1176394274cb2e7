"""Open-loop arrival processes: offered load decoupled from completions.

The closed-loop drivers (:func:`~repro.workloads.sessions.run_interleaved`)
can never create a backlog: each client has at most one call outstanding,
so the offered rate sags to whatever the servers sustain and overload is
unobservable.  Worse, measuring latency from the *issue* time of a client
that was itself stuck behind a slow reply hides the stall entirely — the
coordinated-omission trap.

An **open-loop** workload fixes the arrival schedule in advance: requests
arrive at seeded, rate-controlled virtual times whether or not earlier
ones finished, and every latency is measured from the *scheduled* arrival.
A drowning server therefore shows up as it should — per-op latency that
grows with the backlog — instead of as a politely reduced throughput.

:func:`poisson_arrivals` generates a homogeneous Poisson schedule at a
fixed rate from a seeded stream, so a schedule is a pure function of its
seed.

:func:`run_open_loop` drives one or more client *lanes* (pools sharing an
arrival stream and an issue function) through a merged schedule, assigning
each arrival to the lane's least-advanced client — min-clock, like the
closed-loop driver, but paced by the schedule rather than the replies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import log
from typing import Any, Callable

from ..kernel.errors import ConfigurationError, DistributionError, Overloaded


def poisson_arrivals(rate: float, count: int, rng: random.Random,
                     start: float = 0.0) -> list[float]:
    """``count`` Poisson arrival times at ``rate`` per virtual second.

    Exponential inter-arrival gaps drawn from the seeded ``rng`` via
    inverse transform — deterministic given the stream.
    """
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be > 0, got {rate}")
    times = []
    now = start
    for _ in range(count):
        now += -log(1.0 - rng.random()) / rate
        times.append(now)
    return times


def merge_arrivals(streams: dict[str, list[float]]) -> list[tuple[float, str]]:
    """Interleave per-lane schedules into one ``(when, lane)`` timeline.

    Ties break on the lane name so the merged order is deterministic.
    """
    merged = [(when, lane)
              for lane, times in streams.items() for when in times]
    merged.sort()
    return merged


@dataclass
class OpenLoopResult:
    """Per-lane outcome counts and schedule-anchored latencies.

    ``latencies[i]`` is completion time minus *scheduled* arrival time for
    the i-th completed op — client queueing (a busy min-clock client
    issuing late) and server queueing both count, which is the point.
    """

    attempted: int = 0
    completed: int = 0
    shed: int = 0          #: ``Overloaded`` — refused at admission
    failed: int = 0        #: other ``DistributionError`` outcomes
    latencies: list[float] = field(default_factory=list)
    first_arrival: float | None = None
    last_done: float = 0.0

    @property
    def span(self) -> float:
        """Virtual seconds from the first scheduled arrival to the last
        client finishing (however that op ended)."""
        if self.first_arrival is None:
            return 0.0
        return self.last_done - self.first_arrival

    def goodput(self, slo: float | None = None) -> float:
        """Completions per virtual second over the lane's span — counting
        only ops within ``slo`` when one is given (a late answer is not
        *good* throughput, it's a liability that kept a slot busy)."""
        if self.span <= 0:
            return 0.0
        good = self.completed if slo is None else sum(
            1 for latency in self.latencies if latency <= slo)
        return good / self.span


def run_open_loop(lanes: dict[str, tuple[list, Callable[[Any, int], Any]]],
                  arrivals: list[tuple[float, str]],
                  ) -> dict[str, OpenLoopResult]:
    """Drive scheduled arrivals through per-lane client pools.

    ``lanes`` maps a lane name to ``(clients, issue)`` where ``clients``
    is a list of ``(name, context, slot)`` triples (``slot`` is whatever
    ``issue`` needs — typically a bound proxy) and ``issue(slot, index)``
    performs the lane's ``index``-th operation.  ``arrivals`` is the
    merged ``(when, lane)`` timeline (see :func:`merge_arrivals`; a single
    lane just tags every time with its name).

    Each arrival goes to its lane's least-advanced client (ties by name).
    An on-time client waits for the scheduled instant; a *late* client —
    still digesting an earlier reply — issues immediately, and the lost
    time lands in the op's latency, as coordinated-omission correction
    demands.  Outcomes: :class:`~repro.kernel.errors.Overloaded` counts as
    shed, other :class:`~repro.kernel.errors.DistributionError` as failed,
    anything returned as completed.
    """
    results = {lane: OpenLoopResult() for lane in lanes}
    counts = dict.fromkeys(lanes, 0)
    for when, lane in arrivals:
        clients, issue = lanes[lane]
        result = results[lane]
        name, ctx, slot = min(clients, key=lambda c: (c[1].clock.now, c[0]))
        ctx.clock.advance_to(when)
        index = counts[lane]
        counts[lane] += 1
        result.attempted += 1
        if result.first_arrival is None:
            result.first_arrival = when
        try:
            issue(slot, index)
        except Overloaded:
            result.shed += 1
        except DistributionError:
            result.failed += 1
        else:
            result.completed += 1
            result.latencies.append(ctx.clock.now - when)
        if ctx.clock.now > result.last_done:
            result.last_done = ctx.clock.now
    return results
