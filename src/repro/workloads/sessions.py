"""Client sessions and the interleaving workload driver.

A :class:`Session` is one client activity: a context, a read function, a
write function, and an operation mix.  :func:`run_interleaved` steps many
sessions round-robin (one operation each per round), which is how concurrent
clients are modelled: their virtual clocks advance independently while
shared server resources (busy lines, caches, the DSM manager) couple them.

The read/write functions abstract over access technique — a proxy method, a
raw stub, or a DSM accessor — so the same driver powers E1, E2, E4, E5, E7
and E9.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..kernel.context import Context
from ..kernel.errors import DistributionError
from ..metrics.latency import LatencyRecorder
from .distributions import payload


@dataclass
class OpMix:
    """What a session does.

    Attributes:
        read_fraction: probability an operation is a read.
        key_sampler: object with ``sample() -> str``.
        value_size: bytes of payload written by each write.
    """

    read_fraction: float
    key_sampler: Any
    value_size: int = 32


class Session:
    """One client activity issuing a stream of reads and writes."""

    def __init__(self, name: str, context: Context,
                 reader: Callable[[str], Any],
                 writer: Callable[[str, str], Any],
                 mix: OpMix, rng: random.Random):
        self.name = name
        self.context = context
        self.reader = reader
        self.writer = writer
        self.mix = mix
        self.rng = rng
        self.latencies = LatencyRecorder(name)
        self.reads = 0
        self.writes = 0
        self.failures = 0
        self._sequence = 0

    def step(self) -> bool:
        """Run one operation; returns whether it succeeded."""
        key = self.mix.key_sampler.sample()
        is_read = self.rng.random() < self.mix.read_fraction
        started = self.context.clock.now
        try:
            if is_read:
                self.reader(key)
                self.reads += 1
            else:
                self._sequence += 1
                value = payload(self.mix.value_size)
                self.writer(key, f"{value}:{self.name}:{self._sequence}")
                self.writes += 1
        except DistributionError:
            self.failures += 1
            self.latencies.record(self.context.clock.now - started)
            return False
        self.latencies.record(self.context.clock.now - started)
        return True


@dataclass
class RunResult:
    """Outcome of one :func:`run_interleaved` drive.

    Attributes:
        sessions: the driven sessions (latencies and counts inside).
        operations: total operations attempted.
        failures: operations that raised a distribution error.
        elapsed: max virtual time advance across the session clocks.
    """

    sessions: list[Session]
    operations: int = 0
    failures: int = 0
    elapsed: float = 0.0

    def all_latencies(self) -> list[float]:
        """Every sample from every session."""
        samples: list[float] = []
        for session in self.sessions:
            samples.extend(session.latencies.samples)
        return samples

    def mean_latency(self) -> float:
        """Mean over all sessions' samples (0 when empty)."""
        samples = self.all_latencies()
        return sum(samples) / len(samples) if samples else 0.0


def run_interleaved(sessions: list[Session],
                    ops_per_session: int) -> RunResult:
    """Drive sessions concurrently for ``ops_per_session`` operations each.

    Scheduling is least-virtual-clock-first (conservative discrete-event
    order): at every step the session whose context clock is furthest
    behind issues its next operation.  This keeps server arrivals in
    near-timestamp order, so shared busy lines model *contention* rather
    than artefacts of the stepping order — important when sessions have
    very different per-operation costs (e.g. one LAN and one WAN client).
    """
    result = RunResult(sessions=list(sessions))
    if not sessions:
        return result
    started = {session.name: session.context.clock.now for session in sessions}
    remaining = {session.name: ops_per_session for session in sessions}
    by_name = {session.name: session for session in sessions}
    while any(count > 0 for count in remaining.values()):
        # Ties break by name, keeping runs deterministic.
        name = min((session.name for session in sessions
                    if remaining[session.name] > 0),
                   key=lambda n: (by_name[n].context.clock.now, n))
        session = by_name[name]
        ok = session.step()
        remaining[name] -= 1
        result.operations += 1
        if not ok:
            result.failures += 1
    result.elapsed = max(session.context.clock.now - started[session.name]
                         for session in sessions)
    return result


def proxy_session(name: str, context: Context, proxy: Any, mix: OpMix,
                  rng: random.Random,
                  read_verb: str = "get", write_verb: str = "put") -> Session:
    """A session whose reads/writes are operations on a proxy (or object)."""
    reader = getattr(proxy, read_verb)
    writer = getattr(proxy, write_verb)
    return Session(name, context, reader, writer, mix, rng)


def dsm_session(name: str, context: Context, dsm_kv: Any, mix: OpMix,
                rng: random.Random) -> Session:
    """A session over a :class:`repro.dsm.heap.DsmKV` (context-explicit API)."""
    return Session(
        name, context,
        reader=lambda key: dsm_kv.get(context, key),
        writer=lambda key, value: dsm_kv.put(context, key, value),
        mix=mix, rng=rng)
