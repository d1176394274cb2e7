"""Seeded chaos schedules: composed, replayable fault timelines.

A :class:`ChaosSchedule` is a list of :class:`Fault` intervals on an
*operation-tick* timeline (the workload driver calls :meth:`ChaosSchedule.
tick` once per operation).  Each fault kind maps onto one of the
begin/restore injector primitives of :mod:`repro.failures.injectors`:

=================== ==========================================================
``crash``             one node down for the fault's duration (crash + restart)
``partition``         the victim node isolated from everyone else
``loss``              uniform message loss on every link (a loss burst)
``latency``           all inter-node propagation latency scaled by a factor
``primary_crash``     ``crash`` aimed at the first victim (a replica group's
                      bootstrap primary) instead of a sampled one
``primary_partition`` ``partition`` aimed the same way
``overload``          a burst of ``factor`` background jobs slammed into the
                      victim node's admission control at one virtual instant
=================== ==========================================================

The ``primary_*`` kinds exist because a random victim pick usually spares
the one node whose loss actually matters to a leader-based policy; menus
that include them (``replicated`` under election) are guaranteed schedules
that hit the primary.

Schedules are **data**: :meth:`to_json`/:meth:`from_json` round-trip them
losslessly, which is what makes a failing simulation seed minimizable (drop
faults, re-run) and checkable into a regression corpus to be replayed
verbatim forever.

Generation is seeded (:meth:`ChaosSchedule.generate`): the same ``rng``
state yields the same schedule, and same-kind faults are pruned to be
non-overlapping so begin/restore pairs never fight over saved state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..kernel.system import System
from .injectors import (
    begin_crash,
    begin_latency_spike,
    begin_message_loss,
    begin_overload,
    begin_partition,
)

#: Every basic fault kind a schedule may carry, in canonical order.
#: ``overload`` is deliberately *not* here: it only makes sense against a
#: deployment with (or deliberately without) admission control, so the
#: menus that want it opt in explicitly (see ``repro.simtest.workload``).
FAULT_KINDS = ("crash", "partition", "loss", "latency")

#: Primary-targeted variants: same injectors, victim pinned to the first
#: victim name (the replica group's bootstrap primary, node ``s0``).
PRIMARY_FAULT_KINDS = ("primary_crash", "primary_partition")


@dataclass(frozen=True)
class Fault:
    """One fault interval on the operation-tick timeline.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        start: tick index at which the fault begins.
        duration: tick count after which it is undone (>= 1).
        node: victim node name (``crash``, ``partition`` and ``overload``
            kinds).
        probability: loss probability (``loss`` kind).
        factor: latency multiplier (``latency`` kind) or burst job count
            (``overload`` kind).
    """

    kind: str
    start: int
    duration: int
    node: str = ""
    probability: float = 0.0
    factor: float = 1.0

    @property
    def end(self) -> int:
        """First tick at which the fault is no longer active."""
        return self.start + max(1, self.duration)

    def to_json(self) -> dict:
        """Marshal to a plain dict (stable keys, JSON-safe values)."""
        out = {"kind": self.kind, "start": self.start,
               "duration": self.duration}
        if self.node:
            out["node"] = self.node
        if self.kind == "loss":
            out["probability"] = self.probability
        if self.kind in ("latency", "overload"):
            out["factor"] = self.factor
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Fault":
        """Rebuild a fault from :meth:`to_json` output."""
        return cls(kind=data["kind"], start=int(data["start"]),
                   duration=int(data["duration"]),
                   node=data.get("node", ""),
                   probability=float(data.get("probability", 0.0)),
                   factor=float(data.get("factor", 1.0)))


@dataclass
class ChaosSchedule:
    """A replayable timeline of faults, driven by an operation counter."""

    faults: tuple[Fault, ...] = ()
    node_names: tuple[str, ...] = ()
    _ticks: int = 0
    _active: dict[int, Callable[[], None]] = field(default_factory=dict)

    def reset(self) -> None:
        """Forget runtime state so the schedule can drive a fresh run."""
        self._ticks = 0
        self._active = {}

    def tick(self, system: System) -> None:
        """Advance one operation: end due faults, then begin new ones."""
        index = self._ticks
        self._ticks += 1
        for fid, fault in enumerate(self.faults):
            if fault.end == index and fid in self._active:
                self._active.pop(fid)()
        for fid, fault in enumerate(self.faults):
            if fault.start == index and fid not in self._active:
                self._active[fid] = self._begin(system, fault)

    def finish(self) -> None:
        """Undo every still-active fault (end of the driven workload)."""
        for fid in sorted(self._active):
            self._active.pop(fid)()

    def _begin(self, system: System, fault: Fault) -> Callable[[], None]:
        if fault.kind in ("crash", "primary_crash"):
            return begin_crash(system, fault.node)
        if fault.kind in ("partition", "primary_partition"):
            rest = {name for name in self.node_names if name != fault.node}
            return begin_partition(system, [{fault.node}, rest])
        if fault.kind == "loss":
            return begin_message_loss(system, fault.probability)
        if fault.kind == "latency":
            return begin_latency_spike(system, fault.factor)
        if fault.kind == "overload":
            return begin_overload(system, fault.node, int(fault.factor))
        raise ValueError(f"unknown fault kind {fault.kind!r}")

    # -- construction --------------------------------------------------------

    @classmethod
    def generate(cls, rng: random.Random, total_ops: int,
                 victims: list[str], all_nodes: list[str],
                 kinds: tuple[str, ...] = FAULT_KINDS,
                 max_faults: int = 3) -> "ChaosSchedule":
        """Sample a schedule: up to ``max_faults`` non-overlapping faults.

        ``victims`` are the nodes that may be crashed or partitioned away
        (the workload's server side); ``all_nodes`` is the full topology
        (needed to build partition islands).  ``kinds`` is the fault menu —
        callers restrict it to the kinds a policy's consistency contract
        tolerates (see :mod:`repro.simtest.workload`).
        """
        faults: list[Fault] = []
        if not kinds or total_ops < 4:
            return cls(faults=(), node_names=tuple(all_nodes))
        for _ in range(rng.randrange(max_faults + 1)):
            kind = kinds[rng.randrange(len(kinds))]
            start = rng.randrange(1, max(2, total_ops - 2))
            duration = rng.randrange(2, max(3, total_ops // 3))
            fault = None
            if kind in ("crash", "partition"):
                if victims:
                    node = victims[rng.randrange(len(victims))]
                    fault = Fault(kind, start, duration, node=node)
            elif kind in PRIMARY_FAULT_KINDS:
                if victims:
                    # Deterministically aim at the bootstrap primary.
                    fault = Fault(kind, start, duration, node=victims[0])
            elif kind == "overload":
                if victims:
                    node = victims[rng.randrange(len(victims))]
                    # 80–200 burst jobs: far beyond any sane run queue, so
                    # an unprotected node drowns and a protected one sheds.
                    factor = float(80 + 40 * rng.randrange(4))
                    fault = Fault(kind, start, duration, node=node,
                                  factor=factor)
            elif kind == "loss":
                probability = round(0.05 + 0.25 * rng.random(), 3)
                fault = Fault(kind, start, duration, probability=probability)
            elif kind == "latency":
                factor = round(2.0 + 8.0 * rng.random(), 2)
                fault = Fault(kind, start, duration, factor=factor)
            if fault is not None:
                faults.append(fault)
        return cls(faults=_prune_overlaps(faults),
                   node_names=tuple(all_nodes))

    @classmethod
    def periodic(cls, node_names: list[str], every: int, duration: int,
                 total_ops: int) -> "ChaosSchedule":
        """Crash the given nodes round-robin every ``every`` operations,
        each for ``duration`` operations (the first crash at tick
        ``every``)."""
        starts = range(every, total_ops, every)
        return cls(faults=tuple(
            Fault("crash", start, duration,
                  node=node_names[victim % len(node_names)])
            for victim, start in enumerate(starts)))

    # -- marshalling ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        """The fault list as plain dicts (topology travels separately)."""
        return [fault.to_json() for fault in self.faults]

    @classmethod
    def from_json(cls, data: list[dict],
                  node_names: tuple[str, ...] = ()) -> "ChaosSchedule":
        """Rebuild a schedule from :meth:`to_json` output."""
        return cls(faults=tuple(Fault.from_json(item) for item in data),
                   node_names=tuple(node_names))


def _prune_overlaps(faults: list[Fault]) -> tuple[Fault, ...]:
    """Drop faults that overlap an earlier same-kind (and same-node) one.

    Keeps begin/restore pairs trivially correct: at most one loss burst, one
    latency spike, one partition, and one outage per node are active at any
    tick.  Partitions additionally never overlap each other regardless of
    victim (two concurrent two-island splits would not compose).  The
    ``primary_*`` kinds share their base kind's class — a ``primary_crash``
    and a ``crash`` of the same node never overlap, nor do any two
    partition-class faults.
    """
    kept: list[Fault] = []
    busy_until: dict[tuple[str, str], int] = {}
    for fault in sorted(faults, key=lambda f: (f.start, f.kind, f.node)):
        kind_class = "crash" if fault.kind in ("crash", "primary_crash") \
            else "partition" if fault.kind in ("partition",
                                               "primary_partition") \
            else fault.kind
        key = (kind_class, fault.node if kind_class == "crash" else "")
        if busy_until.get(key, -1) > fault.start:
            continue
        kept.append(fault)
        busy_until[key] = fault.end
    return tuple(kept)
