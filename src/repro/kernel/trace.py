"""Message and event tracing.

Every message the simulated system carries is recorded as a
:class:`TraceEvent`.  Integration tests assert on trace *shapes* (who talked
to whom, in what order, with how many messages) — this is how the paper's
architecture figures are reproduced executably — and
:class:`TraceSummary` aggregates the same events into counts and byte
totals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One traced occurrence.

    A named tuple rather than a (frozen) dataclass: one is built per traced
    message, and tuple construction skips the per-field ``__setattr__`` walk
    frozen dataclasses pay.

    Attributes:
        time: virtual time of the event.
        kind: event class, e.g. ``"send"``, ``"recv"``, ``"drop"``,
            ``"invoke"``, ``"migrate"``, ``"fault"``.
        src: source context id (or ``""`` for node-level events).
        dst: destination context id.
        label: free-form discriminator (operation name, protocol verb…).
        size: payload size in bytes, when meaningful.
    """

    time: float
    kind: str
    src: str
    dst: str
    label: str = ""
    size: int = 0


class Trace:
    """An append-only event log with simple query helpers."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._marks: list[int] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event."""
        self.events.append(event)

    def emit(self, time: float, kind: str, src: str, dst: str,
             label: str = "", size: int = 0) -> None:
        """Build and record a :class:`TraceEvent`: once per message.

        The event is built in C (``tuple.__new__``, all six fields): the
        generated constructor's arity check and defaults are settled by
        this signature.
        """
        self.events.append(tuple.__new__(
            TraceEvent, (time, kind, src, dst, label, size)))

    # -- querying ----------------------------------------------------------

    def select(self, kind: str | None = None, src: str | None = None,
               dst: str | None = None,
               predicate: Callable[[TraceEvent], bool] | None = None,
               ) -> list[TraceEvent]:
        """Return events matching all the given filters."""
        out = []
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if src is not None and ev.src != src:
                continue
            if dst is not None and ev.dst != dst:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: str | None = None, **kwargs) -> int:
        """Number of events matching the filters of :meth:`select`."""
        return len(self.select(kind=kind, **kwargs))

    def bytes_sent(self) -> int:
        """Total payload bytes across all ``send`` events."""
        return sum(ev.size for ev in self.events if ev.kind == "send")

    def messages_between(self, a: str, b: str) -> int:
        """Count of messages exchanged in either direction between contexts."""
        return sum(1 for ev in self.events
                   if ev.kind == "send" and {ev.src, ev.dst} == {a, b})

    # -- marks (scoped counting for experiments) ---------------------------

    def mark(self) -> int:
        """Remember the current position; pair with :meth:`since`."""
        pos = len(self.events)
        self._marks.append(pos)
        return pos

    def since(self, mark: int | None = None) -> list[TraceEvent]:
        """Events recorded after ``mark`` (or after the latest :meth:`mark`)."""
        if mark is None:
            mark = self._marks.pop() if self._marks else 0
        return self.events[mark:]

    def clear(self) -> None:
        """Drop all recorded events and marks."""
        self.events.clear()
        self._marks.clear()

    # -- determinism audit --------------------------------------------------

    def fingerprint(self) -> str:
        """A stable digest of the entire event log.

        Two runs of the same seeded scenario must produce byte-identical
        traces; comparing fingerprints is how the simulation-test harness
        audits determinism far more deeply than comparing final results —
        every message, drop, crash, and invocation (with its exact virtual
        time) feeds the digest.
        """
        digest = hashlib.sha256()
        events = self.events
        # One encode and one update per 512 events: per event is slower,
        # per log makes the joined text the round's peak memory.
        for start in range(0, len(events), 512):
            digest.update("".join([
                f"{t!r}|{k}|{s}|{d}|{l}|{z}\n"
                for t, k, s, d, l, z in events[start:start + 512]]).encode())
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


@dataclass
class TraceSummary:
    """Aggregate view of a trace window, used by the bench harness."""

    messages: int = 0
    bytes: int = 0
    drops: int = 0
    invokes: int = 0
    by_label: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, events: list[TraceEvent]) -> "TraceSummary":
        """Summarise a list of events (e.g. ``trace.since(mark)``)."""
        summary = cls()
        for ev in events:
            if ev.kind == "send":
                summary.messages += 1
                summary.bytes += ev.size
            elif ev.kind == "drop":
                summary.drops += 1
            elif ev.kind == "invoke":
                summary.invokes += 1
            if ev.label:
                summary.by_label[ev.label] = summary.by_label.get(ev.label, 0) + 1
        return summary
