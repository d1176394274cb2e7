"""Named counters and windowed message accounting.

:class:`MessageWindow` is the experiment-facing tool: it marks the system
trace, runs a workload, and reports messages/bytes/invocations observed in
that window only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.system import System
from ..kernel.trace import TraceSummary


class CounterSet:
    """A bag of named monotonic counters."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> int:
        """Increase ``name`` by ``amount`` and return the new value."""
        value = self._counts.get(name, 0) + amount
        self._counts[name] = value
        return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"CounterSet({self._counts})"


@dataclass
class WindowReport:
    """What happened during one :class:`MessageWindow`.

    Attributes:
        messages: frames sent (including retransmissions).
        bytes: total payload bytes of those frames.
        drops: frames lost by the network.
        invokes: server-side operation executions.
        elapsed: virtual seconds from window open to close (max over clocks).
        by_label: message counts per trace label.
    """

    messages: int
    bytes: int
    drops: int
    invokes: int
    elapsed: float
    by_label: dict[str, int]


class MessageWindow:
    """Scoped trace accounting::

        with MessageWindow(system) as window:
            run_workload()
        print(window.report.messages)
    """

    def __init__(self, system: System):
        self.system = system
        self.report: WindowReport | None = None
        self._mark = 0
        self._t0 = 0.0

    def __enter__(self) -> "MessageWindow":
        self._mark = self.system.trace.mark()
        self._t0 = self.system.max_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        events = self.system.trace.since(self._mark)
        summary = TraceSummary.of(events)
        self.report = WindowReport(
            messages=summary.messages,
            bytes=summary.bytes,
            drops=summary.drops,
            invokes=summary.invokes,
            elapsed=self.system.max_time() - self._t0,
            by_label=summary.by_label,
        )
