"""Latency recording and summarising.

Samples are virtual-time durations collected by the workload drivers; the
summaries (mean, percentiles) are what the bench harness prints and what
EXPERIMENTS.md reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class LatencyRecorder:
    """Collects duration samples for one labelled series."""

    def __init__(self, label: str = ""):
        self.label = label
        self.samples: list[float] = []

    def record(self, seconds: float) -> None:
        """Add one sample (virtual seconds)."""
        self.samples.append(seconds)

    def extend(self, seconds: list[float]) -> None:
        """Add many samples."""
        self.samples.extend(seconds)

    def summary(self) -> "LatencySummary":
        """Summarise what has been recorded so far."""
        return LatencySummary.of(self.label, self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class LatencySummary:
    """Aggregates of one latency series (all times in seconds).

    Attributes:
        label: series name.
        count: number of samples.
        mean: arithmetic mean.
        p50, p95, p99: percentiles (nearest-rank).
        minimum, maximum: extremes.
        total: sum of all samples.
    """

    label: str
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    total: float

    @classmethod
    def of(cls, label: str, samples: list[float]) -> "LatencySummary":
        """Build a summary from raw samples (zeros when empty)."""
        if not samples:
            return cls(label, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples)
        total = sum(ordered)
        return cls(
            label=label,
            count=len(ordered),
            mean=total / len(ordered),
            p50=percentile(ordered, 50),
            p95=percentile(ordered, 95),
            p99=percentile(ordered, 99),
            minimum=ordered[0],
            maximum=ordered[-1],
            total=total,
        )


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
