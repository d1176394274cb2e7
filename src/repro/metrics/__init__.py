"""Metrics: latency recording, counters, windowed message accounting."""

from .counters import CounterSet, MessageWindow, WindowReport
from .latency import LatencyRecorder, LatencySummary, percentile

__all__ = [
    "CounterSet", "LatencyRecorder", "LatencySummary", "MessageWindow",
    "WindowReport", "percentile",
]
