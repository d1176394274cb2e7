"""Metrics: latency recording, counters, windowed message accounting."""

from .counters import CounterSet, MessageWindow, WindowReport
from .latency import LatencyRecorder, LatencySummary, percentile
from .report import SystemSnapshot, render, report, snapshot

__all__ = [
    "CounterSet", "LatencyRecorder", "LatencySummary", "MessageWindow",
    "SystemSnapshot", "WindowReport", "percentile", "render", "report",
    "snapshot",
]
