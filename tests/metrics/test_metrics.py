"""Tests for metrics: latency summaries, counters, message windows."""

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.metrics.counters import CounterSet, MessageWindow
from repro.metrics.latency import LatencyRecorder, LatencySummary, percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 99) == 5.0

    def test_median_of_even_list(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_p99_is_near_max(self):
        ordered = sorted(float(i) for i in range(100))
        assert percentile(ordered, 99) == 98.0

    def test_empty(self):
        assert percentile([], 50) == 0.0


class TestLatencySummary:
    def test_of_samples(self):
        summary = LatencySummary.of("s", [1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.total == 6.0

    def test_empty_summary_is_zeroed(self):
        summary = LatencySummary.of("s", [])
        assert summary.count == 0
        assert summary.mean == 0.0


class TestLatencyRecorder:
    def test_record_and_summarise(self):
        recorder = LatencyRecorder("ops")
        recorder.record(0.1)
        recorder.extend([0.2, 0.3])
        assert len(recorder) == 3
        assert recorder.summary().mean == pytest.approx(0.2)


class TestCounterSet:
    def test_incr_and_get(self):
        counters = CounterSet()
        counters.incr("a")
        counters.incr("a", 4)
        assert counters.get("a") == 5
        assert counters.get("missing") == 0
        assert counters.as_dict() == {"a": 5}


class TestMessageWindow:
    def test_window_counts_only_inside(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        proxy = get_space(client).bind_ref(ref)
        proxy.get("warm")
        with MessageWindow(system) as window:
            proxy.get("a")
            proxy.get("b")
        assert window.report.messages == 4
        assert window.report.invokes == 2
        assert window.report.bytes > 0
        proxy.get("outside")
        assert window.report.messages == 4

    def test_elapsed_tracks_virtual_time(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        proxy = get_space(client).bind_ref(ref)
        with MessageWindow(system) as window:
            proxy.get("a")
        assert window.report.elapsed > 0

    def test_nested_labels(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        proxy = get_space(client).bind_ref(ref)
        with MessageWindow(system) as window:
            proxy.put("a", 1)
        assert any(label.startswith("req:put")
                   for label in window.report.by_label)
