"""Unit tests for the trace log and its query helpers."""

from repro.kernel.trace import Trace, TraceSummary


def _fill(trace):
    trace.emit(0.0, "send", "a/m", "b/m", "req:get", 100)
    trace.emit(0.1, "send", "b/m", "a/m", "rep", 50)
    trace.emit(0.2, "drop", "a/m", "b/m", "loss", 100)
    trace.emit(0.3, "invoke", "a/m", "b/m", "get")
    trace.emit(0.4, "send", "a/m", "c/m", "req:put", 70)


class TestTrace:
    def test_record_and_len(self):
        trace = Trace()
        _fill(trace)
        assert len(trace) == 5

    def test_select_by_kind(self):
        trace = Trace()
        _fill(trace)
        assert len(trace.select(kind="send")) == 3

    def test_select_by_endpoints(self):
        trace = Trace()
        _fill(trace)
        assert len(trace.select(kind="send", src="a/m", dst="b/m")) == 1

    def test_select_with_predicate(self):
        trace = Trace()
        _fill(trace)
        big = trace.select(predicate=lambda ev: ev.size >= 100)
        assert len(big) == 2

    def test_count(self):
        trace = Trace()
        _fill(trace)
        assert trace.count("drop") == 1

    def test_bytes_sent_excludes_drops(self):
        trace = Trace()
        _fill(trace)
        assert trace.bytes_sent() == 220

    def test_messages_between_is_bidirectional(self):
        trace = Trace()
        _fill(trace)
        assert trace.messages_between("a/m", "b/m") == 2

    def test_mark_and_since(self):
        trace = Trace()
        trace.emit(0.0, "send", "x", "y")
        mark = trace.mark()
        trace.emit(1.0, "send", "x", "y")
        window = trace.since(mark)
        assert len(window) == 1
        assert window[0].time == 1.0

    def test_since_pops_latest_mark(self):
        trace = Trace()
        trace.mark()
        trace.emit(0.0, "send", "x", "y")
        assert len(trace.since()) == 1

    def test_clear(self):
        trace = Trace()
        _fill(trace)
        trace.clear()
        assert len(trace) == 0


class TestTraceSummary:
    def test_of_window(self):
        trace = Trace()
        _fill(trace)
        summary = TraceSummary.of(trace.events)
        assert summary.messages == 3
        assert summary.bytes == 220
        assert summary.drops == 1
        assert summary.invokes == 1

    def test_by_label(self):
        trace = Trace()
        _fill(trace)
        summary = TraceSummary.of(trace.events)
        assert summary.by_label["req:get"] == 1
        assert summary.by_label["loss"] == 1

    def test_empty(self):
        summary = TraceSummary.of([])
        assert summary.messages == 0
        assert summary.by_label == {}
