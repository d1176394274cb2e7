"""Smoke test of the performance benchmark (CI's ``pytest benchmarks/``).

Runs both passes of all eight workloads at ``--smoke`` sizes and checks
the benchmark against its own declaration in ``BENCHMARK.json`` — names,
limits, span structure, and that the wrappers come off again.  It checks
no speed.
"""

from __future__ import annotations

import json
import re

import pytest

import perf_run

perf_run.require_program()

import perf_spans  # noqa: E402  (needs the program on the path)
import perf_workloads  # noqa: E402

SPEC = perf_run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_declaration_is_within_the_contract():
    assert NAMES == list(perf_workloads.WORKLOADS)
    assert 2 <= len(NAMES) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = NAMES + [m["name"] for m in
                     SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_pass_emits_the_declared_metrics(name):
    result = perf_run.run_single(name, seed=11, seconds=0.0, trace=False,
                                 smoke=True)["result"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"]
                                       for m in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_spans_are_well_formed(name):
    # run_single itself refuses to report when the closing untraced round
    # does not reproduce the opening one's fingerprint, when too much of an
    # op lies outside every span, or when the wrappers' send count differs
    # from the system trace.
    detail = perf_run.run_single(name, seed=11, seconds=0.0, trace=True,
                                 smoke=True)
    result = detail["result"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    trace = json.loads((perf_run.ROOT / detail["trace_file"]).read_text())
    spans = trace["spans"]
    assert spans
    layers = set(perf_spans.LAYER_MAP) | {"core.policies", "apps"}
    for index, (_, layer, start, end, parent, op_id) in enumerate(spans):
        assert layer in layers
        assert -1 <= parent < index and op_id >= 0 and end >= start
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
            assert spans[parent][5] == op_id \
                or spans[parent][0] == "simtest.workload.drive"
    own = perf_spans.self_times(spans)
    assert min(own) >= -1e-3    # microseconds, rounded to 3 places
    assert sum(own) <= trace["wall_us"]


def test_uninstall_restores_every_original():
    import repro.rpc.protocol as protocol
    import repro.simtest.checker as checker
    import repro.simtest.runner as runner
    before = (vars(protocol.RpcProtocol)["call"], checker.check_history,
              runner.check_history, runner.deploy)
    recorder = perf_spans.Recorder()
    recorder.install()
    try:
        assert vars(protocol.RpcProtocol)["call"] is not before[0]
        assert runner.check_history is checker.check_history
        assert runner.check_history is not before[2]
    finally:
        recorder.uninstall()
    assert (vars(protocol.RpcProtocol)["call"], checker.check_history,
            runner.check_history, runner.deploy) == before


@pytest.mark.parametrize("seed", (11, 12))
def test_sharded_zipf_round_overflows_the_memos(seed):
    # The traced pass refuses to report a full-size round without memo
    # evictions; smoke rounds are too short to reach that check.
    from repro.wire.marshal import memo_stats
    ops, _ = perf_workloads.make_stream(
        perf_workloads.WORKLOADS["sharded_zipf"], seed)
    assert len({key for _, key, _ in ops}) > memo_stats()["max_entries"]


def _record(path, names, worse=0.0, seconds=10):
    """A record whose wall metrics are ``worse`` (a share) than 100."""
    metrics = {m["name"]: {"unit": m["unit"], "value": 100.0 * (
        1.0 if perf_run.is_exact(m["name"])
        else 1 + worse if m["better"] == "lower" else 1 - worse)}
        for m in SPEC["end_to_end"]}
    path.write_text(json.dumps({
        "seed": 11, "seconds": seconds, "smoke": False,
        "workloads": {name: {"end_to_end": metrics,
                             "end_to_end_run": {"round_spread": 0.01}}
                      for name in names}}))
    return path


def test_compare_counts_regressions_and_missing_workloads(tmp_path):
    widest = max(m["bound"] for m in SPEC["end_to_end"])
    a = _record(tmp_path / "a.json", NAMES)
    assert perf_run.compare(a, a) == 0
    assert perf_run.compare(
        a, _record(tmp_path / "b.json", NAMES, worse=widest + 0.01)) == 1
    assert perf_run.compare(a, _record(tmp_path / "c.json", NAMES[:1])) == 1
    with pytest.raises(SystemExit):
        perf_run.compare(a, _record(tmp_path / "d.json", NAMES, seconds=5))
