"""Tests for the multi-baseline CI perf gate (tools/perf_gate.py)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "perf_gate.py"


def run_gate(*args):
    return subprocess.run([sys.executable, str(GATE), *args],
                          capture_output=True, text=True, cwd=ROOT)


def _record(name):
    with open(ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


class TestPerfGate:
    def test_identical_pairs_pass(self):
        result = run_gate("--pair", "BENCH_e18.json:BENCH_e18.json",
                          "--pair", "BENCH_e19.json:BENCH_e19.json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "perf gate: ok" in result.stdout
        assert "e18 (BENCH_e18.json): ok" in result.stdout
        assert "e19 (BENCH_e19.json): ok" in result.stdout

    def test_single_pair_takes_the_default_tolerance(self):
        result = run_gate("--pair", "BENCH_e18.json:BENCH_e18.json",
                          "--tolerance", "0.25")
        assert result.returncode == 0
        assert "perf gate: ok" in result.stdout

    def test_pair_is_the_only_spelling(self):
        result = run_gate("--baseline", "BENCH_e18.json",
                          "--current", "BENCH_e18.json")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_missing_baseline_fails_loudly(self):
        result = run_gate("--pair", "BENCH_missing.json:BENCH_e19.json")
        assert result.returncode == 2
        assert "cannot read" in result.stderr
        assert "BENCH_missing.json" in result.stderr

    def test_e19_is_gated_exactly_on_every_field(self, tmp_path):
        record = _record("BENCH_e19.json")
        record["scenarios"][0]["p99_us"] += 0.01
        current = tmp_path / "e19.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_e19.json:{current}")
        assert result.returncode == 1
        assert "deterministic field 'p99_us' changed" in result.stdout
        assert "perf gate: FAIL" in result.stdout

    def test_e20_identical_pair_passes(self):
        result = run_gate("--pair", "BENCH_e20.json:BENCH_e20.json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "e20 (BENCH_e20.json): ok" in result.stdout

    def test_e20_is_gated_exactly_on_every_field(self, tmp_path):
        record = _record("BENCH_e20.json")
        record["scenarios"][0]["goodput"] += 0.1
        current = tmp_path / "e20.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_e20.json:{current}")
        assert result.returncode == 1
        assert "deterministic field 'goodput' changed" in result.stdout

    def test_e18_throughput_tolerance_band(self, tmp_path):
        record = _record("BENCH_e18.json")
        for row in record["policies"]:
            row["norm_ops"] = round(row["norm_ops"] * 0.8, 1)
        current = tmp_path / "e18.json"
        current.write_text(json.dumps(record))
        # A 20% drop sits inside the 25% band …
        assert run_gate("--pair",
                        f"BENCH_e18.json:{current}:0.25").returncode == 0
        # … and outside a 10% one (per-pair tolerance).
        result = run_gate("--pair", f"BENCH_e18.json:{current}:0.10")
        assert result.returncode == 1
        assert "below baseline" in result.stdout

    def test_one_failing_pair_fails_the_whole_gate(self, tmp_path):
        record = _record("BENCH_e19.json")
        del record["scenarios"][-1]
        current = tmp_path / "e19.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", "BENCH_e18.json:BENCH_e18.json",
                          "--pair", f"BENCH_e19.json:{current}")
        assert result.returncode == 1
        assert "rows missing from current run" in result.stdout
        assert "e18 (BENCH_e18.json): ok" in result.stdout

    def test_workload_mismatch_is_reported(self, tmp_path):
        record = _record("BENCH_e19.json")
        record["seed"] += 1
        current = tmp_path / "e19.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_e19.json:{current}")
        assert result.returncode == 1
        assert "workload mismatch" in result.stdout

    def test_nothing_to_gate_is_an_error(self):
        result = run_gate()
        assert result.returncode != 0
        assert "nothing to gate" in result.stderr

    def test_e10_identical_pair_passes(self):
        result = run_gate("--pair", "BENCH_e10.json:BENCH_e10.json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "e10 (BENCH_e10.json): ok" in result.stdout

    def test_e10_gates_losslessness_and_wire_bytes(self, tmp_path):
        record = _record("BENCH_e10.json")
        wire = next(row for row in record["scenarios"]
                    if row["scenario"].startswith("wire-"))
        wire["nbytes"] += 1
        current = tmp_path / "e10.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_e10.json:{current}")
        assert result.returncode == 1
        assert "deterministic field 'nbytes' changed" in result.stdout

    def test_e10_norm_fast_is_tolerance_banded(self, tmp_path):
        record = _record("BENCH_e10.json")
        for row in record["scenarios"]:
            row["norm_fast"] = round(row["norm_fast"] * 0.5, 1)
        current = tmp_path / "e10.json"
        current.write_text(json.dumps(record))
        assert run_gate("--pair",
                        f"BENCH_e10.json:{current}:0.6").returncode == 0
        result = run_gate("--pair", f"BENCH_e10.json:{current}:0.4")
        assert result.returncode == 1
        assert "below baseline" in result.stdout

    def test_simwall_identical_pair_passes(self):
        result = run_gate(
            "--pair", "BENCH_simwall.json:BENCH_simwall.json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "simwall (BENCH_simwall.json): ok" in result.stdout

    def test_simwall_gates_the_battery_digest_exactly(self, tmp_path):
        record = _record("BENCH_simwall.json")
        record["scenarios"][0]["digest"] = "0" * 64
        current = tmp_path / "simwall.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_simwall.json:{current}")
        assert result.returncode == 1
        assert "deterministic field 'digest' changed" in result.stdout

    def test_simwall_wall_budget_is_the_norm_rate_floor(self, tmp_path):
        record = _record("BENCH_simwall.json")
        for row in record["scenarios"]:
            row["norm_rate"] = round(row["norm_rate"] * 0.5, 2)
        current = tmp_path / "simwall.json"
        current.write_text(json.dumps(record))
        result = run_gate("--pair", f"BENCH_simwall.json:{current}:0.4")
        assert result.returncode == 1
        assert "below baseline" in result.stdout
