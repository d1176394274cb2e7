"""CLI contract for ``python -m repro simtest``: exit codes and --json."""

import json
import pathlib

from repro.cli import main
from repro.simtest.workload import SHIPPED_POLICIES

CORPUS = pathlib.Path(__file__).parent / "regressions"


def test_clean_single_seed_exits_zero(capsys):
    code = main(["simtest", "--seed", "1", "--policy", "stub",
                 "--ops", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "policy=stub" in out and "ok" in out


def test_dirty_cache_exits_one_with_minimized_repro(capsys):
    code = main(["simtest", "--seed", "0", "--policy", "dirtycache",
                 "--service", "kv", "--ops", "30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "violation" in out
    assert "minimized" in out and "confirmed=True" in out


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["simtest", "--seed", "2", "--policy", "caching",
            "--ops", "16", "--json", "--no-minimize"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["verdict"] == "ok"
    assert parsed["case"]["policy"] == "caching"


def test_battery_mode_sweeps_all_policies(capsys):
    code = main(["simtest", "--seeds", "3", "--ops", "14", "--json"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["cases"] == 3 * len(SHIPPED_POLICIES)
    assert summary["violations"] == [] and summary["unknown"] == []


def test_replay_honours_the_expectation(capsys):
    # A corpus file expecting "violation" replays with exit 0 — the
    # expectation is met — and a clean one likewise.
    for name in ("dirtycache-kv-seed0-minimized.json",
                 "stub-kv-seed5-full-menu.json"):
        code = main(["simtest", "--replay", str(CORPUS / name)])
        assert code == 0, capsys.readouterr().out
        capsys.readouterr()


def test_consistency_flag_changes_the_verdict(capsys):
    # The dirty cache breaks linearizability but does give each client its
    # own writes — the same case grades by the contract it is held to.
    argv = ["simtest", "--seed", "0", "--policy", "dirtycache",
            "--service", "kv", "--ops", "30"]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--consistency", "read-your-writes"]) == 0
    assert "read-your-writes" in capsys.readouterr().out


def test_consistency_json_is_byte_identical_across_runs(capsys):
    argv = ["simtest", "--seed", "2", "--policy", "replicated",
            "--ops", "16", "--json", "--no-minimize",
            "--consistency", "sequential"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["consistency"] == "sequential"


def test_replay_honours_the_consistency_pin(capsys):
    # The corpus record pins read-your-writes; replayed without an explicit
    # --consistency it must grade under the pinned mode and meet "ok".
    code = main(["simtest", "--replay",
                 str(CORPUS / "dirtycache-kv-seed7-ryw.json")])
    assert code == 0, capsys.readouterr().out


def test_unknown_policy_exits_two(capsys):
    assert main(["simtest", "--policy", "nosuch"]) == 2
    assert "unknown policy" in capsys.readouterr().err


def test_unknown_battery_case_is_named(capsys, monkeypatch):
    # A battery the checker cannot settle must fail *and say which case*:
    # exit 1 with nothing but "N/N ok" lines names nothing to replay.
    monkeypatch.setattr("repro.simtest.checker.DEFAULT_MAX_NODES", 1)
    code = main(["simtest", "--seeds", "1", "--policy", "stub",
                 "--ops", "16", "--no-minimize"])
    out = capsys.readouterr().out
    assert code == 1
    assert "stub: 0/1 ok" in out
    assert "1 unknown (checker budget exhausted):" in out
    named = json.loads(out.splitlines()[-1])
    assert (named["seed"], named["policy"], named["ops"]) == (0, "stub", 16)
