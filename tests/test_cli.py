"""Tests for the command-line interface."""


from repro.cli import main


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for short in ("e1", "e5", "e12"):
            assert f"{short} " in out or f"{short}  " in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "e6"]) == 0
        out = capsys.readouterr().out
        assert "bind via name service" in out

    def test_run_with_seed_and_ops(self, capsys):
        assert main(["run", "e12", "--seed", "3", "--ops", "8"]) == 0
        assert "unbounded" in capsys.readouterr().out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_ops_ignored_when_unsupported(self, capsys):
        assert main(["run", "e3", "--ops", "5"]) == 0
        assert "ignored" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "principle audit: clean" in capsys.readouterr().out

    def test_run_is_deterministic(self, capsys):
        main(["run", "e6"])
        first = capsys.readouterr().out
        main(["run", "e6"])
        assert capsys.readouterr().out == first

    def test_run_json_emits_sorted_machine_readable_rows(self, capsys):
        import json
        assert main(["run", "e6", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows
        assert all(isinstance(row, dict) for row in rows)

    def test_run_json_is_deterministic_under_one_seed(self, capsys):
        main(["run", "e6", "--seed", "5", "--json"])
        first = capsys.readouterr().out
        main(["run", "e6", "--seed", "5", "--json"])
        assert capsys.readouterr().out == first, \
            "the determinism CI gate diffs exactly this output"

    def test_bench_prints_table(self, capsys):
        assert main(["bench", "e18", "--ops", "60"]) == 0
        out = capsys.readouterr().out
        assert "invocation fast path" in out
        assert "sim_us_per_op" in out

    def test_bench_json_is_exact(self, capsys):
        import json
        assert main(["bench", "e18", "--ops", "60", "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert set(payload) == {"experiment", "ops", "seed", "policies"}
        assert payload["experiment"] == "e18"
        for row in payload["policies"]:
            assert set(row) == {"policy", "ops", "sim_us_per_op",
                                "messages", "fingerprint"}
        assert main(["bench", "e18", "--ops", "60", "--json"]) == 0
        assert capsys.readouterr().out == first, \
            "CI diffs exactly this output against BENCH_e18.json"

    def test_bench_e19_table_is_deterministic(self, capsys):
        assert main(["bench", "e19", "--ops", "640"]) == 0
        first = capsys.readouterr().out
        assert "consistent-hash sharding" in first
        assert "8+split" in first
        assert main(["bench", "e19", "--ops", "640"]) == 0
        assert capsys.readouterr().out == first, \
            "e19 is virtual-only; its table must be byte-stable"

    def test_bench_e19_json_has_its_fields(self, capsys):
        import json
        assert main(["bench", "e19", "--ops", "640", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "e19"
        for row in payload["scenarios"]:
            for field in ("scenario", "shards", "virtual_kops",
                          "second_half_kops", "messages", "fingerprint"):
                assert field in row

    def test_bench_e19_rejects_too_few_ops(self):
        from repro.kernel.errors import ConfigurationError
        import pytest
        with pytest.raises(ConfigurationError):
            main(["bench", "e19", "--ops", "60"])

    def test_bench_e20_json_is_deterministic(self, capsys):
        import json
        assert main(["bench", "e20", "--ops", "256", "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["experiment"] == "e20"
        for row in payload["scenarios"]:
            for field in ("scenario", "stack", "load_x", "goodput",
                          "p99_ms", "shed_queue", "shed_throttle",
                          "messages", "fingerprint"):
                assert field in row
        assert main(["bench", "e20", "--ops", "256", "--json"]) == 0
        assert capsys.readouterr().out == first, \
            "e20 is virtual-only; its record must be byte-stable"

    def test_bench_e20_rejects_too_few_ops(self):
        from repro.kernel.errors import ConfigurationError
        import pytest
        with pytest.raises(ConfigurationError):
            main(["bench", "e20", "--ops", "10"])

    def test_bench_e21_json_is_deterministic(self, capsys):
        import json
        assert main(["bench", "e21", "--ops", "40", "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["experiment"] == "e21"
        for row in payload["scenarios"]:
            for field in ("scenario", "deployment", "region", "read_ms",
                          "write_ms", "read_like_lan", "availability",
                          "stale_reads"):
                assert field in row
        assert main(["bench", "e21", "--ops", "40", "--json"]) == 0
        assert capsys.readouterr().out == first, \
            "e21 is virtual-only; its record must be byte-stable"

    def test_bench_e21_rejects_too_few_ops(self):
        from repro.kernel.errors import ConfigurationError
        import pytest
        with pytest.raises(ConfigurationError):
            main(["bench", "e21", "--ops", "10"])

    def test_bench_unknown_benchmark_fails(self, capsys):
        assert main(["bench", "e99"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_e10_json_has_its_fields(self, capsys):
        import json
        assert main(["bench", "e10", "--ops", "20", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"experiment", "ops", "seed", "scenarios"}
        assert payload["experiment"] == "e10"
        scenarios = {row["scenario"] for row in payload["scenarios"]}
        assert any(name.startswith("wire-") for name in scenarios)
        assert any(name.startswith("e2e-") for name in scenarios)
        for row in payload["scenarios"]:
            if row["scenario"].startswith("wire-"):
                assert set(row) == {"scenario", "size", "nbytes", "lossless"}
                assert row["lossless"] is True
            else:
                assert set(row) == {"scenario", "size", "sim_mean_ms",
                                    "bytes_per_op"}

    def test_bench_simwall_json_has_its_fields(self, capsys):
        import json
        assert main(["bench", "simwall", "--ops", "8",
                     "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"experiment", "ops", "seed", "scenarios"}
        assert payload["experiment"] == "simwall"
        for row in payload["scenarios"]:
            assert set(row) == {"scenario", "cases", "ok", "digest"}
            assert len(row["digest"]) == 64

    def test_replay_takes_many_files_and_fails_on_any_unmet(
            self, capsys, tmp_path):
        import json
        import pathlib
        corpus = pathlib.Path(__file__).parent / "simtest" / "regressions"
        kept = corpus / "stub-kv-seed5-full-menu.json"
        record = json.loads(kept.read_text(encoding="utf-8"))
        record["expect"] = "violation"     # the case replays "ok"
        wrong = tmp_path / "wrong-expect.json"
        wrong.write_text(json.dumps(record), encoding="utf-8")
        argv = ["simtest", "--no-minimize", "--replay", str(kept), str(wrong)]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"replay {kept}: verdict=ok expect=ok",
                         f"replay {wrong}: verdict=ok expect=violation"]
        assert main(argv[:-1]) == 0       # the met expectation alone
        capsys.readouterr()
        assert main(argv + ["--json"]) == 2
        assert "one file" in capsys.readouterr().err
