#!/usr/bin/env python3
"""Perf gate: fail CI when a gated benchmark regresses.

Compares fresh ``python -m repro bench <id> --json`` records against the
committed baselines (``BENCH_e18.json``, ``BENCH_e19.json``,
``BENCH_e20.json``, ``BENCH_e21.json``).  Each experiment declares its
own comparison
contract in ``EXPERIMENTS``:

* **e18** (wall-clock fast path) — per-policy virtual µs/op, message
  counts, and trace fingerprints are machine-independent: same seed ⇒
  same trace.  Any difference is a hard failure regardless of tolerance,
  because it means behaviour (not just speed) changed.  Raw ops/sec is
  meaningless across machines, so throughput is compared via ``norm_ops``
  (ops/sec divided by the host calibration rate; see
  ``repro.bench.timing``), with a per-pair tolerance band.
* **e19** (virtual-time shard scaling) and **e20** (virtual-time overload
  goodput) — carry no wall numbers at all, so *every* scenario field must
  match the baseline exactly; the tolerance does not apply.

A named baseline or current file that cannot be read is a loud failure
(exit 2), never a silent skip: a gate that "passes" because its baseline
went missing is worse than no gate.

Usage::

    python -m repro bench e18 --json > /tmp/e18.json
    python -m repro bench e19 --json > /tmp/e19.json
    python tools/perf_gate.py \
        --pair BENCH_e18.json:/tmp/e18.json:0.25 \
        --pair BENCH_e19.json:/tmp/e19.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Per-experiment comparison contracts.  ``rows``/``key`` locate the row
#: list and its identity field; ``deterministic`` fields must match the
#: baseline byte for byte; ``throughput`` (optional) is the single
#: machine-dependent field allowed to drop by at most the tolerance.
EXPERIMENTS = {
    "e10": {
        "rows": "scenarios",
        "key": "scenario",
        # Mixed rows: wire-* rows carry nbytes/lossless, e2e-* rows carry
        # the virtual-time fields.  Absent fields compare as None on both
        # sides, so one tuple covers both shapes.
        "deterministic": ("size", "nbytes", "lossless", "sim_mean_ms",
                          "bytes_per_op"),
        "throughput": "norm_fast",
    },
    "e18": {
        "rows": "policies",
        "key": "policy",
        "deterministic": ("sim_us_per_op", "messages", "fingerprint"),
        "throughput": "norm_ops",
    },
    "e19": {
        "rows": "scenarios",
        "key": "scenario",
        # Virtual-time record: every field is deterministic.  ``None``
        # means "all of them", so new row fields are gated automatically.
        "deterministic": None,
        "throughput": None,
    },
    "e20": {
        "rows": "scenarios",
        "key": "scenario",
        # Same discipline as e19: pure virtual-time goodput/latency rows,
        # compared exactly with no tolerance band.
        "deterministic": None,
        "throughput": None,
    },
    "e21": {
        "rows": "scenarios",
        "key": "scenario",
        # Same discipline as e19/e20: pure virtual-time region latency
        # and staleness-probe rows, compared exactly.
        "deterministic": None,
        "throughput": None,
    },
    "simwall": {
        "rows": "scenarios",
        "key": "scenario",
        # The digest pins the whole battery summary byte-for-byte; the
        # normalised case rate is the calibrated wall-time budget.
        "deterministic": ("cases", "ok", "digest"),
        "throughput": "norm_rate",
    },
}


def _load(path: str) -> dict:
    """Read a bench record, failing loudly if the file is unusable.

    A missing baseline must kill the gate, not soften it: exit 2 so CI
    distinguishes "broken gate setup" from "perf regression" (exit 1).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        print(f"perf gate: cannot read {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        print(f"perf gate: {path!r} is not valid JSON: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _spec(record: dict, path: str) -> dict:
    """The comparison contract for a record, from its experiment id."""
    experiment = record.get("experiment")
    spec = EXPERIMENTS.get(experiment)
    if spec is None:
        print(f"perf gate: {path!r} is not a gated bench record "
              f"(experiment={experiment!r}; known: {sorted(EXPERIMENTS)})",
              file=sys.stderr)
        raise SystemExit(2)
    return spec


def _index(record: dict, spec: dict) -> dict[str, dict]:
    """Row identity → row, per the experiment's contract."""
    return {row[spec["key"]]: row for row in record[spec["rows"]]}


def compare(baseline: dict, current: dict, tolerance: float,
            spec: dict) -> list[str]:
    """All gate violations, as human-readable strings (empty = pass)."""
    problems: list[str] = []
    for field in ("experiment", "ops", "seed"):
        if baseline.get(field) != current.get(field):
            problems.append(
                f"workload mismatch: {field} {baseline.get(field)!r} "
                f"(baseline) vs {current.get(field)!r} (current)")
    if problems:
        return problems
    base_rows, cur_rows = _index(baseline, spec), _index(current, spec)
    missing = sorted(set(base_rows) - set(cur_rows))
    if missing:
        problems.append(f"rows missing from current run: {missing}")
    for name, base in sorted(base_rows.items()):
        cur = cur_rows.get(name)
        if cur is None:
            continue
        fields = spec["deterministic"]
        if fields is None:
            fields = sorted(base)
        for field in fields:
            if base.get(field) != cur.get(field):
                problems.append(
                    f"{name}: deterministic field {field!r} changed: "
                    f"{base.get(field)!r} -> {cur.get(field)!r}")
        throughput = spec["throughput"]
        if throughput is not None:
            floor = base[throughput] * (1.0 - tolerance)
            if cur[throughput] < floor:
                drop = 1.0 - cur[throughput] / base[throughput]
                problems.append(
                    f"{name}: {throughput} {cur[throughput]:.1f} is "
                    f"{drop:.0%} below baseline {base[throughput]:.1f} "
                    f"(tolerance {tolerance:.0%})")
    return problems


def check_pair(baseline_path: str, current_path: str,
               tolerance: float) -> list[str]:
    """Gate one baseline/current pair; prints the per-row summary."""
    baseline = _load(baseline_path)
    current = _load(current_path)
    spec = _spec(baseline, baseline_path)
    problems = compare(baseline, current, tolerance, spec)
    experiment = baseline["experiment"]
    if problems:
        print(f"{experiment} ({baseline_path}): FAIL")
        for problem in problems:
            print(f"  {problem}")
        return problems
    cur_rows = _index(current, spec)
    for name, base in sorted(_index(baseline, spec).items()):
        throughput = spec["throughput"]
        if throughput is not None:
            cur = cur_rows[name]
            delta = cur[throughput] / base[throughput] - 1.0
            print(f"  {name:>12}: {throughput} {cur[throughput]:.1f} "
                  f"({delta:+.0%} vs baseline)")
        else:
            print(f"  {name:>12}: exact match")
    print(f"{experiment} ({baseline_path}): ok")
    return []


def _parse_pair(text: str, default_tolerance: float) -> tuple[str, str, float]:
    """``BASELINE:CURRENT[:TOLERANCE]`` → (baseline, current, tolerance)."""
    parts = text.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], default_tolerance
    if len(parts) == 3:
        try:
            return parts[0], parts[1], float(parts[2])
        except ValueError:
            pass
    raise SystemExit(
        f"perf gate: bad --pair {text!r} "
        f"(expected BASELINE:CURRENT[:TOLERANCE])")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", action="append", default=[],
                        metavar="BASELINE:CURRENT[:TOLERANCE]",
                        help="a baseline/current file pair to gate; "
                             "repeatable, one per experiment")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="default max fractional throughput drop for "
                             "pairs without their own (default 0.25)")
    args = parser.parse_args(argv)
    pairs = [_parse_pair(text, args.tolerance) for text in args.pair]
    if not pairs:
        raise SystemExit("perf gate: nothing to gate (give --pair)")
    failed = False
    for baseline_path, current_path, tolerance in pairs:
        if check_pair(baseline_path, current_path, tolerance):
            failed = True
    print("perf gate: FAIL" if failed else "perf gate: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
