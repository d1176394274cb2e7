#!/usr/bin/env python3
"""Alternating parent/change pairs of the declared benchmark, with the
choosing-metrics §8 verdict — the loop every gain-claiming PR re-wrote.

A driver over ``benchmarks/perf/perf_run.py`` and nothing else: each side
is a checkout, each run is that checkout's *own* ``perf_run.py --trace 0``
in its own interpreter, and every number printed is one that command
reported.  No estimator lives here — only the order of the runs and the
arithmetic of the rule:

* both checkouts are byte-compiled first: where bytecode is not written
  on import (``PYTHONDONTWRITEBYTECODE``), a side whose modules' bytecode
  is stale would recompile them in every run's import and be timed for it;
* pairs alternate which side runs first (odd pairs the parent, even pairs
  the change), each pair on a fresh ``--seed`` shared by its two runs;
* one row per run, then per end-to-end metric of ``BENCHMARK.json``: each
  side's median and quartiles, the pairs the change won (ties count for
  neither side) and a verdict;
* the metric named by ``--claim``: ``claim met`` only when the change won
  at least nine tenths of the pairs **and** the medians differ by more
  than the distance between the parent's own quartiles;
* every other metric: ``REGRESSION`` when the change's median is worse
  than the parent's by more than the metric's bound; ``unresolved`` when
  either side's quartile spread exceeds the bound (unless every run of
  the change reads better than every run of the parent); else
  ``within bound``;
* any metric whose two sides read the same, pair by pair, to the last
  digit (virtual time must): ``equal``;
* a larger share of failed operations on the change is a regression.

Exit 1 on a regression or an unmet claim, 2 when a run itself failed,
0 otherwise.

Usage::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python tools/perf_pairs.py /tmp/parent . --workload replicated_read \\
        --claim ops_per_mcal [--pairs 10] [--seconds 10] [--seed 21]
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

PARENT, CHANGE = "parent", "change"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``checkout``'s own benchmark; its result object
    (the last line the command prints)."""
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/perf_run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"perf_pairs: {checkout}: {workload} --seed {seed} exited "
              f"{done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compile_checkout(checkout: Path) -> None:
    """Write current bytecode for everything a run imports from
    ``checkout``: its package and its benchmark."""
    for part in ("src", "benchmarks"):
        compileall.compile_dir(str(checkout / part), quiet=1)


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list, change: list, claimed: bool) -> dict:
    """The §8 rule for one metric over paired runs (``parent[i]`` and
    ``change[i]`` are the two sides of pair ``i``)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (pmed - cmed) / pmed if lower else (cmed - pmed) / pmed
    row = {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
           "wins": wins, "gain": gain}
    if parent == change:
        row["verdict"] = "equal"    # pair by pair, to the last digit
    elif claimed:
        met = wins >= 0.9 * len(parent) and gain > 0 \
            and abs(cmed - pmed) > pq3 - pq1
        row["verdict"] = "claim met" if met else "CLAIM NOT MET"
    elif -gain > bound:
        row["verdict"] = "REGRESSION"
    else:
        spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
        clear = max(change) < min(parent) if lower \
            else min(change) > max(parent)
        row["verdict"] = "unresolved" if spread > bound and not clear \
            else "within bound"
    return row


def measure(parent_dir: Path, change_dir: Path, workload: str, pairs: int,
            seconds: float, first_seed: int) -> dict:
    """Run the pairs, printing one row per run; ``{side: [result, ...]}``
    with both lists in pair order."""
    runs: dict = {PARENT: [], CHANGE: []}
    sides = {PARENT: parent_dir, CHANGE: change_dir}
    for pair in range(1, pairs + 1):
        seed = first_seed + pair - 1
        order = (PARENT, CHANGE) if pair % 2 else (CHANGE, PARENT)
        for side in order:
            result = run_once(sides[side], workload, seed, seconds)
            runs[side].append(result)
            values = "  ".join(f"{name}={item['value']:.6g}"
                               for name, item in result["metrics"].items())
            print(f"{workload} pair {pair:2d} seed {seed} {side:6s} "
                  f"failed={result['failed']}/{result['attempted']}  {values}",
                  flush=True)
    return runs


def report(spec: dict, workload: str, runs: dict, claim: str | None) -> int:
    """Print the per-metric summary; the number of failed verdicts."""
    bad = 0
    pairs = len(runs[PARENT])
    print(f"\n{workload}: {pairs} pairs")
    print(f"{'metric':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'gain':>8s} {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = verdict(metric,
                      [r["metrics"][name]["value"] for r in runs[PARENT]],
                      [r["metrics"][name]["value"] for r in runs[CHANGE]],
                      claimed=name == claim)
        bad += row["verdict"] in ("REGRESSION", "CLAIM NOT MET")
        print(f"{name:14s} "
              f"{'/'.join(f'{v:.5g}' for v in row['parent']):>32s} "
              f"{'/'.join(f'{v:.5g}' for v in row['change']):>32s} "
              f"{row['gain']:+8.1%} {row['wins']:3d}/{pairs:<2d}  "
              f"{row['verdict']}")
    failed = {side: sum(r["failed"] for r in runs[side]) /
              sum(r["attempted"] for r in runs[side]) for side in runs}
    worse = failed[CHANGE] > failed[PARENT]
    print(f"failed share   parent {failed[PARENT]:.4%}  "
          f"change {failed[CHANGE]:.4%}  "
          f"{'REGRESSION' if worse else 'no worse'}")
    return bad + worse


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--claim", help="the end-to-end metric the PR "
                        "claims improves on these workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=21,
                        help="seed of the first pair; each pair adds one")
    args = parser.parse_args(argv)
    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    if args.claim not in {None, *(m["name"] for m in spec["end_to_end"])}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bad = 0
    parent_dir = args.parent_dir.resolve()
    change_dir = args.change_dir.resolve()
    for checkout in (parent_dir, change_dir):
        compile_checkout(checkout)
    for workload in args.workload:
        runs = measure(parent_dir, change_dir, workload, args.pairs, seconds,
                       args.seed)
        bad += report(spec, workload, runs, args.claim)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
