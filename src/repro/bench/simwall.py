"""Simwall — the simtest battery, digested per policy.

The sim-chaos battery (:mod:`repro.simtest`) is the repository's heaviest
correctness gate.  This bench pins its outcome down: every shipped policy
runs a fixed seed battery **twice**, and the two runs must agree byte for
byte (their summary digests are compared), which is the simtest
determinism discipline applied to the whole battery.  The record —
case count, ``ok`` count and digest per policy — is machine-independent,
so CI compares ``BENCH_simwall.json`` exactly.  What the battery costs the
host is measured by ``benchmarks/perf`` (the ``simtest_battery`` row of
``BENCHMARK.json``).
"""

from __future__ import annotations

import hashlib
import json

from ..simtest.runner import run_battery
from ..simtest.workload import SHIPPED_POLICIES

TITLE = "simwall: simtest battery — determinism digest per policy"
COLUMNS = ["scenario", "cases", "ok", "digest"]

#: Battery shape: small enough for CI, large enough that every policy's
#: fault menu gets exercised.
SEEDS = 10
OPS = 24
CLIENTS = 3


def _digest(summary: dict) -> str:
    """Canonical digest of a battery summary (sorted JSON, sha256)."""
    canon = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def measure_policy(policy: str, seeds: int = SEEDS, ops: int = OPS) -> dict:
    """Double-run one policy's battery; byte-identity is asserted."""
    first, second = (run_battery(range(seeds), policies=(policy,), ops=ops,
                                 clients=CLIENTS, minimize=False)
                     for _ in range(2))
    digest = _digest(first)
    if digest != _digest(second):
        raise AssertionError(
            f"simwall determinism violated: policy {policy!r} produced "
            f"different battery summaries across identical runs")
    return {
        "scenario": policy,
        "cases": first["cases"],
        "ok": sum(counts["ok"] for counts in first["per_policy"].values()),
        "digest": digest,
    }


def bench_payload(ops: int = OPS, seed: int = SEEDS) -> dict:
    """The machine-readable BENCH_simwall.json record.

    ``seed`` doubles as the battery width (seeds 0..seed-1) so the CLI's
    ``--seed`` knob scales the sweep the way it scales other benches.
    """
    return {
        "experiment": "simwall",
        "ops": ops,
        "seed": seed,
        "scenarios": [measure_policy(policy, seeds=seed, ops=ops)
                      for policy in SHIPPED_POLICIES],
    }


def bench_rows(payload: dict) -> list[dict]:
    """Table form of :func:`bench_payload`."""
    return payload["scenarios"]


def bench_footer(payload: dict) -> str:
    """One-line summary: total verdicts."""
    rows = payload["scenarios"]
    cases = sum(row["cases"] for row in rows)
    ok = sum(row["ok"] for row in rows)
    return f"{ok}/{cases} verdicts ok"
