"""Simwall — the simtest battery under a calibrated wall-time budget.

The sim-chaos battery (:mod:`repro.simtest`) is the repository's heaviest
correctness gate, and the hot-path optimisations (plain frames sized, not
written, and carried, not decoded; zero-copy bulk payloads) exist to keep it
cheap to run often.  This bench pins that down:

* every shipped policy runs a fixed seed battery **twice**; the two runs
  must agree byte for byte (their summary digests are compared), which is
  the simtest determinism discipline applied to the whole battery;
* the best wall time per policy is normalised against the host calibration
  rate (:func:`repro.bench.timing.calibration_rate`), yielding
  ``norm_rate`` — cases per second per calibration speed.  The CI perf
  gate compares it against the committed ``BENCH_simwall.json`` with a
  tolerance band: that floor *is* the calibrated wall-time budget, so a
  change that makes the battery (say) 40% slower fails CI on any machine
  without anyone hand-tuning per-runner second limits.

Digests, case counts and verdict counts are machine-independent; only the
wall readings vary between hosts, and only they are tolerance-banded.
"""

from __future__ import annotations

import hashlib
import json

from ..simtest.runner import run_battery
from ..simtest.workload import SHIPPED_POLICIES
from .timing import CalibrationBracket, wall_clock

TITLE = "simwall: simtest battery — determinism digest and wall budget"
COLUMNS = ["scenario", "cases", "ok", "digest", "wall_seconds", "norm_rate"]

#: Battery shape: small enough for CI, large enough that each policy's
#: wall reading is tens of milliseconds (a gateable signal, not timer
#: jitter) and every policy's fault menu gets exercised.
SEEDS = 10
OPS = 24
CLIENTS = 3


def _battery(policy: str, seeds: int, ops: int) -> tuple[dict, float]:
    """One timed battery run for one policy; returns (summary, wall)."""
    started = wall_clock()
    summary = run_battery(range(seeds), policies=(policy,), ops=ops,
                          clients=CLIENTS, minimize=False)
    return summary, wall_clock() - started


def _digest(summary: dict) -> str:
    """Canonical digest of a battery summary (sorted JSON, sha256)."""
    canon = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def measure_policy(policy: str, seeds: int = SEEDS, ops: int = OPS) -> dict:
    """Double-run one policy's battery; byte-identity is asserted, the
    faster wall reading is reported."""
    first, wall_a = _battery(policy, seeds, ops)
    second, wall_b = _battery(policy, seeds, ops)
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
        "wall_seconds": min(wall_a, wall_b),
    }


def bench_payload(ops: int = OPS, seed: int = SEEDS) -> dict:
    """The machine-readable BENCH_simwall.json record.

    ``seed`` doubles as the battery width (seeds 0..seed-1) so the CLI's
    ``--seed`` knob scales the sweep the way it scales other benches.
    """
    bracket = CalibrationBracket()
    rows = [measure_policy(policy, seeds=seed, ops=ops)
            for policy in SHIPPED_POLICIES]
    rate = bracket.close()
    for row in rows:
        wall = row.pop("wall_seconds")
        row["norm_rate"] = round(row["cases"] / wall / rate * 1e6, 2)
        row["wall_ms_per_case"] = round(wall / row["cases"] * 1e3, 1)
    return {
        "experiment": "simwall",
        "ops": ops,
        "seed": seed,
        "calibration_rate": round(rate, 1),
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """Table form of :func:`bench_payload`."""
    return payload["scenarios"]


def bench_footer(payload: dict) -> str:
    """One-line summary: total verdicts and the battery's slowest policy."""
    rows = payload["scenarios"]
    cases = sum(row["cases"] for row in rows)
    ok = sum(row["ok"] for row in rows)
    slowest = max(rows, key=lambda row: row["wall_ms_per_case"])
    return (f"{ok}/{cases} verdicts ok; slowest policy "
            f"{slowest['scenario']!r} at {slowest['wall_ms_per_case']:.1f} "
            f"ms/case (calibration "
            f"{payload['calibration_rate'] / 1e6:.1f}M it/s)")
