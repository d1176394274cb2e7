"""The verdict arithmetic of tools/perf_pairs.py (choosing-metrics §8).

The tool itself only orders runs of ``benchmarks/perf/perf_run.py``; CI's
``perf-smoke`` job runs it end to end with the checkout as both sides.
Here: the rule, on numbers whose verdict is known.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

HIGHER = {"name": "ops_per_mcal", "better": "higher", "bound": 0.16}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.10}
PARENT = [400, 410, 405, 415, 395, 420, 408, 402, 411, 399]


def _verdict(metric, parent, change, claimed=False):
    return perf_pairs.verdict(metric, parent, change, claimed)["verdict"]


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    better = [value * 1.2 for value in PARENT]
    assert _verdict(HIGHER, PARENT, better, claimed=True) == "claim met"
    # Eight wins of ten: not met, however large the median gap.
    mixed = better[:8] + [value * 0.9 for value in PARENT[8:]]
    assert _verdict(HIGHER, PARENT, mixed, claimed=True) == "CLAIM NOT MET"
    # Ten wins of ten, but by less than the parent's own quartile spread.
    hair = [value + 1 for value in PARENT]
    assert _verdict(HIGHER, PARENT, hair, claimed=True) == "CLAIM NOT MET"
    # A tie counts for neither side.
    row = perf_pairs.verdict(HIGHER, PARENT, [PARENT[0]] + better[1:], True)
    assert row["wins"] == 9 and row["verdict"] == "claim met"


def test_an_unclaimed_metric_is_held_to_its_bound():
    assert _verdict(LOWER, PARENT, [v * 1.05 for v in PARENT]) \
        == "within bound"
    assert _verdict(LOWER, PARENT, [v * 1.12 for v in PARENT]) \
        == "REGRESSION"
    assert _verdict(HIGHER, PARENT, [v * 0.8 for v in PARENT]) \
        == "REGRESSION"
    assert _verdict(LOWER, PARENT, list(PARENT)) == "equal"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [400, 520, 380, 600, 410, 390, 570, 405, 395, 610]
    assert _verdict(HIGHER, noisy, noisy[::-1]) == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert _verdict(HIGHER, noisy, [v + 1000 for v in noisy]) \
        == "within bound"


def test_both_checkouts_are_compiled_before_the_first_pair(tmp_path):
    # Bytecode is written whatever PYTHONDONTWRITEBYTECODE says, so no run
    # recompiles a module it imports.
    for part in ("src/pkg", "benchmarks/perf"):
        (tmp_path / part).mkdir(parents=True)
        (tmp_path / part / "mod.py").write_text("VALUE = 1\n")
    perf_pairs.compile_checkout(tmp_path)
    for part in ("src/pkg", "benchmarks/perf"):
        assert list((tmp_path / part / "__pycache__").glob("mod.*.pyc"))


def test_a_single_pair_is_its_own_quartiles():
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert _verdict(HIGHER, [100.0], [103.0]) == "within bound"
