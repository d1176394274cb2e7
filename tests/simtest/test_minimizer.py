"""Minimizer convergence: shrink a convicted case, keep the conviction."""

import json
import pathlib

from repro.simtest import build_case, minimize_case, runner
from repro.simtest.checker import DEFAULT_MAX_NODES, CheckResult
from repro.simtest.runner import SimCase, _violates, run_case

CORPUS = pathlib.Path(__file__).parent / "regressions"


def _dirty_case():
    # Fault-free dirty-cache run: every put is an "ok" the checker must
    # honour, so the stale reads have no escape hatch.  Known-violating.
    return build_case(0, "dirtycache", service="kv", ops=30, chaos=False)


def test_minimizer_converges_and_preserves_the_violation():
    case = _dirty_case()
    assert _violates(case, DEFAULT_MAX_NODES)
    minimized = minimize_case(
        case, lambda c: _violates(c, DEFAULT_MAX_NODES))
    assert minimized.ops < case.ops
    assert minimized.faults == ()
    assert _violates(minimized, DEFAULT_MAX_NODES)


def test_minimizer_is_deterministic():
    shrink = lambda: minimize_case(        # noqa: E731
        _dirty_case(), lambda c: _violates(c, DEFAULT_MAX_NODES))
    assert shrink().to_json() == shrink().to_json()


def test_minimizer_drops_irrelevant_faults():
    # Chaos faults on a dirty cache are noise: the fault-free prefix
    # already violates, so phase 1 should strip every droppable fault.
    case = build_case(7, "dirtycache", service="kv", ops=30)
    assert case.faults, "seed 7 is expected to carry chaos"
    assert _violates(case, DEFAULT_MAX_NODES)
    minimized = minimize_case(
        case, lambda c: _violates(c, DEFAULT_MAX_NODES))
    assert len(minimized.faults) < len(case.faults)
    assert _violates(minimized, DEFAULT_MAX_NODES)


def test_minimizer_budget_is_respected():
    case = _dirty_case()
    assert minimize_case(case, lambda c: True, max_runs=0) == case


def test_minimizer_returns_original_when_nothing_shrinks():
    case = _dirty_case()
    assert minimize_case(case, lambda c: False) == case


def test_report_and_minimizer_share_one_verdict(monkeypatch):
    # A checker that runs out of budget settles nothing, so the collapse
    # SLO still convicts: the report must say what the minimizer sees.
    data = json.loads((CORPUS / "shedless-lock-seed2-convicted.json")
                      .read_text(encoding="utf-8"))
    case = SimCase.from_json(data["case"])
    monkeypatch.setattr(runner, "check_history",
                        lambda *args, **kwargs: CheckResult(True, capped=True))
    report = run_case(case, minimize=False)
    assert report.verdict == "violation"
    assert report.violation.partition == "overload-collapse"
    assert _violates(case, DEFAULT_MAX_NODES)
