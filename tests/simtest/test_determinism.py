"""Determinism gates: same case ⇒ byte-identical report, and no ambient
entropy or wall clock anywhere in ``src/``."""

import importlib.util
import pathlib

import pytest

from repro.simtest import build_case, run_case
from repro.simtest.runner import SimCase, report_json
from repro.simtest.workload import SHIPPED_POLICIES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("policy", SHIPPED_POLICIES + ("dirtycache",))
def test_same_case_twice_is_byte_identical(policy):
    case = build_case(3, policy, ops=18, clients=3)
    first = run_case(case, minimize=False)
    second = run_case(case, minimize=False)
    assert report_json(first) == report_json(second)
    assert first.fingerprint == second.fingerprint
    assert first.streams == second.streams


def test_case_json_round_trip_preserves_the_run():
    case = build_case(5, "stub", ops=18)
    rebuilt = SimCase.from_json(case.to_json())
    assert rebuilt == case
    assert report_json(run_case(rebuilt, minimize=False)) == \
        report_json(run_case(case, minimize=False))


def test_different_seeds_diverge():
    # Sanity check that the fingerprint actually discriminates runs.
    a = run_case(build_case(1, "stub", service="kv", ops=18),
                 minimize=False)
    b = run_case(build_case(2, "stub", service="kv", ops=18),
                 minimize=False)
    assert a.fingerprint != b.fingerprint


def test_build_case_is_a_pure_function_of_its_arguments():
    a = build_case(11, "resilient", ops=24)
    b = build_case(11, "resilient", ops=24)
    assert a == b and a.faults == b.faults


def test_determinism_lint_is_clean_on_this_repo():
    spec = importlib.util.spec_from_file_location(
        "determinism_lint", REPO_ROOT / "tools" / "determinism_lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.lint(REPO_ROOT) == []


def test_determinism_lint_catches_a_plant(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "determinism_lint", REPO_ROOT / "tools" / "determinism_lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The bench layer reads no wall clock either: only the two kernel
    # modules may touch the primitives they wrap.
    for plant in ("src/pkg/bad.py", "src/repro/bench/timing.py"):
        root = tmp_path / plant.replace("/", "_")
        path = root / plant
        path.parent.mkdir(parents=True)
        path.write_text(
            "import random, time\n"
            "def jitter():\n"
            "    return random.random() + time.time()\n"
            "def fine():\n"
            "    return random.Random(42).random()  # seeded: allowed\n",
            encoding="utf-8")
        problems = module.lint(root)
        assert len(problems) == 1 and f"{plant}:3" in problems[0], plant
