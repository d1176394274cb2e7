"""E18 bench: invocation fast path — virtual cost by policy."""

from conftest import run_experiment

from repro.bench.experiments import e18_fastpath


def test_e18_fastpath(benchmark):
    rows = run_experiment(benchmark, e18_fastpath, ops=300)
    by_policy = {row["policy"]: row for row in rows}
    assert set(by_policy) == set(e18_fastpath.POLICIES)
    assert by_policy["caching"]["sim_us_per_op"] < \
        by_policy["stub"]["sim_us_per_op"], \
        "caching must beat the stub in virtual time"
    assert by_policy["caching"]["messages"] < by_policy["stub"]["messages"], \
        "caching must send fewer messages than the stub"
    assert by_policy["replicated"]["messages"] > \
        by_policy["stub"]["messages"], \
        "replication fans writes out to replicas"
    assert by_policy["resilient"]["sim_us_per_op"] == \
        by_policy["stub"]["sim_us_per_op"], \
        "with no faults injected, resilience adds no virtual latency"
