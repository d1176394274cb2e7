"""Tests for open-loop arrival schedules and the open-loop driver."""

import random

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.iface.interface import Interface
from repro.kernel.admission import install_admission
from repro.kernel.errors import ConfigurationError
from repro.resilience.retry import RetryPolicy
from repro.workloads.arrivals import (
    merge_arrivals,
    poisson_arrivals,
    run_open_loop,
)


class TestPoisson:
    def test_deterministic_under_seed(self):
        a = poisson_arrivals(50.0, 200, random.Random(3))
        b = poisson_arrivals(50.0, 200, random.Random(3))
        assert a == b

    def test_monotone_and_anchored(self):
        times = poisson_arrivals(10.0, 100, random.Random(1), start=5.0)
        assert len(times) == 100
        assert times[0] >= 5.0
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))

    def test_rate_sets_the_mean_gap(self):
        times = poisson_arrivals(100.0, 4000, random.Random(2))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / 100.0, rel=0.1)


class TestMerge:
    def test_sorted_with_lane_tiebreak(self):
        merged = merge_arrivals({"b": [1.0, 3.0], "a": [1.0, 2.0]})
        assert merged == [(1.0, "a"), (1.0, "b"), (2.0, "a"), (3.0, "b")]


def _loop_system(seed, admission=None):
    system = repro.make_system(seed=seed)
    server = system.add_node("srv").create_context("main")
    ref = get_space(server).export(KVStore(),
                                   interface=Interface.of(KVStore),
                                   policy="stub")
    clients = []
    for i in range(4):
        ctx = system.add_node(f"c{i}").create_context("main")
        clients.append((f"c{i}", ctx,
                        get_space(ctx).bind_ref(ref, handshake=True)))
    if admission:
        install_admission(server.node, **admission)
    system.rpc.retry_policy = RetryPolicy(attempts=1)
    return system, server, clients


class TestOpenLoop:
    def test_every_arrival_is_classified(self):
        system, server, clients = _loop_system(seed=5)
        times = poisson_arrivals(200.0, 60, random.Random(5), start=0.05)

        def issue(proxy, index):
            proxy.put(f"k{index % 8}", index)

        results = run_open_loop({"lane": (clients, issue)},
                                merge_arrivals({"lane": times}))
        lane = results["lane"]
        assert lane.attempted == 60
        assert lane.completed + lane.shed + lane.failed == 60
        assert lane.shed == 0 and lane.failed == 0
        assert len(lane.latencies) == lane.completed
        assert lane.span > 0
        assert lane.goodput() == pytest.approx(lane.completed / lane.span)

    def test_sheds_are_counted_not_raised(self):
        system, server, clients = _loop_system(
            seed=5, admission={"rate": 50.0, "burst": 1.0})
        times = poisson_arrivals(400.0, 80, random.Random(6), start=0.05)

        def issue(proxy, index):
            proxy.put("k", index)

        results = run_open_loop({"lane": (clients, issue)},
                                merge_arrivals({"lane": times}))
        lane = results["lane"]
        assert lane.shed > 0, "a 50/s bucket under 400/s offered must shed"
        assert lane.completed + lane.shed + lane.failed == 80
        counters = server.node.admission.snapshot()
        assert counters["shed_throttle"] >= lane.shed

    def test_slo_filters_goodput(self):
        system, server, clients = _loop_system(seed=5)
        times = poisson_arrivals(100.0, 40, random.Random(7), start=0.05)

        def issue(proxy, index):
            proxy.get("k")

        results = run_open_loop({"lane": (clients, issue)},
                                merge_arrivals({"lane": times}))
        lane = results["lane"]
        # An SLO wider than every observed latency changes nothing; an
        # impossible one zeroes the goodput.
        assert lane.goodput(10.0) == pytest.approx(lane.goodput())
        assert lane.goodput(0.0) == 0.0
