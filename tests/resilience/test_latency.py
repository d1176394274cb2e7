"""Tests for per-link adaptive timeouts (repro.resilience.latency)."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.naming.bootstrap import register
from repro.resilience.latency import (MIN_TIMEOUT, WARMUP, LatencyTracker,
                                      LinkEstimator, ensure_latency)
from repro.resilience.retry import RetryPolicy


class TestLinkEstimator:
    def test_first_sample_seeds_srtt_and_rttvar(self):
        est = LinkEstimator()
        est.observe(0.010)
        assert est.srtt == pytest.approx(0.010)
        assert est.rttvar == pytest.approx(0.005)
        assert est.samples == 1

    def test_jacobson_recurrences(self):
        est = LinkEstimator()
        est.observe(0.010)
        est.observe(0.020)
        # rttvar from the *previous* srtt (RFC 6298 ordering), then srtt.
        assert est.rttvar == pytest.approx(0.75 * 0.005 + 0.25 * 0.010)
        assert est.srtt == pytest.approx(0.875 * 0.010 + 0.125 * 0.020)

    def test_rto_is_srtt_plus_k_deviations(self):
        est = LinkEstimator()
        est.observe(0.010)
        assert est.rto() == pytest.approx(0.010 + 4.0 * 0.005)

    def test_rto_never_drops_below_the_floor(self):
        est = LinkEstimator()
        for _ in range(50):
            est.observe(1e-6)
        assert est.rto() == MIN_TIMEOUT

    def test_stable_link_converges_to_a_tight_rto(self):
        est = LinkEstimator()
        for _ in range(100):
            est.observe(0.010)
        assert est.srtt == pytest.approx(0.010)
        assert est.rto() < 0.012, \
            "a deterministic link's RTO must collapse toward its RTT"

    def test_hedge_delay_keeps_a_margin_on_stable_links(self):
        est = LinkEstimator()
        for _ in range(100):
            est.observe(0.010)
        # The mean deviation collapses to ~0; without the proportional
        # floor the delay would sit *at* the mean and hedge every other
        # request on an ordinary link.
        assert est.hedge_delay() >= 0.010 * 1.4
        assert est.hedge_delay() < est.rto() * 2

    def test_maturity_needs_warmup_samples(self):
        est = LinkEstimator()
        assert not est.mature
        for _ in range(WARMUP):
            est.observe(0.01)
        assert est.mature

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            LinkEstimator().observe(-0.001)


class TestLatencyTracker:
    def test_links_are_keyed_per_pair(self, system):
        tracker = LatencyTracker(system)
        tracker.observe("a", "b", 0.01)
        tracker.observe("a", "c", 0.05)
        assert tracker.peek("a", "b").srtt == pytest.approx(0.01)
        assert tracker.peek("a", "c").srtt == pytest.approx(0.05)
        assert tracker.peek("b", "a") is None
        assert len(tracker) == 2
        assert tracker.samples_total == 2

    def test_patience_falls_back_until_mature(self, system):
        tracker = LatencyTracker(system)
        assert tracker.patience("a", "b", 0.02) == 0.02
        for _ in range(WARMUP - 1):
            tracker.observe("a", "b", 0.004)
        assert tracker.patience("a", "b", 0.02) == 0.02
        tracker.observe("a", "b", 0.004)
        assert tracker.patience("a", "b", 0.02) < 0.02

    def test_hedge_delay_falls_back_until_mature(self, system):
        tracker = LatencyTracker(system)
        assert tracker.hedge_delay("a", "b", 0.01) == 0.01
        for _ in range(WARMUP):
            tracker.observe("a", "b", 0.002)
        assert tracker.hedge_delay("a", "b", 0.01) < 0.01

    def test_budget_is_the_schedule_paced_by_the_rto(self, system):
        tracker = LatencyTracker(system)
        policy = RetryPolicy(attempts=3, multiplier=2.0)
        assert tracker.budget("a", "b", policy) is None
        for _ in range(WARMUP):
            tracker.observe("a", "b", 0.010)
        rto = tracker.peek("a", "b").rto()
        assert tracker.budget("a", "b", policy) == \
            pytest.approx(policy.total_wait(rto))

    def test_snapshot_reports_every_link(self, system):
        tracker = LatencyTracker(system)
        tracker.observe("a", "b", 0.01)
        snap = tracker.snapshot()
        assert set(snap) == {("a", "b")}
        assert snap[("a", "b")] == tracker.peek("a", "b").rto()

    def test_ensure_latency_installs_once(self, system):
        assert system.latency is None
        tracker = ensure_latency(system)
        assert system.latency is tracker
        assert ensure_latency(system) is tracker


class TestProtocolFeed:
    @pytest.fixture
    def kv(self, pair):
        system, server, client = pair
        register(server, "kv", KVStore())
        proxy = repro.bind(client, "kv")
        proxy.put("k", 1)
        return system, server, client, proxy

    def test_no_tracker_means_no_feeding(self, kv):
        system, server, client, proxy = kv
        proxy.get("k")
        assert system.latency is None, \
            "plain systems must not grow latency state behind their back"

    def test_successful_calls_feed_the_installed_tracker(self, kv):
        system, server, client, proxy = kv
        tracker = ensure_latency(system)
        proxy.get("k")
        link = tracker.peek(client.context_id, proxy.proxy_ref.context_id)
        assert link is not None and link.samples >= 1
        assert 0 < link.srtt < system.costs.rpc_timeout

    def test_adaptive_patience_undercuts_the_global_timeout(self, kv):
        """The acceptance bar: a warm LAN link's retry interval must sit
        below the global ``rpc_timeout``-derived patience."""
        system, server, client, proxy = kv
        tracker = ensure_latency(system)
        for _ in range(WARMUP):
            proxy.get("k")
        link_patience = tracker.patience(
            client.context_id, proxy.proxy_ref.context_id,
            system.costs.rpc_timeout)
        assert link_patience < system.costs.rpc_timeout / 2

    def test_adaptive_policy_detects_loss_sooner(self, kv):
        """A lost call under an adaptive warm link must fail faster than
        the same schedule paced by the global timeout."""
        system, server, client, proxy = kv
        ensure_latency(system)
        for _ in range(8):
            proxy.get("k")
        server.node.crash()
        schedule = dict(attempts=2, multiplier=1.0, jitter=0.0)

        before = client.clock.now
        with pytest.raises(repro.kernel.errors.RpcTimeout):
            proxy.proxy_remote("get", ("k",), {},
                               retry=RetryPolicy(**schedule))
        global_paced = client.clock.now - before

        before = client.clock.now
        with pytest.raises(repro.kernel.errors.RpcTimeout):
            proxy.proxy_remote("get", ("k",), {},
                               retry=RetryPolicy(**schedule, adaptive=True))
        adaptive_paced = client.clock.now - before
        assert adaptive_paced < global_paced / 2
