"""Tests for hedged reads (repro.resilience.policy, ``hedge=True``)."""

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.kernel.network import LinkSpec
from repro.naming.bootstrap import bind, register
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import resilient_group

BREAKER = {"failure_threshold": 2, "reset_timeout": 5.0}
RETRY = {"attempts": 3, "multiplier": 2.0, "jitter": 0.0, "adaptive": True}


def seeded_store():
    store = KVStore()
    store.put("k", "seeded")
    return store


@pytest.fixture
def hedged(star):
    """A hedged resilient group on (server, client0, client1), bound from
    client2, with the link estimators warmed."""
    system, server, clients = star
    group = [server, clients[0], clients[1]]
    ref = resilient_group(group, seeded_store, retry=RETRY,
                          breaker=BREAKER, hedge=True)
    register(server, "kv", ref)
    proxy = bind(clients[2], "kv")
    for _ in range(6):
        proxy.get("k")
    return system, group, clients[2], proxy


def slow_primary_link(system, client, primary):
    """Make the client->primary link ~20x slower than the default, so the
    primary's answer always arrives after the hedge window."""
    spec = LinkSpec(latency=system.costs.remote_latency * 20,
                    byte_cost=system.costs.byte_cost)
    system.network.set_link(client.node.name, primary.node.name, spec)


class TestHedgePolicy:
    """The shipped ``hedge`` switch: off unless ``true``, and then the
    backup waits the link's own p95-ish delay."""

    def test_none_and_false_disable(self, star):
        system, server, clients = star
        for config in ({}, {"hedge": False}):
            ref = get_space(server).export(seeded_store(), policy="resilient",
                                           config=config)
            assert get_space(clients[2]).bind_ref(ref)._hedge is False

    def test_true_enables_the_adaptive_delay(self, hedged):
        system, group, client, proxy = hedged
        assert proxy._hedge is True
        link = system.latency.peek(client.context_id,
                                   proxy.proxy_ref.context_id)
        assert link.mature
        assert proxy._hedge_delay() == link.hedge_delay()


class TestHedgedReads:
    def test_installs_the_latency_tracker(self, hedged):
        system, group, client, proxy = hedged
        assert system.latency is not None

    def test_fast_primary_never_hedges(self, hedged):
        system, group, client, proxy = hedged
        for _ in range(20):
            assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["hedges"] == 0, \
            "a healthy link answering inside the hedge window must not " \
            "pay for backups"

    def test_slow_primary_hedges_and_the_backup_wins(self, hedged):
        system, group, client, proxy = hedged
        slow_primary_link(system, client, group[0])
        before = client.clock.now
        assert proxy.get("k") == "seeded"
        elapsed = client.clock.now - before
        assert proxy.proxy_stats["hedges"] >= 1
        assert proxy.proxy_stats["hedge_wins"] >= 1
        assert elapsed < system.costs.remote_latency * 20, \
            "the winning backup must return before the slow primary's " \
            "round trip completes"

    def test_crashed_primary_is_covered_by_the_backup(self, hedged):
        system, group, client, proxy = hedged
        group[0].node.crash()
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["hedge_wins"] >= 1

    def test_writes_never_hedge(self, hedged):
        system, group, client, proxy = hedged
        slow_primary_link(system, client, group[0])
        proxy.put("k2", 42)
        assert proxy.proxy_stats["hedges"] == 0

    def test_loser_is_discarded_into_the_trace(self, hedged):
        system, group, client, proxy = hedged
        slow_primary_link(system, client, group[0])
        proxy.get("k")
        dropped = system.trace.select(
            kind="promise",
            predicate=lambda ev: ev.label == "dropped-unwaited")
        assert dropped, "the losing leg must be discarded, not leaked"

    def test_both_legs_lost_falls_back_to_the_serial_walk(self, hedged):
        system, group, client, proxy = hedged
        for ctx in group:
            ctx.node.crash()
        # The stale cache was populated by the warmup reads; after the
        # hedge pair and the serial walk both fail, degradation serves it.
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["stale_serves"] == 1

    def test_backup_avoids_replicas_with_open_breakers(self, hedged):
        system, group, client, proxy = hedged
        slow_primary_link(system, client, group[0])
        replicas = proxy._resolve_replicas()
        nearest = proxy._hedge_candidate(replicas, system.breakers,
                                         BREAKER, client.clock.now)
        system.breakers.configure(client.context_id,
                                  nearest.proxy_ref.context_id,
                                  **BREAKER).trip(client.clock.now)
        other = proxy._hedge_candidate(replicas, system.breakers,
                                       BREAKER, client.clock.now)
        assert other is not None
        assert other.proxy_ref.context_id != nearest.proxy_ref.context_id

    def test_co_located_replica_is_an_eligible_backup(self, hedged):
        system, group, _client, _proxy = hedged
        client = group[1]    # hosts read replica 0
        proxy = bind(client, "kv")
        for _ in range(6):
            proxy.get("k")
        slow_primary_link(system, client, group[0])
        served = system.rpc.stats["local_fast_path"]
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["hedge_wins"] == 1
        assert system.rpc.stats["local_fast_path"] == served + 1, \
            "the backup leg went to the replica next to the caller, " \
            "through its export entry"


class TestWouldAllow:
    def test_closed_allows_without_side_effects(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0)
        assert breaker.would_allow(0.0)
        assert breaker.stats["fast_fails"] == 0

    def test_open_refuses_without_counting_a_fast_fail(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert not breaker.would_allow(0.5)
        assert breaker.stats["fast_fails"] == 0, \
            "a survey is not a refused call"

    def test_half_open_probe_is_not_consumed(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.would_allow(2.0)
        assert breaker.would_allow(2.0), \
            "surveying twice must not burn the single half-open probe"
        assert breaker.allow(2.0), "the probe is still there for the dial"
        assert not breaker.allow(2.0)
