"""Tests for the regional policy: geo-aware, breaker-admitted read order."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.policies.regional import RegionalProxy
from repro.core.policies.replicating import replicate
from repro.failures.injectors import begin_crash
from repro.kernel.errors import DistributionError
from repro.kernel.network import LinkSpec
from repro.kernel.topology import build_regions
from repro.naming.bootstrap import install_name_service
from repro.resilience.breaker import ensure_breakers


@pytest.fixture
def regions(system):
    """Two regions × three nodes; returns (east, west) Region objects."""
    east, west = build_regions(system, ["east", "west"], nodes_per_region=3,
                               wan_factor=10.0)
    install_name_service(east.contexts[0])
    return east, west


def deploy(east, west, **kwargs):
    """A three-replica regional group (two east, one west) named 'kv'."""
    ref = replicate([east.contexts[0], east.contexts[1], west.contexts[0]],
                    KVStore, read_policy="regional", policy="regional",
                    extra_config={"regions": ["east", "east", "west"]},
                    **kwargs)
    repro.register(east.contexts[0], "kv", ref)
    return ref


class TestReadOrder:
    def test_clients_get_regional_proxies(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        proxy = repro.bind(west.contexts[2], "kv")
        assert isinstance(proxy, RegionalProxy)

    def test_each_region_prefers_its_own_replicas(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        east_proxy = repro.bind(east.contexts[2], "kv")
        west_proxy = repro.bind(west.contexts[2], "kv")
        east_proxy.put("k", 1)    # resolves the replica groups
        assert east_proxy._read_order_indices(3)[0] in (0, 1)
        assert west_proxy._read_order_indices(3)[0] == 2

    def test_local_read_beats_the_wan(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        proxy = repro.bind(west.contexts[2], "kv")
        proxy.put("k", 1)
        before = west.contexts[2].now
        proxy.get("k")
        elapsed = west.contexts[2].now - before
        assert elapsed < system.costs.remote_latency * 10, \
            "a west read must be answered inside the west region"

    def test_explicit_read_policy_overrides_region_ranking(self, system,
                                                           regions):
        east, west = regions
        ref = replicate([east.contexts[0], east.contexts[1],
                         west.contexts[0]], KVStore, write_quorum=2,
                        read_policy="roundrobin", policy="regional",
                        extra_config={"regions": ["east", "east", "west"]})
        repro.register(east.contexts[0], "kv2", ref)
        proxy = repro.bind(west.contexts[2], "kv2")
        proxy.put("k", 1)
        first, second = (proxy._read_order_indices(3)[0],
                         proxy._read_order_indices(3)[0])
        assert (first, second) != (2, 2), \
            "roundrobin must rotate instead of pinning the near replica"


def _ranked(proxy) -> list[int]:
    """The read order as the ``(refused, foreign, transit, index)`` key
    ranks it, surveyed replica by replica."""
    context = proxy.proxy_context
    regions = proxy.proxy_config.get("regions") or []
    registry = context.system.breakers
    network = context.system.network
    now = context.clock.now

    def rank(index: int) -> tuple:
        region = regions[index] if index < len(regions) else ""
        foreign = 0 if (region and region == context.node.region) else 1
        ref = proxy._replicas[index].proxy_ref
        refused = 0
        if registry is not None:
            breaker = registry.between(context.context_id, ref.context_id)
            refused = 0 if breaker.would_allow(now) else 1
        transit = network.transit_time(context.node.name, ref.node_name, 64)
        return (refused, foreign, transit, index)

    return sorted(range(len(proxy._replicas)), key=rank)


class TestRankedReadOrder:
    """The order is one network ranking, stably re-sorted by
    ``(refused, foreign)``: the order of the full key, whatever state the
    breakers are in, from either region, and after a link changes."""

    @pytest.mark.parametrize("breakers", [None, "closed", "open",
                                          "half-open", "probing"])
    def test_the_order_is_the_full_keys(self, system, regions, breakers):
        east, west = regions
        deploy(east, west, write_quorum=2)
        registry = None if breakers is None else ensure_breakers(
            system, failure_threshold=1, reset_timeout=1.0)
        callers = [east.contexts[0], east.contexts[2], west.contexts[1],
                   west.contexts[2]]
        proxies = [repro.bind(ctx, "kv") for ctx in callers]
        for proxy in proxies:
            proxy.put("k", 1)       # resolves the replica list
        if breakers not in (None, "closed"):
            for proxy in proxies:
                ctx = proxy.proxy_context
                for index in (0, 2):    # one replica in each region
                    breaker = registry.between(
                        ctx.context_id,
                        proxy._replicas[index].proxy_ref.context_id)
                    breaker.record_failure(ctx.clock.now)
                    if breakers != "open":
                        ctx.clock.advance(2.0)
                    if breakers == "probing":
                        assert breaker.allow(ctx.clock.now)
                    # Only a half-open breaker with no probe out admits.
                    assert breaker.would_allow(ctx.clock.now) == \
                        (breakers == "half-open")
        orders = set()
        for proxy in proxies:
            orders.add(tuple(proxy._read_order_indices(3)))
            assert proxy._read_order_indices(3) == _ranked(proxy)
        # A cheap WAN link reorders the foreign replicas by transit.
        system.network.set_link("west-1", "east-1", LinkSpec(1e-6, 0.0))
        system.network.set_link("east-2", "west-0", LinkSpec(1e-6, 0.0))
        for proxy in proxies:
            assert proxy._read_order_indices(3) == _ranked(proxy)
            orders.add(tuple(proxy._read_order_indices(3)))
        assert len(orders) >= 2     # the callers do not all agree


class TestBreakerAdmission:
    def test_open_breaker_demotes_the_near_replica(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        ensure_breakers(system, failure_threshold=2)
        proxy = repro.bind(west.contexts[2], "kv")
        proxy.put("k", 1)
        assert proxy._read_order_indices(3)[0] == 2
        restore = begin_crash(system, "west-0")
        for _ in range(3):    # trip the breaker toward the dead replica
            try:
                proxy.get("k")
            except DistributionError:
                pass
        assert proxy._read_order_indices(3)[0] != 2, \
            "an open breaker must demote the near replica"
        restore()

    def test_reads_survive_the_local_region_outage(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        ensure_breakers(system, failure_threshold=2)
        proxy = repro.bind(west.contexts[2], "kv")
        proxy.put("k", 41)
        restore = begin_crash(system, "west-0")
        values = set()
        for _ in range(4):
            try:
                values.add(proxy.get("k"))
            except DistributionError:
                pass
        assert 41 in values, "reads must retreat to the east majority"
        restore()

    def test_without_breakers_ranking_still_works(self, system, regions):
        east, west = regions
        deploy(east, west, write_quorum=2)
        assert system.breakers is None
        proxy = repro.bind(west.contexts[2], "kv")
        proxy.put("k", 1)
        assert proxy._read_order_indices(3)[0] == 2


class TestQuorumComposition:
    def test_regional_quorum_stays_fresh(self, system, regions):
        """W=2/R=2 over (east, east, west): write east-side while west is
        down, heal, and the very next west read is current — region
        preference never trades away the quorum overlap."""
        east, west = regions
        deploy(east, west, write_quorum=2, read_quorum=2,
               version_key="arg0")
        east_proxy = repro.bind(east.contexts[2], "kv")
        west_proxy = repro.bind(west.contexts[2], "kv")
        east_proxy.put("k", 1)
        restore = begin_crash(system, "west-0")
        east_proxy.put("k", 2)    # commits on the east majority
        restore()
        assert west_proxy.get("k") == 2
