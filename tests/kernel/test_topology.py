"""Tests for topology builders."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.kernel.topology import build_regions
from repro.naming.bootstrap import install_name_service


class TestSites:
    """Sites as regions: LAN inside, WAN between."""

    def test_lan_vs_wan_latency(self, system):
        build_regions(system, ["eu", "us"], nodes_per_region=2,
                      wan_factor=10.0)
        network = system.network
        lan = network.transit_time("eu-0", "eu-1", 0)
        wan = network.transit_time("eu-0", "us-0", 0)
        assert wan == pytest.approx(lan * 10.0)

    def test_wan_is_symmetric(self, system):
        build_regions(system, ["eu", "us"], nodes_per_region=1)
        network = system.network
        assert network.transit_time("eu-0", "us-0", 0) == \
            network.transit_time("us-0", "eu-0", 0)

    def test_three_sites_all_pairs_slow(self, system):
        build_regions(system, ["a", "b", "c"], nodes_per_region=1,
                      wan_factor=5.0)
        network = system.network
        base = system.costs.remote_latency
        for src, dst in (("a-0", "b-0"), ("b-0", "c-0"), ("a-0", "c-0")):
            assert network.transit_time(src, dst, 0) == pytest.approx(base * 5)

    def test_wan_affects_real_calls(self, system):
        sites = build_regions(system, ["eu", "us"], nodes_per_region=1,
                              wan_factor=10.0)
        eu, us = sites[0].contexts[0], sites[1].contexts[0]
        install_name_service(eu)
        repro.register(eu, "kv", KVStore())
        proxy = repro.bind(us, "kv")
        proxy.get("warm")
        before = us.now
        proxy.get("warm")
        elapsed = us.now - before
        assert elapsed >= 2 * system.costs.remote_latency * 10

    def test_replica_placement_pays_off_across_sites(self, system):
        """A replica in the client's site beats the WAN round trip."""
        sites = build_regions(system, ["eu", "us"], nodes_per_region=2,
                              wan_factor=10.0)
        eu0, eu1 = sites[0].contexts
        us0, us1 = sites[1].contexts
        install_name_service(eu0)
        ref = repro.replicate([eu1, us1], KVStore, write_quorum=1)
        repro.register(eu0, "kv", ref)
        proxy = repro.bind(us0, "kv")
        proxy.put("k", 1)
        before = us0.now
        proxy.get("k")
        elapsed = us0.now - before
        # The nearest replica is us-1: a LAN round trip, not a WAN one.
        assert elapsed < system.costs.remote_latency * 10


class TestRegions:
    def test_nodes_are_tagged_with_their_region(self, system):
        east, west = build_regions(system, ["east", "west"],
                                   nodes_per_region=2)
        assert all(ctx.node.region == "east" for ctx in east.contexts)
        assert all(ctx.node.region == "west" for ctx in west.contexts)
        assert {ctx.node.name for ctx in east.contexts} == \
            {"east-0", "east-1"}

    def test_untagged_nodes_default_to_no_region(self, system):
        plain = system.add_node("plain")
        assert plain.region == ""

    def test_lan_vs_wan_latency(self, system):
        build_regions(system, ["east", "west"], nodes_per_region=2,
                      wan_factor=10.0)
        network = system.network
        lan = network.transit_time("east-0", "east-1", 0)
        wan = network.transit_time("east-0", "west-0", 0)
        assert wan > lan * 5

    def test_wan_links_are_symmetric(self, system):
        build_regions(system, ["east", "west"], nodes_per_region=1,
                      wan_factor=10.0)
        network = system.network
        assert network.transit_time("east-0", "west-0", 0) == \
            network.transit_time("west-0", "east-0", 0)

    def test_three_regions_all_pay_the_wan(self, system):
        regions = build_regions(system, ["a", "b", "c"], nodes_per_region=1,
                                wan_factor=10.0)
        assert [region.name for region in regions] == ["a", "b", "c"]
        network = system.network
        lan_like = system.costs.remote_latency
        for src, dst in (("a-0", "b-0"), ("a-0", "c-0"), ("b-0", "c-0")):
            assert network.transit_time(src, dst, 0) >= lan_like * 10
