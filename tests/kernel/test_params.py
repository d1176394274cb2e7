"""Tests for the cost model and its effect on measurements."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.kernel.errors import ConfigurationError
from repro.kernel.params import DEFAULT_COSTS, CostModel


class TestCostModel:
    def test_defaults_have_sane_ratios(self):
        costs = DEFAULT_COSTS
        assert costs.local_call < costs.ipc_latency < costs.remote_latency
        assert costs.remote_latency < costs.disk_latency * 100
        assert costs.rpc_timeout > 2 * costs.remote_latency

    def test_with_overrides_replaces_only_named(self):
        costs = DEFAULT_COSTS.with_overrides(remote_latency=5e-3)
        assert costs.remote_latency == 5e-3
        assert costs.byte_cost == DEFAULT_COSTS.byte_cost

    @pytest.mark.parametrize("term", ["marshal_fixed", "marshal_byte_cost",
                                      "dispatch_cost", "local_call",
                                      "remote_latency", "rpc_max_retries"])
    @pytest.mark.parametrize("value", [-1e-9, -1, "1e-5", None,
                                       float("nan")])
    def test_a_term_that_is_not_a_cost_is_refused_when_built(self, term,
                                                             value):
        # At the parent both built, and a negative charge raised only when
        # a message first paid it.
        with pytest.raises(ConfigurationError, match=term):
            CostModel(**{term: value})
        with pytest.raises(ConfigurationError, match=term):
            DEFAULT_COSTS.with_overrides(**{term: value})

    def test_zero_costs_are_costs(self):
        free = DEFAULT_COSTS.with_overrides(marshal_fixed=0.0,
                                            dispatch_cost=0, byte_cost=0.0)
        assert free.marshal_fixed == 0.0 and free.dispatch_cost == 0

    def test_cost_model_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.remote_latency = 1.0


class TestCostsDriveMeasurements:
    def _round_trip(self, costs: CostModel | None) -> float:
        system = repro.make_system(seed=7, costs=costs)
        server = system.add_node("s").create_context("m")
        client = system.add_node("c").create_context("m")
        store = KVStore()
        ref = get_space(server).export(store)
        proxy = get_space(client).bind_ref(ref, handshake=False)
        proxy.get("warm")
        before = client.now
        proxy.get("warm")
        return client.now - before

    def test_higher_latency_slower_calls(self):
        slow = DEFAULT_COSTS.with_overrides(remote_latency=1e-2)
        assert self._round_trip(slow) > self._round_trip(None) * 3

    def test_round_trip_at_least_two_hops(self):
        elapsed = self._round_trip(None)
        assert elapsed >= 2 * DEFAULT_COSTS.remote_latency

    def test_byte_costs_matter_for_bulk(self):
        system = repro.make_system(seed=7)
        server = system.add_node("s").create_context("m")
        client = system.add_node("c").create_context("m")
        store = KVStore()
        ref = get_space(server).export(store)
        proxy = get_space(client).bind_ref(ref, handshake=False)
        t0 = client.now
        proxy.put("small", "x")
        small = client.now - t0
        t0 = client.now
        proxy.put("big", "x" * 100_000)
        big = client.now - t0
        assert big > small * 10
