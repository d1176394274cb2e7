"""Tests for the caching proxy: hits, TTL, invalidation, coherence."""


import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.policies.caching import (DEFAULT_TTL, CachingProxy,
                                         invalidated_values)
from repro.core.service import Service
from repro.iface.interface import Operation
from repro.kernel.errors import ConfigurationError
from repro.metrics.counters import MessageWindow
from repro.simtest.workload import DirtyCachingProxy


def deploy(server, policy_config):
    store = KVStore()
    get_space(server).export(store, policy="caching", config=policy_config)
    repro.register(server, "kv", store)
    return store


class TestReadCaching:
    def test_repeat_reads_hit_cache(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": True})
        proxy = repro.bind(client, "kv")
        proxy.put("k", 1)
        with MessageWindow(system) as window:
            first = proxy.get("k")
            second = proxy.get("k")
            third = proxy.get("k")
        assert first == second == third == 1
        assert window.report.messages == 2, "one round trip, two hits"
        assert proxy.proxy_stats["hits"] == 2

    def test_cache_hit_is_fast(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": True})
        proxy = repro.bind(client, "kv")
        proxy.get("k")
        before = client.now
        proxy.get("k")
        assert client.now - before < system.costs.ipc_latency

    def test_distinct_keys_cached_separately(self, pair):
        system, server, client = pair
        store = deploy(server, {"invalidation": True})
        store.data.update(a=1, b=2)
        proxy = repro.bind(client, "kv")
        assert proxy.get("a") == 1
        assert proxy.get("b") == 2
        assert proxy.proxy_stats["misses"] == 2

    def test_readonly_with_kwargs_bypasses_cache(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": True})
        proxy = repro.bind(client, "kv")
        proxy.get(key="k")
        proxy.get(key="k")
        assert proxy.proxy_stats["hits"] == 0


class TestOwnWrites:
    def test_own_write_invalidates_affected_key(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": False, "ttl": None})
        proxy = repro.bind(client, "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        proxy.put("k", 2)
        assert proxy.get("k") == 2, "stale cache would return 1"

    def test_own_write_keeps_unrelated_keys(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": False, "ttl": None})
        proxy = repro.bind(client, "kv")
        proxy.put("a", 1)
        proxy.put("b", 2)
        proxy.get("a")
        proxy.get("b")
        proxy.put("a", 3)
        with MessageWindow(system) as window:
            assert proxy.get("b") == 2
        assert window.report.messages == 0, "b must still be cached"

    def test_invalidation_matches_arguments_not_the_verb(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": False, "ttl": None})
        proxy = repro.bind(client, "kv")
        for key in ("get", "a", "b", 1):
            proxy.get(key)
        assert proxy.proxy_cache_size == 4
        # "get" is every key's verb, but only one key's argument.
        assert proxy.proxy_cache_invalidate(("get",)) == 1
        assert proxy.proxy_cache_invalidate(("zz", "get")) == 0
        assert proxy.proxy_cache_invalidate(("zz", 1.0, "b")) == 2
        assert sorted(proxy._cache) == [("get", "a")]
        assert proxy.proxy_cache_invalidate(("*",)) == 1
        assert proxy.proxy_cache_size == 0

    def test_delete_invalidates(self, pair):
        system, server, client = pair
        deploy(server, {"invalidation": False, "ttl": None})
        proxy = repro.bind(client, "kv")
        proxy.put("k", 1)
        proxy.get("k")
        proxy.delete("k")
        assert proxy.get("k") is None


class TestTtl:
    def test_entries_expire(self, pair):
        system, server, client = pair
        store = deploy(server, {"invalidation": False, "ttl": 0.01})
        proxy = repro.bind(client, "kv")
        proxy.put("k", 1)
        proxy.get("k")
        store.data["k"] = 99           # out-of-band server change
        client.clock.advance(0.02)     # beyond the TTL
        assert proxy.get("k") == 99

    def test_entries_survive_within_ttl(self, pair):
        system, server, client = pair
        store = deploy(server, {"invalidation": False, "ttl": 10.0})
        proxy = repro.bind(client, "kv")
        proxy.get("k")
        store.data["k"] = 99
        assert proxy.get("k") is None, "within TTL the stale value stands"

    @pytest.mark.parametrize("ttl", ["5", -1.0, float("nan")])
    def test_a_malformed_ttl_is_refused_at_bind(self, pair, ttl):
        system, server, client = pair
        deploy(server, {"invalidation": False, "ttl": ttl})
        with pytest.raises(ConfigurationError, match="ttl"):
            repro.bind(client, "kv")

    def test_a_malformed_shipped_ttl_is_refused_at_upgrade(self, pair):
        system, server, client = pair
        ref = get_space(server).export(
            KVStore(), policy="caching",
            config={"invalidation": False, "ttl": True})
        proxy = get_space(client).bind_ref(ref, handshake=False)
        with pytest.raises(ConfigurationError, match="ttl"):
            get_space(client).upgrade(proxy)


class TestTtlRefresh:
    """The TTL a hit checks is an attribute: each place its inputs change
    recomputes it."""

    def test_an_upgrade_brings_the_shipped_ttl(self, pair):
        system, server, client = pair
        ref = get_space(server).export(
            KVStore(), policy="caching",
            config={"ttl": 0.5, "invalidation": False})
        proxy = get_space(client).bind_ref(ref, handshake=False)
        get_space(client).upgrade(proxy)
        proxy.get("k")
        client.clock.advance(0.4)
        proxy.get("k")
        assert proxy.proxy_stats["hits"] == 1
        client.clock.advance(0.2)
        proxy.get("k")
        assert proxy.proxy_stats["misses"] == 2

    def test_registering_for_invalidations_lifts_the_default_ttl(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore(), policy="caching")
        proxy = get_space(client).bind_ref(ref, handshake=False)
        proxy.get("k")
        client.clock.advance(DEFAULT_TTL + 0.01)
        proxy.get("k")
        assert proxy.proxy_stats["misses"] == 2, "DEFAULT_TTL expired it"
        get_space(client).upgrade(proxy)
        client.clock.advance(1.0)
        with MessageWindow(system) as window:
            proxy.get("k")
        assert window.report.messages == 0
        assert proxy.proxy_stats["hits"] == 1

    def test_the_dirty_canary_still_caches_forever(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore(), policy="dirtycache")
        proxy = get_space(client).bind_ref(ref)
        assert isinstance(proxy, DirtyCachingProxy)
        proxy.get("k")
        client.clock.advance(1e6)
        proxy.get("k")
        assert proxy.proxy_stats["hits"] == 1


class Janitor(Service):
    """A service whose verb shares its name with a caching-proxy method."""

    def __init__(self):
        self.calls = []

    @repro.operation
    def cache_invalidate(self, values):
        self.calls.append(values)
        return "served"


@pytest.mark.parametrize("policy", ["stub", "caching"])
def test_a_verb_named_cache_invalidate_reaches_the_service(pair, policy):
    system, server, client = pair
    janitor = Janitor()
    ref = get_space(server).export(janitor, policy=policy)
    proxy = get_space(client).bind_ref(ref)
    assert proxy.cache_invalidate(("x",)) == "served"
    assert janitor.calls == [("x",)]


class TestServerInvalidation:
    def test_other_clients_cache_is_invalidated(self, star):
        system, server, clients = star
        deploy(server, {"invalidation": True})
        a = repro.bind(clients[0], "kv")
        b = repro.bind(clients[1], "kv")
        a.put("k", 1)
        assert b.get("k") == 1
        a.put("k", 2)
        assert b.get("k") == 2, "b's cache entry must have been invalidated"

    def test_uncached_writer_also_triggers_invalidation(self, star):
        system, server, clients = star
        deploy(server, {"invalidation": True})
        reader = repro.bind(clients[0], "kv")
        reader.put("k", 1)
        assert reader.get("k") == 1
        # A plain write arriving via a different client's caching proxy.
        writer = repro.bind(clients[2], "kv")
        writer.put("k", 7)
        assert reader.get("k") == 7

    def test_callback_registered_and_unregistered(self, pair):
        system, server, client = pair
        store = deploy(server, {"invalidation": True})
        entry = get_space(server).entry(get_space(server).ref_of(store).oid)
        control = entry.mutation_hooks[0]._control
        proxy = repro.bind(client, "kv")
        proxy.get("k")
        assert control.subscribers == 1
        get_space(client).discard(proxy)
        assert control.subscribers == 0

    def test_invalidation_messages_are_oneway(self, star):
        system, server, clients = star
        deploy(server, {"invalidation": True})
        a = repro.bind(clients[0], "kv")
        b = repro.bind(clients[1], "kv")
        b.get("k")
        mark = system.trace.mark()
        a.put("k", 5)
        labels = [ev.label for ev in system.trace.since(mark)
                  if ev.kind == "send"]
        assert any(label.startswith("one:") for label in labels)

    def test_one_put_sends_one_invalidate_per_registered_cache(self, system):
        # Two caches in two contexts of one node plus the writer's own:
        # every registered cache gets its own one-way, in registration
        # order, and nothing else leaves the server one-way.
        server = system.add_node("server").create_context("main")
        shared = system.add_node("shared")
        contexts = [shared.create_context("a"), shared.create_context("b"),
                    system.add_node("writer").create_context("main")]
        ref = get_space(server).export(KVStore(), policy="caching")
        a, b, writer = (get_space(ctx).bind_ref(ref, handshake=True)
                        for ctx in contexts)
        writer.put("k", 1)
        assert (a.get("k"), b.get("k")) == (1, 1)
        mark = system.trace.mark()
        writer.put("k", 2)
        oneways = [(ev.label, ev.dst) for ev in system.trace.since(mark)
                   if ev.kind == "send"
                   and ev.label not in ("req:put", "rep")]
        assert oneways == [("one:invalidate", ctx.context_id)
                           for ctx in contexts]
        assert (a.get("k"), b.get("k")) == (2, 2)


class TestInvalidatedValues:
    def test_named_parameter(self):
        op = Operation("put", ("key", "value"), invalidates=("key",))
        assert invalidated_values(op, ("k1", 5), {}) == ("k1",)

    def test_named_parameter_via_kwargs(self):
        op = Operation("put", ("key", "value"), invalidates=("key",))
        assert invalidated_values(op, (), {"key": "k2", "value": 5}) == ("k2",)

    def test_no_metadata_means_flush_all(self):
        op = Operation("mutate", ("a",))
        assert invalidated_values(op, ("x",), {}) == ("*",)

    def test_star_means_flush_all(self):
        op = Operation("clear", (), invalidates=("*",))
        assert invalidated_values(op, (), {}) == ("*",)


class TestNoHandshakeFallback:
    def test_ref_passed_by_value_degrades_to_ttl(self, pair):
        """A caching ref arriving as an argument still works (TTL mode)."""
        system, server, client = pair
        store = deploy(server, {"invalidation": True})
        holder = KVStore()
        repro.register(server, "holder", holder)
        holder_proxy = repro.bind(client, "holder")
        # Server stores a reference to the cached store under "it":
        holder.data["it"] = store
        got = holder_proxy.get("it")
        assert isinstance(got, CachingProxy)
        got.put("z", 1)
        assert got.get("z") == 1
