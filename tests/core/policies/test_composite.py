"""Tests for the composite policy: stacked proxy intelligences."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.kernel.errors import BindError, ConfigurationError
from repro.metrics.counters import MessageWindow


@pytest.fixture
def cached_replicas(star):
    """Caching stacked over a 3-way replica group, registered as 'kv'."""
    system, server, clients = star
    ref = repro.replicate([server, clients[1], clients[2]], KVStore,
                          write_quorum=2, extra_layers=["caching"])
    repro.register(server, "kv", ref)
    return system, server, clients


class TestCachingOverReplication:
    def test_layers_instantiated_in_order(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.get("warm")
        assert proxy.proxy_layers == ["CachingProxy", "ReplicatedProxy"]

    def test_reads_hit_cache_after_first(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        with MessageWindow(system) as window:
            assert proxy.get("k") == 1
        assert window.report.messages == 0

    def test_writes_fan_out_to_replicas(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        with MessageWindow(system) as window:
            proxy.put("k", 1)
        assert window.report.messages >= 6

    def test_write_invalidates_outer_cache(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        proxy.get("k")
        proxy.put("k", 2)
        assert proxy.get("k") == 2

    def test_survives_replica_crash(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        server.node.crash()
        assert proxy.get("k") == 1

    def test_principle_holds(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        proxy.get("k")
        repro.assert_principle(system)


class TestQuorumProtocolSurvivesTheStack:
    """The group's protocol choice must reach the replicated layer: a
    hand-kept key whitelist once dropped ``read_quorum``/``version_key``/
    ``elect``, so replicas were armed for elections while the client spoke
    plain write-all — no version log, no fencing."""

    def test_cached_elected_group_runs_the_versioned_protocol(self, star):
        system, server, clients = star
        contexts = [server, clients[1], clients[2]]
        ref = repro.replicate(contexts, KVStore, read_quorum=2,
                              write_quorum=2, version_key="arg0",
                              elect=True, extra_layers=["caching"])
        repro.register(server, "kv", ref)
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        replicated = proxy._build_stack()[1]
        assert replicated._versioned and replicated._elected
        logs = [entry.replica_log.digest()
                for ctx in contexts
                for entry in ctx.exports.values()
                if entry.election is not None]
        assert logs == [[["k", 1, 1]]] * 3


class TestCrossClientCoherence:
    """A write through one client's stack must invalidate every other
    client's cache — including when the write lands on a replica stub
    entry rather than the group entry (the mirrored mutation hooks)."""

    @pytest.fixture
    def shared_group(self, star):
        system, server, clients = star
        ref = repro.replicate([server, clients[2]], KVStore,
                              extra_layers=["caching"])
        repro.register(server, "kv", ref)
        return system, server, clients, ref

    def test_remote_write_invalidates_other_clients_cache(self,
                                                          shared_group):
        system, server, clients, ref = shared_group
        reader = repro.bind(clients[0], "kv")
        writer = repro.bind(clients[1], "kv")
        reader.put("k", 1)
        assert reader.get("k") == 1    # now cached at the reader
        writer.put("k", 2)
        assert reader.get("k") == 2, \
            "reader served a stale cache entry after a remote write"
        assert writer.get("k") == 2

    def test_writes_in_both_directions_stay_coherent(self, shared_group):
        system, server, clients, ref = shared_group
        a = repro.bind(clients[0], "kv")
        b = repro.bind(clients[1], "kv")
        for round_no in range(3):
            a.put("k", ("a", round_no))
            assert b.get("k") == ("a", round_no)
            b.put("k", ("b", round_no))
            assert a.get("k") == ("b", round_no)

    def test_replica_entries_share_the_group_hooks(self, shared_group):
        system, server, clients, ref = shared_group
        group_entry = get_space(server).entry(ref.oid)
        assert group_entry.mutation_hooks, \
            "the caching layer should install a coherence hook on export"
        mirrored = 0
        for replica_ref in group_entry.policy_config["replicas"]:
            for ctx in (server, clients[2]):
                try:
                    entry = get_space(ctx).entry(replica_ref.oid)
                except BindError:
                    continue
                assert entry.mutation_hooks is group_entry.mutation_hooks
                mirrored += 1
        assert mirrored == 2


class TestCompiledStack:
    """The first call builds the stack and compiles it: the composite's
    ``invoke`` becomes the outer layer's.  Discarding or releasing the
    composite un-compiles it."""

    @staticmethod
    def _control(system, proxy):
        ref = proxy.proxy_ref
        entry = get_space(system.context(ref.context_id)).entry(ref.oid)
        return entry.mutation_hooks[0]._control

    def test_an_operation_bound_before_the_first_call_runs_compiled(
            self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        get, put = proxy.get, proxy.put     # no stack built yet
        assert "invoke" not in vars(proxy)
        put("k", 1)
        cache = proxy._build_stack()[0]
        assert vars(proxy)["invoke"] == cache.invoke
        assert get("k") == 1                # the miss fills the cache
        with MessageWindow(system) as window:
            assert get("k") == 1
        assert window.report.messages == 0
        assert cache.proxy_stats["invocations"] == 3
        assert cache.proxy_stats["hits"] == 1
        # Only the call that built the stack entered the composite itself.
        assert proxy.proxy_stats["invocations"] == 1

    def test_a_discarded_composite_rebuilds_and_stays_coherent(
            self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        control = self._control(system, proxy)
        assert control.subscribers == 1
        stack = proxy._stack
        proxy.proxy_discard()
        assert control.subscribers == 0
        assert "invoke" not in vars(proxy) and proxy._stack is None
        assert proxy.get("k") == 1          # rebuilds, re-registers
        assert proxy._stack is not stack
        assert control.subscribers == 1
        assert proxy.get("k") == 1          # a hit on the new stack
        writer = repro.bind(clients[1], "kv")
        writer.put("k", 2)
        assert proxy.get("k") == 2

    def test_release_drops_the_compiled_entry(self, cached_replicas):
        system, server, clients = cached_replicas
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        cache = proxy._stack[0]
        proxy.proxy_release()
        assert "invoke" not in vars(proxy)
        assert "get" not in vars(proxy)     # no bound operation either
        assert cache._callback_obj is None

    def test_a_composite_in_steady_use_survives_a_sweep(
            self, cached_replicas):
        system, server, clients = cached_replicas
        ctx = clients[0]
        proxy = repro.bind(ctx, "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        ctx.clock.advance(10.0)
        assert proxy.get("k") == 1          # a hit stamps the composite
        get_space(ctx).sweep(unused_for=5.0)
        assert ctx.proxies[proxy.proxy_ref.key] is proxy
        with MessageWindow(system) as window:
            assert proxy.get("k") == 1
        assert window.report.messages == 0
        get_space(ctx).sweep(unused_for=0.0)
        assert proxy.proxy_ref.key not in ctx.proxies


class TestResilientOverCaching:
    """Resilience stacked outside a cache: config must thread through the
    composite to the right layer, and cache hits must bypass the wire."""

    @pytest.fixture
    def guarded_cache(self, star):
        system, server, clients = star
        store = KVStore()
        get_space(server).export(
            store, policy="composite",
            config={"layers": ["resilient", "caching"],
                    "invalidation": True,
                    "retry": {"attempts": 2},
                    "stale_reads": False})
        repro.register(server, "kv", store)
        return system, server, clients

    def test_layers_instantiated_in_order(self, guarded_cache):
        system, server, clients = guarded_cache
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.proxy_layers == ["ResilientProxy", "CachingProxy"]

    def test_shared_config_reaches_the_resilient_layer(self, guarded_cache):
        system, server, clients = guarded_cache
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        resilient = proxy._build_stack()[0]
        assert resilient.proxy_retry.attempts == 2
        assert resilient.proxy_config["stale_reads"] is False

    def test_cache_hits_bypass_the_resilient_layer_wire(self, guarded_cache):
        system, server, clients = guarded_cache
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        with MessageWindow(system) as window:
            assert proxy.get("k") == 1
        assert window.report.messages == 0

    def test_cached_read_survives_server_crash(self, guarded_cache):
        system, server, clients = guarded_cache
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        server.node.crash()
        assert proxy.get("k") == 1

    def test_invalidation_still_works_through_the_stack(self, guarded_cache):
        system, server, clients = guarded_cache
        a = repro.bind(clients[0], "kv")
        b = repro.bind(clients[1], "kv")
        a.put("k", 1)
        assert b.get("k") == 1
        a.put("k", 2)
        assert b.get("k") == 2


class TestConfiguration:
    def test_empty_layers_rejected(self, pair):
        system, server, client = pair
        store = KVStore()
        with pytest.raises(ConfigurationError):
            get_space(server).export(store, policy="composite",
                                     config={"layers": []})

    def test_nested_composite_rejected(self, pair):
        system, server, client = pair
        store = KVStore()
        with pytest.raises(ConfigurationError):
            get_space(server).export(
                store, policy="composite",
                config={"layers": ["composite", "stub"]})

    def test_unknown_layer_rejected(self, pair):
        system, server, client = pair
        store = KVStore()
        with pytest.raises(ConfigurationError):
            get_space(server).export(store, policy="composite",
                                     config={"layers": ["martian"]})

    @pytest.mark.parametrize("layers", [["nope"], ["caching", "nope"], []],
                             ids=["unknown", "unknown-under-caching",
                                  "empty"])
    def test_a_refused_export_leaves_nothing_behind(self, pair, layers):
        # At the parent the entry was registered before the composite met
        # the unknown layer, so the KVStore stayed exported (and under
        # caching, so did its invalidation control).
        system, server, client = pair
        space = get_space(server)
        store = KVStore()
        exports, ids = dict(server.exports), dict(space._exported_ids)
        with pytest.raises(ConfigurationError):
            space.export(store, policy="composite",
                         config={"layers": layers})
        assert server.exports == exports
        assert space._exported_ids == ids
        # The refusal did not taint the object: it exports as usual.
        ref = space.export(store)
        assert space.ref_of(store) == ref

    def test_a_refused_export_keeps_the_revoked_entry_it_replaces(self, pair):
        system, server, client = pair
        space = get_space(server)
        ref = space.export(KVStore(), oid="kv")
        space.unexport(ref)
        revoked = server.exports["kv"]
        with pytest.raises(ConfigurationError):
            space.export(KVStore(), policy="composite",
                         config={"layers": ["nope"]}, oid="kv")
        assert server.exports["kv"] is revoked
