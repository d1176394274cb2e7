"""Unit tests for the principle auditor."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.policies.replicating import replicate
from repro.core.policies.sharding import shard
from repro.core.principle import assert_principle, audit


class TestCleanSystems:
    def test_fresh_system_is_clean(self, star):
        system, server, clients = star
        assert audit(system).clean

    def test_busy_system_is_clean(self, star):
        system, server, clients = star
        repro.register(server, "kv", KVStore())
        for ctx in clients:
            proxy = repro.bind(ctx, "kv")
            proxy.put(f"from-{ctx.context_id}", 1)
        report = audit(system)
        assert report.clean, report.violations
        assert report.proxies_seen > 0
        assert report.exports_seen > 0

    def test_assert_principle_passes_quietly(self, star):
        system, server, clients = star
        assert_principle(system)


    def test_two_groups_bound_at_their_homes_are_clean(self, star):
        # Neither group entry holds an object, so the two cannot alias
        # (I5), and each home proxy sits over its live group entry (I2).
        system, server, clients = star
        first = replicate([server, clients[0]], KVStore)
        second = shard([clients[1], clients[2]], KVStore)
        for ref in (first, second):
            home = get_space(system.context(ref.context_id))
            home.bind_ref(ref).put("k", 1)
        report = audit(system)
        assert report.clean, report.violations


class TestViolationsDetected:
    def test_exported_proxy_detected(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        proxy = get_space(client).bind_ref(ref)
        # ``export`` refuses a proxy; forge the entry behind its back.
        space = get_space(client)
        space.entry(space.export(KVStore()).oid).obj = proxy
        report = audit(system)
        assert any("I4" in violation for violation in report.violations)

    def test_foreign_object_in_proxy_table(self, pair):
        system, server, client = pair
        get_space(client)
        client.proxies["bogus"] = KVStore()  # not a proxy at all
        report = audit(system)
        assert any("I1" in violation for violation in report.violations)

    def test_misfiled_proxy_detected(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        proxy = get_space(client).bind_ref(ref)
        client.proxies["wrong-slot"] = proxy
        report = audit(system)
        assert any("I3" in violation for violation in report.violations)

    def test_home_proxy_without_export_detected(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        proxy = get_space(client).bind_ref(ref)
        # Forge a proxy pointing at the client's own context with no export.
        from dataclasses import replace
        proxy.proxy_ref = replace(ref, context_id=client.context_id)
        client.proxies.clear()
        client.proxies[proxy.proxy_ref.key] = proxy
        report = audit(system)
        assert any("I2" in violation for violation in report.violations)

    def test_raw_object_exported_from_two_contexts(self, pair):
        system, server, client = pair
        store = KVStore()
        get_space(server).export(store)
        get_space(client).export(store)   # the same raw object elsewhere
        report = audit(system)
        assert any("I5" in violation for violation in report.violations)

    def test_assert_principle_raises_with_details(self, pair):
        system, server, client = pair
        get_space(client)
        client.proxies["bogus"] = KVStore()
        with pytest.raises(AssertionError, match="I1"):
            assert_principle(system)


class TestPostMigrationState:
    def test_home_proxy_over_live_export_is_legal(self, pair):
        """The optimised state after migration must not be flagged."""
        system, server, client = pair
        from repro.apps.counter import MigratingCounter
        repro.register(server, "ctr", MigratingCounter())
        proxy = repro.bind(client, "ctr")
        for _ in range(10):
            proxy.incr()
        assert proxy.proxy_is_local
        assert audit(system).clean
