"""Tests for restricted views (capability-style interface narrowing)."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.views import export_view, readonly_view, restrict
from repro.iface.interface import Interface, Operation
from repro.kernel.errors import DanglingReference, InterfaceError


class TestRestrict:
    def test_restrict_keeps_named_ops(self):
        view = restrict(KVStore.interface(), ["get", "contains"])
        assert view.names() == ["contains", "get"]

    def test_restrict_unknown_op_rejected(self):
        with pytest.raises(InterfaceError):
            restrict(KVStore.interface(), ["frobnicate"])

    def test_readonly_view_drops_mutators(self):
        view = readonly_view(KVStore.interface())
        assert "get" in view
        assert "put" not in view
        assert all(op.readonly for op in view.operations.values())

    def test_readonly_view_of_mutator_only_interface_rejected(self):
        iface = Interface("Mutators", [Operation("poke", ("x",))])
        with pytest.raises(InterfaceError):
            readonly_view(iface)

    def test_view_names_are_derived(self):
        assert readonly_view(KVStore.interface()).name == "KVStoreReader"
        assert restrict(KVStore.interface(), ["get"]).name == "KVStoreView"


class TestExportView:
    @pytest.fixture
    def viewed(self, pair):
        system, server, client = pair
        store = KVStore()
        store.put("k", "visible")
        view_ref = export_view(get_space(server), store,
                               readonly_view(KVStore.interface()))
        proxy = get_space(client).bind_ref(view_ref, handshake=False)
        return system, server, client, store, view_ref, proxy

    def test_view_allows_declared_ops(self, viewed):
        system, server, client, store, view_ref, proxy = viewed
        assert proxy.get("k") == "visible"
        assert proxy.contains("k") is True

    def test_view_blocks_undeclared_ops_client_side(self, viewed):
        system, server, client, store, view_ref, proxy = viewed
        with pytest.raises(InterfaceError):
            proxy.put("k", "overwritten")
        assert store.get("k") == "visible"

    def test_view_blocks_forged_calls_server_side(self, viewed):
        """Even a hand-built call on the view's oid is rejected."""
        system, server, client, store, view_ref, proxy = viewed
        with pytest.raises(InterfaceError):
            system.rpc.call(client, view_ref, "put", ("k", "hacked"))
        assert store.get("k") == "visible"

    def test_view_and_full_export_coexist(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        full_ref = space.export(store)
        view_ref = export_view(space, store,
                               readonly_view(KVStore.interface()))
        full = get_space(client).bind_ref(full_ref)
        view = get_space(client).bind_ref(view_ref, handshake=False)
        full.put("k", 1)
        assert view.get("k") == 1

    def test_revoking_view_keeps_full_access(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        full_ref = space.export(store)
        view_ref = export_view(space, store,
                               readonly_view(KVStore.interface()))
        space.unexport(view_ref)
        view = get_space(client).bind_ref(view_ref, handshake=False)
        with pytest.raises(DanglingReference):
            view.get("k")
        full = get_space(client).bind_ref(full_ref)
        assert full.put("k", 1) is True

    def test_view_with_caching_policy(self, pair):
        system, server, client = pair
        store = KVStore()
        store.put("k", 9)
        view_ref = export_view(get_space(server), store,
                               readonly_view(KVStore.interface()),
                               policy="caching",
                               config={"invalidation": False, "ttl": None})
        proxy = get_space(client).bind_ref(view_ref, handshake=False)
        assert proxy.get("k") == 9
        before = client.now
        assert proxy.get("k") == 9
        assert client.now - before < system.costs.remote_latency


class TestViewPolicyServerHalf:
    """A view's policy installs its server half exactly as ``export`` does."""

    @pytest.fixture
    def caching_view(self, star):
        system, server, clients = star
        space = get_space(server)
        view_ref = export_view(space, KVStore(),
                               restrict(KVStore.interface(), ["get", "put"]),
                               policy="caching")
        return system, space, clients, view_ref

    def test_caching_view_gets_control_and_coherence_hook(self, caching_view):
        system, space, clients, view_ref = caching_view
        entry = space.entry(view_ref.oid)
        assert "control" in entry.policy_config
        assert len(entry.mutation_hooks) == 1

    def test_write_through_view_invalidates_other_clients_cache(
            self, caching_view):
        system, space, clients, view_ref = caching_view
        writer = get_space(clients[0]).bind_ref(view_ref)
        reader = get_space(clients[1]).bind_ref(view_ref)
        writer.put("k", 1)
        assert reader.get("k") == 1
        writer.put("k", 2)
        assert reader.get("k") == 2, "the reader's cached 1 was invalidated"

    def test_object_exported_only_as_a_view_travels_as_the_view(self, pair):
        """Shipping the object never widens the capability the view
        narrowed: it marshals as the view's reference, not as a fresh
        full-interface export."""
        system, server, client = pair
        store = KVStore()
        view_ref = export_view(get_space(server), store,
                               readonly_view(KVStore.interface()))
        repro.register(server, "kv", store)
        proxy = repro.bind(client, "kv")
        assert proxy.proxy_ref == view_ref
        with pytest.raises(InterfaceError):
            proxy.put("k", 1)
