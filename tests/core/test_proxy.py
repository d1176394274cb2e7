"""Unit tests for the Proxy base class: dispatch, interface, rebinding."""

import pytest

import repro.simtest.workload  # noqa: F401 -- registers the canaries
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.factory import global_policies
from repro.core.proxy import MAX_FORWARDS
from repro.core.service import Service
from repro.iface.interface import operation
from repro.kernel.errors import InterfaceError, RpcTimeout


@pytest.fixture
def bound(pair):
    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    proxy = get_space(client).bind_ref(ref)
    return system, server, client, store, ref, proxy


class TestDispatch:
    def test_operations_forward(self, bound):
        system, server, client, store, ref, proxy = bound
        proxy.put("k", "v")
        assert store.data == {"k": "v"}
        assert proxy.get("k") == "v"

    def test_undeclared_operation_rejected_locally(self, bound):
        system, server, client, store, ref, proxy = bound
        mark = system.trace.mark()
        with pytest.raises(InterfaceError):
            proxy.definitely_not_an_op
        assert not system.trace.since(mark)

    def test_proxy_attributes_are_local(self, bound):
        system, server, client, store, ref, proxy = bound
        assert proxy.proxy_ref == ref
        assert proxy.proxy_context is client
        with pytest.raises(AttributeError):
            proxy.proxy_nonexistent

    def test_underscore_attributes_are_local(self, bound):
        system, server, client, store, ref, proxy = bound
        with pytest.raises(AttributeError):
            proxy._something

    def test_stats_count_invocations(self, bound):
        system, server, client, store, ref, proxy = bound
        proxy.get("a")
        proxy.get("b")
        assert proxy.proxy_stats["invocations"] == 2
        assert proxy.proxy_stats["remote_calls"] == 2

    def test_bound_operation_repr_is_informative(self, bound):
        system, server, client, store, ref, proxy = bound
        assert "get" in repr(proxy.get)

    def test_proxy_is_local_false_for_remote(self, bound):
        system, server, client, store, ref, proxy = bound
        assert not proxy.proxy_is_local


class TestRebinding:
    def test_rebind_updates_table(self, bound):
        system, server, client, store, ref, proxy = bound
        new_ref = ref.moved_to("client1/main")
        proxy.proxy_rebind(new_ref)
        assert proxy.proxy_ref == new_ref
        assert client.proxies[new_ref.key] is proxy

    def test_redirect_is_chased_automatically(self, star):
        system, server, clients = star
        store = KVStore()
        store.put("k", "migrated!")
        space = get_space(server)
        ref = space.export(store)
        # Manually move the object to another context, leaving a pointer.
        other = clients[1]
        new_ref = ref.moved_to(other.context_id)
        get_space(other).export(store, oid=ref.oid, epoch=new_ref.epoch)
        space.mark_migrated(ref.oid, new_ref)
        proxy = get_space(clients[0]).bind_ref(ref, handshake=False)
        assert proxy.get("k") == "migrated!"
        assert proxy.proxy_ref.context_id == other.context_id
        assert proxy.proxy_stats["rebinds"] == 1

    @pytest.mark.parametrize("config, attempts", [({}, 1 + MAX_FORWARDS)])
    def test_unresolvable_redirect_loop_gives_up(self, bound, config,
                                                 attempts):
        system, server, client, store, ref, proxy = bound
        # A forwarding pointer that points back at itself (corrupt state).
        space = get_space(server)
        space.mark_migrated(ref.oid, ref.moved_to(server.context_id))
        proxy.proxy_config.update(config)
        with pytest.raises(RpcTimeout, match="too many migration redirects"):
            proxy.get("k")
        # One first attempt plus ``MAX_FORWARDS`` redirects, each rebound.
        assert proxy.proxy_stats["remote_calls"] == attempts
        assert proxy.proxy_stats["rebinds"] == attempts


class TestLifecycleHooks:
    def test_install_called_once_per_bind(self, pair):
        from repro.core.proxy import Proxy

        installs = []

        class Probe(Proxy):
            proxy_policy_name = "probe-install"

            def proxy_install(self):
                installs.append(self.proxy_ref.key)

        system, server, client = pair
        system.codebase.register_factory(Probe)
        ref = get_space(server).export(KVStore(), policy="probe-install")
        space = get_space(client)
        space.bind_ref(ref)
        space.bind_ref(ref)
        assert len(installs) == 1

    def test_discard_hook_runs(self, pair):
        from repro.core.proxy import Proxy

        discards = []

        class Probe(Proxy):
            proxy_policy_name = "probe-discard"

            def proxy_discard(self):
                discards.append(True)

        system, server, client = pair
        system.codebase.register_factory(Probe)
        ref = get_space(server).export(KVStore(), policy="probe-discard")
        space = get_space(client)
        proxy = space.bind_ref(ref)
        space.discard(proxy)
        assert discards == [True]


class Shadowed(Service):
    """Declares verbs spelled like what were a proxy class's own names."""

    @operation
    def on_export(self, n):
        return n + 1

    @operation
    def policy_name(self):
        return "served"


@pytest.mark.parametrize("policy", sorted(global_policies()))
def test_no_policy_name_shadows_a_verb(pair, policy, monkeypatch):
    # A proxy's own names are ``proxy_*``: every verb of its interface
    # reaches the policy's ``invoke``, whatever class the policy is.
    system, server, client = pair
    config = {"layers": ["stub"]} if policy == "composite" else None
    ref = get_space(server).export(Shadowed(), policy=policy, config=config)
    proxy = get_space(client).bind_ref(ref)
    invoked = []

    def invoke(verb, args, kwargs):
        invoked.append((verb, args))
        return "invoked"

    monkeypatch.setattr(proxy, "invoke", invoke)
    assert proxy.on_export(1) == "invoked"
    assert proxy.policy_name() == "invoked"
    assert invoked == [("on_export", (1,)), ("policy_name", ())]
    assert not {"on_export", "policy_name"} & set(dir(type(proxy)))
