"""Unit tests for the object space: export, unexport, swizzle hooks."""

import pytest

from repro.apps.kv import CachedKVStore, KVStore
from repro.core.export import CTXMGR_OID, ObjectSpace, get_space
from repro.core.policies.replicating import replicate
from repro.core.policies.sharding import shard
from repro.core.proxy import is_proxy
from repro.core.principle import assert_principle
from repro.kernel.errors import (
    BindError,
    ConfigurationError,
    ConformanceError,
    DanglingReference,
    EncapsulationViolation,
    ObjectMoved,
)
from repro.iface.interface import Interface, Operation
from repro.metrics.counters import MessageWindow
from repro.rpc.stubs import RemoteStub
from repro.wire import shards
from repro.wire.refs import ObjectRef


class TestExport:
    def test_export_returns_ref_with_policy(self, pair):
        system, server, client = pair
        ref = get_space(server).export(CachedKVStore())
        assert ref.policy == "caching"
        assert ref.interface == "CachedKVStore"
        assert ref.context_id == "server/main"

    def test_explicit_policy_overrides_default(self, pair):
        system, server, client = pair
        ref = get_space(server).export(CachedKVStore(), policy="stub")
        assert ref.policy == "stub"

    def test_unknown_policy_rejected(self, pair):
        system, server, client = pair
        with pytest.raises(ConfigurationError):
            get_space(server).export(KVStore(), policy="nonsense")

    def test_export_registers_interface(self, pair):
        system, server, client = pair
        get_space(server).export(KVStore())
        assert system.codebase.interface("KVStore") is not None

    def test_nonconforming_interface_rejected(self, pair):
        system, server, client = pair
        other = Interface("Other", [Operation("zap", ("a", "b"))])
        with pytest.raises(ConformanceError):
            get_space(server).export(KVStore(), interface=other)

    def test_export_proxy_rejected(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        proxy = get_space(client).bind_ref(ref)
        with pytest.raises(EncapsulationViolation):
            get_space(client).export(proxy)

    def test_duplicate_wellknown_oid_rejected(self, pair):
        system, server, client = pair
        space = get_space(server)
        with pytest.raises(ConfigurationError):
            space.export(KVStore(), oid=CTXMGR_OID)

    def test_ref_of_roundtrip(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        assert get_space(server).ref_of(store) == ref

    def test_ref_of_unexported_rejected(self, pair):
        system, server, client = pair
        with pytest.raises(BindError):
            get_space(server).ref_of(KVStore())

    def test_unexport_makes_reference_dangle(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        proxy = get_space(client).bind_ref(ref)
        space.unexport(store)
        from repro.kernel.errors import DanglingReference
        with pytest.raises(DanglingReference):
            proxy.get("k")

    def test_space_created_once(self, pair):
        system, server, client = pair
        assert get_space(server) is get_space(server)
        with pytest.raises(ConfigurationError):
            ObjectSpace(server)

    def test_ctxmgr_installed_automatically(self, pair):
        system, server, client = pair
        get_space(server)
        assert CTXMGR_OID in server.exports


class TestSwizzleOutbound:
    def test_exported_object_travels_as_ref(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        assert space.context.encoder_hook(store) == ref

    def test_proxy_travels_as_target_ref(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        proxy = get_space(client).bind_ref(ref)
        assert client.encoder_hook(proxy) == ref

    def test_plain_values_untouched(self, pair):
        system, server, client = pair
        get_space(server)
        assert server.encoder_hook(42) is None
        assert server.encoder_hook("text") is None
        assert server.encoder_hook([1, 2]) is None

    def test_unexported_service_object_auto_exports(self, pair):
        system, server, client = pair
        space = get_space(server)
        store = KVStore()
        ref = space.context.encoder_hook(store)
        assert isinstance(ref, ObjectRef)
        assert space.ref_of(store) == ref

    def test_strict_mode_rejects_auto_export(self, system):
        server = system.add_node("s").create_context("m")
        ObjectSpace(server, strict=True)
        with pytest.raises(EncapsulationViolation):
            server.encoder_hook(KVStore())

    def test_migrated_alias_travels_as_forward_ref(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        forward = ref.moved_to("client0/main")
        space.mark_migrated(ref.oid, forward)
        assert server.encoder_hook(store) == forward


class TestSwizzleInbound:
    def test_foreign_ref_becomes_proxy(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        get_space(client)
        value = client.decoder_hook(ref)
        assert is_proxy(value)
        assert value.proxy_ref == ref

    def test_home_ref_becomes_real_object(self, pair):
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        assert server.decoder_hook(ref) is store

    def test_proxy_identity_is_stable(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        get_space(client)
        assert client.decoder_hook(ref) is client.decoder_hook(ref)

    def test_full_loop_proxy_comes_home_as_object(self, pair):
        """A proxy passed back to the object's home arrives as the object."""
        system, server, client = pair
        store = KVStore()
        holder = KVStore()
        store_ref = get_space(server).export(store)
        holder_ref = get_space(server).export(holder)
        client_space = get_space(client)
        store_proxy = client_space.bind_ref(store_ref)
        holder_proxy = client_space.bind_ref(holder_ref)
        # The client stores its *proxy*; at home it unswizzles to the object.
        holder_proxy.put("stored", store_proxy)
        assert holder.data["stored"] is store


class TestBindingContract:
    """``bind_ref`` serves application code (home access is the object);
    ``proxy_for`` serves policies (a member is always a bound proxy)."""

    def test_bind_ref_at_home_is_the_object(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        assert space.bind_ref(ref) is store
        assert space.bind_ref(ref, handshake=False) is store
        assert server.decoder_hook(ref) is store
        assert not server.proxies, "home access interposes no proxy"

    @pytest.mark.parametrize("home", [True, False], ids=["home", "remote"])
    def test_proxy_for_is_one_table_cached_stub(self, pair, home):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        holder = server if home else client
        space = get_space(holder)
        with MessageWindow(system) as window:
            proxy = space.proxy_for(ref)
        assert window.report.messages == 0, "member binds are handshake-less"
        assert is_proxy(proxy) and proxy.proxy_ref == ref
        assert space.proxy_for(ref) is proxy
        assert holder.proxies[ref.key] is proxy
        if not home:
            assert space.bind_ref(ref, handshake=False) is proxy

    def test_proxy_for_accepts_every_shape_a_shipped_member_takes(self, pair):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        proxy = space.proxy_for(ref)
        assert space.proxy_for(store) is proxy    # unswizzled at home
        assert space.proxy_for(proxy) is proxy    # swizzled elsewhere
        with pytest.raises(BindError):
            space.proxy_for(KVStore())            # never exported

    def test_home_stub_runs_the_entry_hooks(self, pair, mutation_log):
        system, server, client = pair
        store = KVStore()
        space = get_space(server)
        ref = space.export(store)
        space.entry(ref.oid).mutation_hooks.append(mutation_log)
        proxy = space.proxy_for(ref)
        proxy.put("k", 1)
        assert proxy.get("k") == 1
        assert store.data == {"k": 1}
        assert mutation_log.fired == [("put", ("k", 1), {})]
        assert_principle(system)    # a home proxy over a live export: I2

    def test_home_stub_answers_from_the_guards(self, pair):
        system, server, client = pair
        space = get_space(server)
        get_space(client)    # the forward's context answers for itself
        moved_ref = space.export(KVStore())
        gone_ref = space.export(KVStore())
        moved, gone = space.proxy_for(moved_ref), space.proxy_for(gone_ref)
        space.mark_migrated(moved_ref.oid,
                            moved_ref.moved_to(client.context_id))
        space.unexport(gone_ref)
        with pytest.raises(DanglingReference):
            gone.get("k")
        with pytest.raises(ObjectMoved):    # what the guard says ...
            system.rpc.call(server, moved_ref, "get", ("k",))
        with pytest.raises(DanglingReference):
            moved.get("k")    # ... and the stub follows: nothing lives there
        assert moved.proxy_ref.context_id == client.context_id


def _deploy_group(kind, star):
    """``(ref, hosts, stores)``: a three-member KV group homed at the
    server; ``kind`` names the deployment helper."""
    _system, server, clients = star
    hosts = [server, clients[0], clients[1]]
    stores = []

    def factory():
        stores.append(KVStore())
        return stores[-1]

    return kind(hosts, factory), hosts, stores


@pytest.mark.parametrize("kind", [replicate, shard])
class TestGroupEntry:
    """A group entry is a reference, a policy and a configuration with no
    object behind it: it serves its proxies' control calls and the
    handshake, and every context — its home included — reaches the group
    through the proxy the reference names."""

    @pytest.mark.parametrize("home", [True, False], ids=["home", "remote"])
    def test_a_verb_is_refused_wherever_it_comes_from(self, star, kind, home):
        system, server, clients = star
        ref, _hosts, stores = _deploy_group(kind, star)
        caller = server if home else clients[2]
        with pytest.raises(EncapsulationViolation, match="group entry"):
            system.rpc.call(caller, ref, "put", ("a", 1))
        with pytest.raises(EncapsulationViolation, match="group entry"):
            RemoteStub(caller, ref).put("a", 1)
        assert [store.data for store in stores] == [{}, {}, {}]

    def test_the_handshake_and_unexport_are_served(self, star, kind):
        system, server, clients = star
        ref, _hosts, _stores = _deploy_group(kind, star)
        entry = get_space(server).entry(ref.oid)
        described = get_space(clients[2]).ctxmgr_proxy(
            server.context_id).describe(ref.oid)
        assert described["policy"] == ref.policy
        assert described["config"].keys() == entry.policy_config.keys()
        get_space(server).unexport(ref)
        with pytest.raises(DanglingReference):
            system.rpc.call(clients[2], ref, "get", ("a",))

    def test_home_access_is_the_group_proxy(self, star, kind):
        system, server, clients = star
        ref, _hosts, stores = _deploy_group(kind, star)
        space = get_space(server)
        assert space.entry(ref.oid).obj is None
        t0 = server.clock.now
        with MessageWindow(system) as window:
            proxy = space.bind_ref(ref)
        report = window.report
        assert (report.messages, report.invokes, server.clock.now) \
            == (0, 0, t0), "the entry is right here: nothing to fetch"
        assert is_proxy(proxy) and proxy.proxy_handshaken
        assert type(proxy) is type(get_space(clients[2]).bind_ref(ref))
        assert space.proxy_for(ref) is proxy is server.decoder_hook(ref)
        assert server.encoder_hook(proxy) == ref
        keys = ["key0", "key1", "key2", "key9", "key10", "key36"]
        for key in keys:    # the default 3-ring puts one on every shard
            proxy.put(key, key)
        remote = get_space(clients[2]).bind_ref(ref)
        assert [remote.get(key) for key in keys] == keys
        assert all(store.data for store in stores), \
            "a write made at the home reaches every member it should"
        assert_principle(system)


def test_a_sharded_group_entry_serves_its_ring_control(star):
    system, server, clients = star
    ref, _hosts, _stores = _deploy_group(shard, star)
    reply = system.rpc.call(clients[2], ref, "", (), {},
                            headers={shards.H_CONTROL: ["map"]})
    assert reply[shards.K_MAP] == \
        get_space(clients[2]).bind_ref(ref).proxy_shard_map(sync=False)
