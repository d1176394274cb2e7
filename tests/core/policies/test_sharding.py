"""Tests for the sharded proxy: routing, fencing, rebalancing, composition."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.policies.composite import CompositeProxy
from repro.core.policies.replicating import replicate
from repro.core.policies.sharding import ShardedProxy, shard
from repro.iface.interface import Interface
from repro.kernel.errors import ConfigurationError, DistributionError
from repro.migration.mover import ensure_mover
from repro.naming.bootstrap import install_name_service, name_service_proxy
from repro.wire import shards


def _system(shard_count, clients=2, extra_nodes=()):
    """(system, shard_ctxs, client_ctxs, extras) with plain node names."""
    system = repro.make_system(seed=7)
    shard_ctxs = [system.add_node(f"s{i}").create_context("main")
                  for i in range(shard_count)]
    client_ctxs = [system.add_node(f"c{i}").create_context("main")
                   for i in range(clients)]
    extras = [system.add_node(name).create_context("main")
              for name in extra_nodes]
    return system, shard_ctxs, client_ctxs, extras


def _bind(ctx, ref):
    return get_space(ctx).bind_ref(ref, handshake=True)


def _owner(state, key):
    return state.owner_of(shards.stable_hash(key))


def _keys_by_owner(state, wanted, count=400):
    """The first key name per wanted shard index, scanning k0..k399."""
    found = {}
    for i in range(count):
        key = f"k{i}"
        owner = _owner(state, key)
        if owner in wanted and owner not in found:
            found[owner] = key
        if len(found) == len(wanted):
            break
    return found


class TestConstructionValidation:
    def test_no_contexts(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            shard([], KVStore)

    def test_duplicate_ring_points(self):
        _sys, (ctx,), _clients, _x = _system(1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            shard([ctx], KVStore, ring=[[10, 0], [10, 0]])

    def test_out_of_range_ring_owner(self):
        _sys, (ctx,), _clients, _x = _system(1)
        with pytest.raises(ConfigurationError, match="outside"):
            shard([ctx], KVStore, ring=[[10, 0], [20, 3]])

    def test_non_positive_epoch(self):
        _sys, (ctx,), _clients, _x = _system(1)
        with pytest.raises(ConfigurationError, match="ring_epoch"):
            shard([ctx], KVStore, ring_epoch=0)

    def test_negative_shard_key(self):
        _sys, (ctx,), _clients, _x = _system(1)
        with pytest.raises(ConfigurationError, match="shard_key"):
            shard([ctx], KVStore, shard_key=-1)

    def test_zero_vnodes(self):
        _sys, (ctx,), _clients, _x = _system(1)
        with pytest.raises(ConfigurationError, match="vnodes"):
            shard([ctx], KVStore, vnodes=0)

    def test_proxy_construction_rejects_broken_config(self):
        # The proxy validates at construction, not first call: a client
        # handed a corrupt map fails to bind, not to route.
        _sys, ctxs, (client, _), _x = _system(2)
        proxy = _bind(client, shard(ctxs, KVStore))
        for corrupt in ({"shards": []},
                        {**proxy.proxy_config, "ring_epoch": 0},
                        {**proxy.proxy_config, "shard_key": -2},
                        {**proxy.proxy_config, "ring": [[5, 0], [5, 1]]}):
            with pytest.raises(ConfigurationError):
                ShardedProxy(proxy.proxy_context, proxy.proxy_ref,
                             proxy.proxy_interface, corrupt)


class TestDeployment:
    @pytest.mark.parametrize("deploy, members", [
        (lambda c, f: shard(c[:3], f), 3),
        (lambda c, f: shard([c[:2], c[2:4]], f), 4),
        (lambda c, f: replicate(c[:3], f), 3),
    ], ids=["shard", "shard-of-groups", "replicate"])
    def test_factory_runs_once_per_member_context(self, deploy, members):
        # Every instance is exported and serves; none is built to read an
        # interface off or to stand behind the group entry.
        _sys, ctxs, _clients, _x = _system(4)
        instances = []

        def factory():
            instances.append(KVStore())
            return instances[-1]

        deploy(ctxs, factory)
        assert len(instances) == members
        exported = {id(entry.obj) for ctx in ctxs
                    for entry in ctx.exports.values()}
        assert all(id(instance) in exported for instance in instances)

    @pytest.mark.parametrize("deploy", [
        lambda c: shard(c, KVStore, extra_layers=["nope"]),
        lambda c: shard(c, KVStore, policy="nope"),
        lambda c: shard(c, KVStore, extra_layers=["composite"]),
        lambda c: shard([c[:2], c[2:]], KVStore, extra_layers=["nope"]),
        lambda c: replicate(c, KVStore, extra_layers=["nope"]),
        lambda c: replicate(c, KVStore, policy="nope"),
        lambda c: replicate(c, KVStore, policy="stub"),
        lambda c: replicate(c, KVStore, policy="sharded"),
    ], ids=["shard-layer", "shard-policy", "shard-nested-composite",
            "shard-of-groups-layer", "replicate-layer", "replicate-policy",
            "replicate-stub-policy", "replicate-sharded-policy"])
    def test_a_refused_deploy_leaves_every_context_as_it_was(self, deploy):
        # At the parent every stub shard (and its mover) or replica was
        # exported before the group entry met the unknown name, and stayed.
        _sys, ctxs, _clients, _x = _system(4)
        before = [dict(get_space(ctx).context.exports) for ctx in ctxs]
        with pytest.raises(ConfigurationError):
            deploy(ctxs)
        assert [ctx.exports for ctx in ctxs] == before

    @pytest.mark.parametrize("policy, control", [
        ("replicated", [("proxy_anti_entropy", ())]),
        ("sharded", [("proxy_rebalance", ()), ("proxy_shard_map", ()),
                     ("proxy_split", (0, 0)),
                     ("proxy_move_shard", (0, "c1/main")),
                     ("proxy_publish", (None, "kv"))]),
    ], ids=["replicated", "sharded"])
    def test_member_less_configuration_is_one_error(self, policy, control):
        # A group reference has no object behind it to serve the call
        # instead: every entry point says so, and the lone store is
        # untouched.
        _sys, (server,), (client, _), _x = _system(1)
        store = KVStore()
        proxy = _bind(client, get_space(server).export(store, policy=policy))
        for name, args in [("put", ("a", 1)), ("get", ("a",)), *control]:
            with pytest.raises(ConfigurationError,
                               match=f"{policy} policy configured with no"):
                getattr(proxy, name)(*args)
        assert store.data == {}


class TestRouting:
    def test_client_gets_sharded_proxy_with_zero_client_change(self):
        _sys, ctxs, (client, _), _x = _system(2)
        proxy = _bind(client, shard(ctxs, KVStore))
        assert isinstance(proxy, ShardedProxy)
        proxy.put("k", "v")
        assert proxy.get("k") == "v"

    def test_keys_land_on_their_ring_owner(self):
        _sys, ctxs, (client, _), _x = _system(4)
        proxy = _bind(client, shard(ctxs, KVStore))
        state = shards.ShardState(-1, *proxy.proxy_shard_map(sync=False))
        for i in range(40):
            proxy.put(f"k{i}", i)
        stores = [get_space(ctx).entry(spec[1]).obj
                  for ctx, spec in zip(ctxs, state.shards)]
        for i in range(40):
            owner = _owner(state, f"k{i}")
            for index, store in enumerate(stores):
                held = store.get(f"k{i}")
                assert (held == i) == (index == owner)

    def test_ring_is_deterministic_across_deployments(self):
        _sys, ctxs, _clients, _x = _system(4)
        sys2, ctxs2, (client2, _), _x2 = _system(4)
        ref1, ref2 = shard(ctxs, KVStore), shard(ctxs2, KVStore)
        space1 = get_space(ctxs[0])
        space2 = get_space(ctxs2[0])
        ring1 = space1.entry(ref1.oid).policy_config["ring"]
        ring2 = space2.entry(ref2.oid).policy_config["ring"]
        assert ring1 == ring2 == shards.default_ring(4)

    def test_single_shard_is_byte_identical_to_stub(self):
        # The degenerate ring sends plain calls: same wire events, same
        # virtual time as a stub binding to the object directly.
        def build(deploy):
            system = repro.make_system(seed=7)
            server = system.add_node("server").create_context("main")
            client = system.add_node("client").create_context("main")
            proxy = _bind(client, deploy(server))
            proxy.put("warm", 0)    # one-time setup outside the window
            return system, client, proxy

        def stub_deploy(server):
            return get_space(server).export(
                KVStore(), interface=Interface.of(KVStore), policy="stub")

        def drive(system, client, proxy):
            mark = system.trace.mark()
            t0 = client.clock.now
            for i in range(12):
                proxy.put(f"k{i % 3}", i)
                assert proxy.get(f"k{i % 3}") == i
            events = [(ev.kind, ev.src, ev.dst, ev.label, ev.size)
                      for ev in system.trace.since(mark)]
            return events, client.clock.now - t0

        sharded = drive(*build(lambda server: shard([server], KVStore)))
        plain = drive(*build(stub_deploy))
        assert sharded[0] == plain[0]
        assert sharded[1] == pytest.approx(plain[1], rel=1e-12)


class TestRebalance:
    def test_mid_call_redirect_and_in_band_heal(self):
        system, ctxs, (writer, reader, healer), _x = _system(2, clients=3)
        ref = shard(ctxs, KVStore)
        operator = _bind(system.add_node("op").create_context("main"), ref)
        proxies = [_bind(ctx, ref) for ctx in (writer, reader, healer)]
        old = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        for i in range(400):
            proxies[0].put(f"k{i}", i)
        assert operator.proxy_rebalance() is not None
        new = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        assert new.epoch == old.epoch + 1
        moved = [f"k{i}" for i in range(400)
                 if _owner(old, f"k{i}") != _owner(new, f"k{i}")]
        kept = [f"k{i}" for i in range(400)
                if _owner(old, f"k{i}") == _owner(new, f"k{i}")]
        assert moved, "the rebalance sweep must move some keys"
        # A stale client calling a *moved* key is fenced with the new map,
        # re-routes, and still reads its data (the arc moved data-and-all).
        assert proxies[1].get(moved[0]) == int(moved[0][1:])
        assert proxies[1].proxy_stats["shard_redirects"] == 1
        # A stale client calling an *unmoved* key is served where it stands
        # and healed in-band — no redirect round trip.
        assert proxies[2].get(kept[0]) == int(kept[0][1:])
        assert proxies[2].proxy_stats["shard_heals"] == 1
        assert proxies[2].proxy_stats["shard_redirects"] == 0
        # Both adopted the new epoch: the next calls are fence-free.
        for proxy in proxies[1:]:
            stats = dict(proxy.proxy_stats)
            assert proxy.get(moved[0]) == int(moved[0][1:])
            assert proxy.proxy_stats["shard_redirects"] == \
                stats["shard_redirects"]
            assert proxy.proxy_stats["shard_heals"] == stats["shard_heals"]

    def test_split_moves_arcs_to_the_target(self):
        _sys, ctxs, (client, _), _x = _system(2)
        ref = shard(ctxs, KVStore)
        operator = _bind(client, ref)
        for i in range(100):
            operator.put(f"k{i}", i)
        old = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        moved = operator.proxy_split(0, 1)
        assert moved > 0
        new = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        assert new.epoch > old.epoch
        donated = sum(1 for i in range(100)
                      if _owner(old, f"k{i}") == 0
                      and _owner(new, f"k{i}") == 1)
        assert donated > 0
        for i in range(100):
            assert operator.get(f"k{i}") == i

    def test_move_shard_relocates_the_object(self):
        system, ctxs, (client, _), (spare,) = _system(
            2, extra_nodes=("spare",))
        ensure_mover(get_space(spare))
        ref = shard(ctxs, KVStore)
        operator = _bind(client, ref)
        stale = _bind(system.add_node("late").create_context("main"), ref)
        for i in range(40):
            operator.put(f"k{i}", i)
        state = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        key = _keys_by_owner(state, {0})[0]
        assert stale.get(key) == int(key[1:])     # routed by the first map
        new_ref = operator.proxy_move_shard(0, spare.context_id)
        assert new_ref.context_id == spare.context_id
        assert operator.proxy_stats["shard_moves"] == 1
        assert operator.get(key) == int(key[1:])
        # A client still holding the pre-move map follows the forward (or
        # the fence) to the new home and reads the same data.
        assert stale.get(key) == int(key[1:])
        assert stale.proxy_stats["rebinds"] == 1
        # Its route was rebuilt: the next read goes straight to the new
        # home, and its map names it.
        stats = dict(stale.proxy_stats)
        assert stale.get(key) == int(key[1:])
        assert stale.proxy_stats["rebinds"] == 1
        assert stale.proxy_stats["shard_redirects"] == \
            stats["shard_redirects"]
        assert stale.proxy_shard_map(sync=False)[2][0] == new_ref.fields()

    def test_a_split_onto_itself_is_refused_and_counts_nothing(self):
        # The source answers a handoff onto its own shard with its map
        # unchanged: no arc moved, so no split may be reported.
        _sys, ctxs, (client, _), _x = _system(3)
        operator = _bind(client, shard(ctxs, KVStore))
        for i in range(40):
            operator.put(f"k{i}", i)
        before = operator.proxy_shard_map(sync=False)
        for index in range(3):
            with pytest.raises(ConfigurationError, match="onto itself"):
                operator.proxy_split(index, index)
            state = operator._shard_state()
            point = [owner for _, owner in state.ring].index(index)
            assert not operator._handoff(state, index, point, index)
        assert operator.proxy_stats["splits"] == 0
        assert operator.proxy_shard_map(sync=False) == before


class TestLocalityIsTheProtocolsBusiness:
    """A shard co-located with its caller — a client next to shard 0, two
    shards of one context handing an arc over — is served by the same
    dispatcher step as a remote one; only the accounting differs."""

    @staticmethod
    def _drive(co_located: bool):
        system, ctxs, (client, _), _x = _system(3)
        if co_located:
            ctxs = [ctxs[0], ctxs[1], ctxs[1]]
        ref = shard(ctxs, KVStore)
        proxy = _bind(ctxs[0] if co_located else client, ref)
        stats = system.rpc.stats
        results = [proxy.put(f"k{i}", i) for i in range(120)]
        results.append(proxy.proxy_split(0, 1))    # source next to the client
        before = stats["local_fast_path"]
        # Source and target share a context (no sweep: it would poll the
        # holders next to the client and blur the peer-call count).
        moved = proxy.proxy_split(1, 2, sync=False)
        peer_calls = stats["local_fast_path"] - before
        results += [moved, proxy.proxy_rebalance()[:2]]
        reads = [proxy.get(f"k{i}") for i in range(120)]
        epoch, ring, specs = proxy.proxy_shard_map()
        stores = [get_space(ctx).entry(spec[1]).obj.data
                  for ctx, spec in zip(ctxs, specs)]
        observed = (results, reads, epoch, ring, stores)
        return observed, moved, peer_calls, proxy.proxy_stats["shard_local"]

    def test_co_located_deployment_matches_the_all_remote_one(self):
        remote, _, remote_peer_calls, remote_local = self._drive(False)
        local, moved, peer_calls, shard_local = self._drive(True)
        assert local == remote
        assert local[1] == list(range(120))
        assert remote_peer_calls == remote_local == 0
        assert shard_local > 0
        # Each arc shard 1 handed to shard 2 was an install plus a commit,
        # both same-context peer calls through the protocol.
        assert moved > 0 and peer_calls == 2 * moved

    def test_replicated_shard_fans_out_from_its_home_context(self):
        # A client in the home context of shard 1's replica group reaches
        # the group through its replicated proxy, like any other client.
        _sys, _ctxs, _clients, extras = _system(
            0, clients=0, extra_nodes=[f"r{i}" for i in range(6)])
        ref = shard([extras[:3], extras[3:]], KVStore,
                    replicate_with={"write_quorum": 2})
        proxy = _bind(extras[3], ref)
        state = shards.ShardState(-1, 1, shards.default_ring(2),
                                  [["a"], ["b"]])
        key = _keys_by_owner(state, {1})[1]
        proxy.put(key, "v")
        group = get_space(extras[3]).entry(proxy.proxy_config["shards"][1][1])
        held = [get_space(ctx).entry(replica.oid).obj.data.get(key)
                for ctx, replica in zip(extras[3:],
                                        group.policy_config["replicas"])]
        assert held == ["v", "v", "v"]
        assert proxy.get(key) == "v"
        assert proxy.proxy_stats["shard_local"] == 2


class TestComposition:
    def test_resilient_over_sharded_stacks(self):
        _sys, ctxs, (client, _), _x = _system(2)
        ref = shard(ctxs, KVStore, extra_layers=["resilient"])
        proxy = _bind(client, ref)
        assert isinstance(proxy, CompositeProxy)
        proxy.put("k", "v")
        assert proxy.get("k") == "v"

    def test_replicated_shards(self):
        _sys, _ctxs, (client, _), extras = _system(
            0, extra_nodes=("r0", "r1", "r2", "r3"))
        ref = shard([extras[:2], extras[2:]], KVStore,
                    replicate_with={"write_quorum": 2})
        proxy = _bind(client, ref)
        for i in range(20):
            proxy.put(f"k{i}", i)
        for i in range(20):
            assert proxy.get(f"k{i}") == i

    def test_one_shard_all_replicas_down(self):
        _sys, _ctxs, (client, _), extras = _system(
            0, extra_nodes=("r0", "r1", "r2", "r3"))
        ref = shard([extras[:2], extras[2:]], KVStore,
                    replicate_with={"write_quorum": 2},
                    extra_layers=["resilient"])
        proxy = _bind(client, ref)
        state = shards.ShardState(
            -1, 1, shards.default_ring(2),
            [["a"], ["b"]])    # owners only; specs unused for routing
        keys = _keys_by_owner(state, {0, 1})
        for key in keys.values():
            proxy.put(key, "v")
        extras[2].node.crash()
        extras[3].node.crash()
        # The surviving shard keeps serving its keys …
        assert proxy.get(keys[0]) == "v"
        # … while the dead shard's keys fail loudly, resilience or not:
        # no other shard owns them, so there is nowhere to fail over to.
        with pytest.raises(DistributionError):
            proxy.get(keys[1])


class TestNaming:
    def test_publish_and_bind_through_the_registry(self):
        system, ctxs, (client, opctx), _x = _system(2)
        install_name_service(ctxs[0])
        registry = name_service_proxy(ctxs[0])
        shard(ctxs, KVStore, registry=registry, name="kv")
        proxy = repro.bind(client, "kv")
        assert isinstance(proxy, ShardedProxy)
        proxy.put("k", "v")
        assert proxy.get("k") == "v"
        ring_map = name_service_proxy(client).lookup("kv.ring")
        assert ring_map[0] == 1
        operator = repro.bind(opctx, "kv")
        assert operator.proxy_rebalance() is not None
        operator.proxy_publish(name_service_proxy(opctx), "kv")
        ring_map = name_service_proxy(client).lookup("kv.ring")
        assert ring_map[0] == 2
