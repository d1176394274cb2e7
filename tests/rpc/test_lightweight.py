"""Tests for the LRPC toggle, and for what the fast path may not change:
which guards, hooks and errors serve a call."""

import random

import pytest

import repro
from repro.apps.kv import CachedKVStore, KVStore
from repro.core.export import get_space
from repro.core.policies.sharding import shard
from repro.core.proxy import Proxy
from repro.iface.interface import operation
from repro.kernel.errors import (
    DeadlineExceeded,
    InterfaceError,
    ObjectMoved,
    StaleShardRing,
)
from repro.persistence import PersistenceManager
from repro.resilience.deadline import DEADLINE_HEADER, Deadline
from repro.rpc.lightweight import lrpc_disabled
from repro.wire.marshal import Marshaller


class TestToggles:
    def test_disabled_restores_on_exception(self, pair):
        system, server, client = pair
        try:
            with lrpc_disabled(system.rpc):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert system.rpc.lrpc_enabled


class ProbedKVStore(CachedKVStore):
    """A cached KV store with the awkward operations a stream needs."""

    @operation(oneway=True, invalidates=("key",))
    def touch(self, key):
        self.data[key] = "touched"

    @operation(oneway=True)
    def poke(self, key):
        raise ValueError(key)

    @operation
    def fail(self, key):
        raise ValueError(key)

    @operation
    def relay(self):
        """What a handler's nested call to a migrated object raises."""
        raise ObjectMoved("nested object moved", forward=self.elsewhere)


def _deploy(server, client):
    """(store, ref, remote caching proxy, persistence manager)."""
    store = ProbedKVStore()
    space = get_space(server)
    ref = space.export(store)
    repro.register(server, "kv", store)
    manager = PersistenceManager(space)
    manager.auto_checkpoint(store, every=1)
    return store, ref, repro.bind(client, "kv"), manager


class TestSameContextServedLikeFrames:
    """A same-context caller skips the wire, not the service's machinery."""

    def test_local_write_invalidates_remote_caches_and_checkpoints(self, pair):
        system, server, client = pair
        _store, ref, remote, manager = _deploy(server, client)
        remote.put("a", 1)
        assert remote.get("a") == 1
        dropped = remote.proxy_stats["invalidations"]
        saved = manager.stats["checkpoints"]
        assert system.rpc.call(server, ref, "put", ("a", 2)) is True
        assert remote.proxy_stats["invalidations"] == dropped + 1
        assert remote.get("a") == 2
        assert manager.stats["checkpoints"] == saved + 1

    @pytest.mark.parametrize("lrpc", [True, False])
    def test_plain_call_on_a_rebalanced_shard_is_redirected(self, lrpc):
        system = repro.make_system(seed=7)
        ctxs = [system.add_node(f"s{i}").create_context("main")
                for i in range(2)]
        client = system.add_node("c0").create_context("main")
        operator = get_space(client).bind_ref(shard(ctxs, KVStore),
                                              handshake=True)
        for i in range(40):
            operator.put(f"k{i}", i)
        assert operator.proxy_split(0, 1) > 0
        ring_map = operator.proxy_shard_map(sync=False)
        stub = repro.ObjectRef(*ring_map[2][0])
        system.rpc.lrpc_enabled = lrpc
        with pytest.raises(StaleShardRing) as caught:
            system.rpc.call(ctxs[0], stub, "get", ("k1",))
        assert caught.value.ring_map == ring_map

    @pytest.mark.parametrize("lrpc", [True, False])
    def test_a_spent_deadline_is_refused_wherever_the_target_lives(
            self, pair, lrpc):
        # Fails at the parent with lrpc on: the same-context call was
        # served (and wrote the store) before the budget was looked at.
        system, server, client = pair
        store = KVStore()
        ref = get_space(server).export(store)
        server.clock.advance_to(1.0)
        system.rpc.lrpc_enabled = lrpc
        with pytest.raises(DeadlineExceeded):
            system.rpc.call(server, ref, "put", ("local", 1),
                            deadline=Deadline(0.5))
        assert store.data == {}
        assert system.rpc.stats["deadline_exceeded"] == 1
        assert system.rpc.stats["local_fast_path"] == 0

    @pytest.mark.parametrize("lrpc", [True, False])
    def test_a_nested_call_inherits_the_same_context_callers_deadline(
            self, pair, lrpc, monkeypatch):
        # Fails at the parent with lrpc on: the local path never parked
        # the deadline, so the nested request went out without one.
        system, server, client = pair
        backend = get_space(client).export(KVStore())

        class Relay(KVStore):
            @operation
            def relay(self, key):
                seen.append(server.current_deadline)
                return system.rpc.call(server, backend, "get", (key,))

        seen, sent = [], []
        encode = Marshaller.encode_frame_message

        def spy(self, kind, msg_id, src, dst, target, verb, body, headers):
            if verb == "get":
                sent.append(headers.get(DEADLINE_HEADER))
            return encode(self, kind, msg_id, src, dst, target, verb, body,
                          headers)

        monkeypatch.setattr(Marshaller, "encode_frame_message", spy)
        ref = get_space(server).export(Relay())
        system.rpc.lrpc_enabled = lrpc
        deadline = Deadline(server.now + 5.0)
        assert system.rpc.call(server, ref, "relay", ("k",),
                               deadline=deadline) is None
        assert seen == [deadline]
        assert sent == [deadline.expires_at]
        assert server.current_deadline is None

    def test_local_oneway_drops_application_errors(self, pair):
        system, server, client = pair
        _store, ref, _remote, _manager = _deploy(server, client)
        assert system.rpc.send_oneway(server, ref, "poke", ("k",)) is None

    @pytest.mark.parametrize("caller", ["local", "remote"])
    def test_redirect_raised_by_the_operation_has_no_forward(self, pair,
                                                             caller):
        system, server, client = pair
        store, ref, _remote, _manager = _deploy(server, client)
        store.elsewhere = get_space(client).export(KVStore())
        ctx = server if caller == "local" else client
        proxy = Proxy(ctx, ref, get_space(server).entry(ref.oid).interface)
        with pytest.raises(ObjectMoved) as caught:
            proxy.relay()
        assert caught.value.forward is None
        assert proxy.proxy_ref == ref
        assert proxy.proxy_stats["rebinds"] == 0

    @pytest.mark.parametrize("lrpc", [True, False])
    def test_seeded_stream_matches_the_model_either_way(self, pair, lrpc,
                                                        mutation_log):
        """200 operations from the exporting context: results, exception
        types, hook firings and the remote cache equal a plain in-process
        model's whether or not the fast path is on — so they equal each
        other; only the fast-path counter (and messages, clocks) differ."""
        system, server, client = pair
        store, ref, remote, manager = _deploy(server, client)
        server.exports[ref.oid].mutation_hooks.append(mutation_log)
        system.rpc.lrpc_enabled = lrpc
        rpc, model, rng = system.rpc, ProbedKVStore(), random.Random(15)
        keys = [f"k{i}" for i in range(8)]
        expected_hooks = []
        baseline = manager.stats["checkpoints"]
        for step in range(200):
            verb = rng.choice(["put", "put", "get", "get", "delete",
                               "touch", "poke", "fail", "no_such_verb"])
            args = (rng.choice(keys),)
            if verb == "put":
                args += (step,)
            if verb in ("touch", "poke"):
                outcome = rpc.send_oneway(server, ref, verb, args)
                try:
                    getattr(model, verb)(*args)
                except ValueError:
                    pass
                assert outcome is None
            else:
                try:
                    outcome = rpc.call(server, ref, verb, args)
                except Exception as exc:
                    outcome = type(exc)
                if verb == "no_such_verb":
                    assert outcome is InterfaceError
                    continue
                try:
                    wanted = getattr(model, verb)(*args)
                except ValueError as exc:
                    wanted = type(exc)
                assert outcome == wanted, (step, verb, args)
            if verb in ("put", "delete", "touch"):
                expected_hooks.append((verb, args, {}))
            if step % 7 == 0:    # keep the remote cache warm and checked
                key = rng.choice(keys)
                assert remote.get(key) == model.data.get(key)
        assert mutation_log.fired == expected_hooks
        assert manager.stats["checkpoints"] == baseline + len(expected_hooks)
        assert store.data == model.data
        assert {k: remote.get(k) for k in keys} == \
            {k: model.data.get(k) for k in keys}
        assert (rpc.stats["local_fast_path"] > 0) is lrpc
