"""Property tests: every proxy policy is observably a plain dictionary.

The strongest form of the encapsulation claim: for ANY sequence of
put/get/delete operations, a client talking through ANY policy observes
exactly what an in-memory dict oracle predicts.  Caching, batching,
migration, and replication may only change the *cost*, never the answers.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.core.policies.replicating import replicate
from repro.core.policies.sharding import shard
from repro.core.service import Service
from repro.iface.interface import operation
from repro.naming.bootstrap import install_name_service
from repro.resilience.policy import resilient_group
from repro.wire import shards

#: Hand-picked: the default two- and three-shard rings both place one of
#: these on every shard (``key0``..``key5`` all land on shard 0 of two).
KEYS = ["key0", "key1", "key2", "key9", "key10", "key36"]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS),
                  st.integers(-100, 100)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    ),
    max_size=40,
)


def _regional(contexts, factory):
    """Built as the simtest ``regional`` deployment builds it: the home
    region (``east``) holds a write quorum, and the remote client sits
    ``west`` with the third replica."""
    for ctx, region in zip(contexts, ("east", "east", "west", "east",
                                      "west")):
        ctx.node.region = region
    return replicate(contexts[:3], factory, write_quorum=2, read_quorum=2,
                     version_key="arg0", read_policy="regional",
                     policy="regional",
                     extra_config={"regions": [ctx.node.region
                                               for ctx in contexts[:3]]})


#: Group deployments: ``name -> deploy(contexts, factory) -> (ref, beside)``
#: where ``beside`` is the context hosting the group's member 1 (a replica
#: or shard).
GROUPS = {
    "replicated": lambda c, f: (
        replicate(c[:3], f, write_quorum=2), c[1]),
    "quorum": lambda c, f: (
        replicate(c[:3], f, write_quorum=2, read_quorum=2,
                  version_key="arg0"), c[1]),
    "elected": lambda c, f: (
        replicate(c[:3], f, write_quorum=2, read_quorum=2,
                  version_key="arg0", elect=True), c[1]),
    "sharded1": lambda c, f: (shard(c[:1], f), c[0]),
    "sharded3": lambda c, f: (shard(c[:3], f), c[1]),
    "sharded-replicated": lambda c, f: (
        shard([c[:2], c[2:4]], f, replicate_with={"write_quorum": 2}), c[2]),
    "resilient": lambda c, f: (resilient_group(c[:3], f), c[1]),
    "hedged": lambda c, f: (
        resilient_group(c[:3], f, retry={"adaptive": True}, hedge=True),
        c[1]),
    "composite": lambda c, f: (
        replicate(c[:3], f, write_quorum=2, extra_layers=["caching"]), c[1]),
    "regional": lambda c, f: (_regional(c, f), c[1]),
}


def build(policy: str, placement: str = "remote", lrpc: bool = True):
    """``(system, proxy, stores)``: ``policy`` deployed over KV stores —
    every one of them listed in ``stores`` — and bound by a client sitting
    on its own node (``"remote"``), in the context hosting the group's
    member 1 (``"beside"``), or in the context the group reference names
    (``"home"``).  With ``lrpc`` off, a same-context call takes the framed
    path like any other."""
    system = repro.make_system(seed=7)
    if not lrpc:
        system.rpc.lrpc_enabled = False
    contexts = [system.add_node(f"n{i}").create_context("m") for i in range(5)]
    install_name_service(contexts[0])
    stores: list[KVStore] = []

    def factory():
        stores.append(KVStore())
        return stores[-1]

    if policy in GROUPS:
        ref, beside = GROUPS[policy](contexts, factory)
    else:
        ref = get_space(contexts[0]).export(factory(), policy=policy)
        beside = None
    client = {"remote": contexts[4], "beside": beside,
              "home": system.context(ref.context_id)}[placement]
    return system, get_space(client).bind_ref(ref), stores


def run_script(proxy, script) -> list:
    """Apply a script through the proxy, with a dict oracle alongside."""
    oracle: dict = {}
    observations = []
    for step in script:
        if step[0] == "put":
            _, key, value = step
            proxy.put(key, value)
            oracle[key] = value
        elif step[0] == "delete":
            _, key = step
            proxy.delete(key)
            oracle.pop(key, None)
        else:
            _, key = step
            observations.append((proxy.get(key), oracle.get(key)))
    return observations


def with_lrpc_off(policies: list[str]) -> list:
    """``(policy, lrpc)`` cases: each policy with the LRPC fast path on
    (id ``policy``) and off (id ``policy-lrpc_off``)."""
    return [pytest.param(policy, True, id=policy) for policy in policies] + [
        pytest.param(policy, False, id=f"{policy}-lrpc_off")
        for policy in policies]


@pytest.mark.parametrize("policy,lrpc", with_lrpc_off(
    ["stub", "caching", "batching", "migrating", "replicated"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=ops)
def test_policy_matches_oracle(policy, lrpc, script):
    system, proxy, _stores = build(policy, lrpc=lrpc)
    for observed, expected in run_script(proxy, script):
        assert observed == expected
    repro.assert_principle(system)


class Table(Service):
    """A service whose read takes an unhashable argument."""

    def __init__(self):
        self.data: dict = {}

    @operation(readonly=True)
    def mget(self, keys: list) -> list:
        return [self.data.get(key) for key in keys]

    @operation(invalidates=("key",))
    def put(self, key: str, value: int) -> bool:
        self.data[key] = value
        return True


@pytest.mark.parametrize("policy", ["stub", "caching", "resilient",
                                    "composite"])
def test_unhashable_read_argument_is_served_like_stub(policy):
    """A policy that keys a cache on the arguments may decline to cache
    such a read; it may not refuse one the stub serves."""
    system = repro.make_system(seed=7)
    server, client = (system.add_node(name).create_context("m")
                      for name in ("server", "client"))
    install_name_service(server)
    config = {"layers": ["resilient", "caching"]} \
        if policy == "composite" else {}
    ref = get_space(server).export(Table(), policy=policy, config=config)
    proxy = get_space(client).bind_ref(ref)
    proxy.put("a", 1)
    proxy.put("b", 2)
    assert proxy.mget(["a", "b"]) == [1, 2]
    proxy.put("a", 3)
    assert proxy.mget(["a", "b"]) == [3, 2]
    repro.assert_principle(system)


@pytest.mark.parametrize("count", [2, 3])
def test_keys_reach_every_shard(count):
    ring = shards.ShardState(-1, 1, shards.default_ring(count), [[]] * count)
    owners = {ring.owner_of(shards.stable_hash(key)) for key in KEYS}
    assert owners == set(range(count))


@pytest.mark.parametrize("policy,lrpc", with_lrpc_off(sorted(GROUPS)))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=ops)
def test_group_matches_oracle_wherever_the_client_sits(policy, lrpc, script):
    """Every placement: a client next to a member, or in the group's own
    home context, observes the oracle like a remote one — and leaves every
    member object in the state the remote client's run of the same script
    leaves it in (a write that skipped a copy is invisible to the client
    that made it)."""
    finals = {}
    for placement in ("remote", "beside", "home"):
        system, proxy, stores = build(policy, placement, lrpc)
        for observed, expected in run_script(proxy, script):
            assert observed == expected
        repro.assert_principle(system)
        finals[placement] = [store.data for store in stores]
    assert finals["beside"] == finals["home"] == finals["remote"]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=ops, loss=st.sampled_from([0.05, 0.15, 0.25]))
def test_oracle_holds_under_message_loss(script, loss):
    """Retries + at-most-once keep the oracle exact even on a lossy net."""
    from repro.failures.injectors import message_loss
    system, proxy, _stores = build("stub")
    with message_loss(system, loss):
        for observed, expected in run_script(proxy, script):
            assert observed == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=ops)
def test_two_clients_one_oracle_sequential(script):
    """Two clients alternating operations still match a single oracle
    (sequential consistency for non-overlapping, interleaved turns)."""
    system = repro.make_system(seed=11)
    contexts = [system.add_node(f"n{i}").create_context("m") for i in range(3)]
    install_name_service(contexts[0])
    store = KVStore()
    ref = get_space(contexts[0]).export(store, policy="caching")
    proxies = [get_space(ctx).bind_ref(ref) for ctx in contexts[1:]]
    oracle: dict = {}
    for index, step in enumerate(script):
        proxy = proxies[index % 2]
        if step[0] == "put":
            _, key, value = step
            proxy.put(key, value)
            oracle[key] = value
        elif step[0] == "delete":
            _, key = step
            proxy.delete(key)
            oracle.pop(key, None)
        else:
            _, key = step
            assert proxy.get(key) == oracle.get(key)
