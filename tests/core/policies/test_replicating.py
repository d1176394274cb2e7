"""Tests for the replicated proxy: routing, quorums, failover."""

import gc
import random
from contextlib import contextmanager

import pytest

import repro
from repro.apps.counter import Counter
from repro.apps.kv import KVStore
from repro.apps.locks import LockService
from repro.core.export import get_space
from repro.core.policies.replicating import ReplicatedProxy, replicate
from repro.core.service import Service
from repro.failures.injectors import (begin_partition, degraded_link,
                                      latency_spike)
from repro.iface.interface import operation
from repro.kernel.errors import (
    ConfigurationError,
    DistributionError,
    ObjectMoved,
)
from repro.kernel.network import LinkSpec
from repro.metrics.counters import MessageWindow
from repro.migration.mover import ensure_mover, migrate
from repro.wire import versions


@pytest.fixture
def group(star):
    """3-replica KV group registered as 'kv'; returns (system, clients)."""
    system, server, clients = star
    ref = replicate([server, clients[1], clients[2]], KVStore, write_quorum=2)
    repro.register(server, "kv", ref)
    return system, server, clients


@pytest.fixture
def quorum_group(star):
    """3-replica versioned-quorum KV group (W=2, R=2, per-key versions)."""
    system, server, clients = star
    ref = replicate([server, clients[1], clients[2]], KVStore,
                    write_quorum=2, read_quorum=2, version_key="arg0")
    repro.register(server, "qkv", ref)
    return system, server, clients


class Flaky(Service):
    """A service whose writes can be made to raise on one replica only."""

    default_policy = "stub"

    def __init__(self):
        self.log = []
        self.fail = False

    @operation
    def record(self, item):
        if self.fail:
            raise ValueError("replica refuses")
        self.log.append(item)
        return len(self.log)

    @operation(readonly=True)
    def entries(self):
        return list(self.log)


class TestRouting:
    def test_client_gets_replicated_proxy(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        assert isinstance(proxy, ReplicatedProxy)

    def test_write_reaches_all_replicas(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        with MessageWindow(system) as window:
            proxy.put("k", 1)
        assert window.report.messages == 6, "3 replicas x 1 round trip"

    def test_read_touches_one_replica(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        with MessageWindow(system) as window:
            assert proxy.get("k") == 1
        assert window.report.messages == 2

    def test_read_your_writes_everywhere(self, group):
        system, server, clients = group
        writer = repro.bind(clients[0], "kv")
        writer.put("k", "fresh")
        # Force reads from each replica in turn via the roundrobin policy.
        rr = repro.bind(clients[0], "kv")
        rr.proxy_config["read_policy"] = "roundrobin"
        assert [rr.get("k") for _ in range(3)] == ["fresh"] * 3

    def test_co_located_replica_served_by_fast_path(self, group):
        system, server, clients = group
        # clients[1] hosts a replica: nearest read should be same-context.
        proxy = repro.bind(clients[1], "kv")
        proxy.put("k", 1)
        with MessageWindow(system) as window:
            proxy.get("k")
        assert window.report.messages == 0


class TestFailover:
    def test_read_fails_over_on_crash(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        server.node.crash()
        assert proxy.get("k") == 1
        assert proxy.proxy_stats["read_failovers"] >= 0

    def test_write_succeeds_with_quorum(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        server.node.crash()   # 2 of 3 replicas remain; quorum is 2
        assert proxy.put("k", 2) is True

    def test_write_fails_below_quorum(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        server.node.crash()
        clients[1].node.crash()   # only 1 replica left < quorum 2
        with pytest.raises(DistributionError):
            proxy.put("k", 2)
        assert proxy.proxy_stats["write_failures"] == 1

    def test_failed_quorum_write_keeps_its_cause_and_leaves_no_cycle(
            self, quorum_group):
        # The fan-out kept each replica's timeout to chain it as the cause;
        # the kept exception must not pin the frame that kept it.
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        clients[1].node.crash()
        clients[2].node.crash()     # only the sequencer acks: 1 < W=2

        def failed_write():
            try:
                proxy.put("k", 2)
            except DistributionError as exc:
                return exc

        gc.collect()
        gc.disable()
        try:
            error = failed_write()
            assert "quorum is 2" in str(error)
            assert isinstance(error.__cause__, DistributionError)
            del error
            system.close()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_recovery_after_restart(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        server.node.crash()
        clients[1].node.crash()
        with pytest.raises(DistributionError):
            proxy.put("k", 2)
        server.node.restart()
        clients[1].node.restart()
        assert proxy.put("k", 3) is True


class TestDeployment:
    def test_replicate_needs_contexts(self):
        with pytest.raises(ValueError):
            replicate([], KVStore)

    def test_single_replica_group_works(self, star):
        system, server, clients = star
        ref = replicate([server], KVStore)
        repro.register(server, "solo", ref)
        proxy = repro.bind(clients[0], "solo")
        proxy.put("k", 1)
        assert proxy.get("k") == 1

    def test_group_ref_carries_policy(self, star):
        system, server, clients = star
        ref = replicate([server, clients[1]], KVStore)
        assert ref.policy == "replicated"

    def test_principle_holds(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        proxy.put("k", 1)
        proxy.get("k")
        repro.assert_principle(system)

    def test_directly_exported_group_cannot_elect_unversioned(self, star):
        # Regression: only replicate() checked this; a group exported by
        # hand silently ran unversioned write-all and never swept.
        system, server, clients = star
        replica = get_space(clients[1]).export(KVStore(), policy="stub")
        ref = get_space(server).export(
            KVStore(), policy="replicated",
            config={"replicas": [replica], "elect": True})
        repro.register(server, "unsequenced", ref)
        proxy = repro.bind(clients[0], "unsequenced")
        with pytest.raises(ConfigurationError):
            proxy.put("k", 1)
        with pytest.raises(ConfigurationError):
            proxy.proxy_anti_entropy()


class TestQuorumValidation:
    """Quorum bounds are configuration errors, at deploy and at call time.

    Regression: ``write_quorum=0`` used to let a write that reached *no*
    replica "succeed" (returning ``None``), and ``write_quorum > N`` used
    to fail every write with a misleading distribution error.
    """

    @pytest.mark.parametrize("quorum", [0, -2, 4])
    def test_deploy_rejects_out_of_range_write_quorum(self, star, quorum):
        system, server, clients = star
        with pytest.raises(ConfigurationError):
            replicate([server, clients[1], clients[2]], KVStore,
                      write_quorum=quorum)

    @pytest.mark.parametrize("quorum", [0, -1, 4])
    def test_deploy_rejects_out_of_range_read_quorum(self, star, quorum):
        system, server, clients = star
        with pytest.raises(ConfigurationError):
            replicate([server, clients[1], clients[2]], KVStore,
                      read_quorum=quorum)

    @pytest.mark.parametrize("quorum", [0, -1, 5])
    def test_call_time_rejects_injected_write_quorum(self, group, quorum):
        # A config that dodged deploy validation (hand-edited, or shipped
        # by an older server) must still fail closed at the proxy.
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        proxy.proxy_config["write_quorum"] = quorum
        with pytest.raises(ConfigurationError):
            proxy.put("k", 1)

    def test_call_time_rejects_injected_read_quorum(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.proxy_config["read_quorum"] = 0
        with pytest.raises(ConfigurationError):
            proxy.get("k")

    def test_zero_quorum_write_does_not_silently_succeed(self, group):
        # The original bug: all replicas down + write_quorum=0 returned
        # None as if the write had happened.
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        server.node.crash()
        clients[1].node.crash()
        clients[2].node.crash()
        proxy.proxy_config["write_quorum"] = 0
        with pytest.raises(ConfigurationError):
            proxy.put("k", "ghost")


class TestReadPolicyValidation:
    """A read order is one the group's policy knows.

    Regression: a misspelt ``read_policy`` (``"nearst"``), or ``regional``
    on a plain ``replicated`` group, was silently read as ``nearest``.
    """

    @pytest.mark.parametrize("read_policy", ["nearst", "regional", "primary"])
    def test_deploy_rejects_an_unknown_read_policy(self, star, read_policy):
        system, server, clients = star
        with pytest.raises(ConfigurationError, match="read_policy"):
            replicate([server, clients[1], clients[2]], KVStore,
                      read_policy=read_policy)

    def test_regional_groups_also_know_the_regional_order(self, star):
        system, server, clients = star
        contexts = [server, clients[1], clients[2]]
        replicate(contexts, KVStore, read_policy="regional", policy="regional")
        with pytest.raises(ConfigurationError, match="read_policy"):
            replicate(contexts, KVStore, read_policy="nearst",
                      policy="regional")

    @pytest.mark.parametrize("policy", ["stub", "caching", "sharded"])
    def test_deploy_names_a_policy_that_is_no_replica_groups(self, star,
                                                             policy):
        # At the parent: AttributeError, the class has no read policies.
        system, server, clients = star
        with pytest.raises(ConfigurationError, match=repr(policy)):
            replicate([server, clients[1], clients[2]], KVStore,
                      policy=policy)

    @pytest.mark.parametrize("read_policy", ["nearst", "regional"])
    @pytest.mark.parametrize("deployment", ["group", "quorum_group"])
    def test_first_read_rejects_an_edited_read_policy(self, request,
                                                      deployment,
                                                      read_policy):
        # E9 and these tests edit the order after bind, past deploy's check.
        system, server, clients = request.getfixturevalue(deployment)
        name = "kv" if deployment == "group" else "qkv"
        proxy = repro.bind(clients[0], name)
        proxy.proxy_config["read_policy"] = read_policy
        with pytest.raises(ConfigurationError, match="read_policy"):
            proxy.get("k")


class TestMalformedGroupConfiguration:
    """A malformed group configuration is refused, never coerced.

    Regression: ``write_quorum=2.5`` (or ``"2"``) deployed as W=2 and
    ``True`` as W=1; ``read_quorum=2.9`` as R=2; a misspelt
    ``version_key`` silently fell back to the one-object log; ``elect="no"``
    deployed an elected group; and ``lease_ttl=0`` (or negative, or NaN)
    deployed a group whose every write failed after the renewal rounds.
    """

    @staticmethod
    def _deploy(star, **config):
        system, server, clients = star
        return replicate([server, clients[1], clients[2]], KVStore, **config)

    @pytest.mark.parametrize("quorum", [2.5, "2", True])
    def test_deploy_rejects_a_write_quorum_that_is_no_int(self, star, quorum):
        with pytest.raises(ConfigurationError, match="write_quorum"):
            self._deploy(star, write_quorum=quorum)

    @pytest.mark.parametrize("quorum", [2.9, True])
    def test_deploy_rejects_a_read_quorum_that_is_no_int(self, star, quorum):
        with pytest.raises(ConfigurationError, match="read_quorum"):
            self._deploy(star, write_quorum=2, read_quorum=quorum)

    @pytest.mark.parametrize("version_key", ["arg_0", "key"])
    def test_deploy_rejects_an_unknown_version_key(self, star, version_key):
        with pytest.raises(ConfigurationError, match="version_key"):
            self._deploy(star, write_quorum=2, read_quorum=2,
                         version_key=version_key)

    @pytest.mark.parametrize("elect", ["no", 1])
    def test_deploy_rejects_an_elect_that_is_no_bool(self, star, elect):
        with pytest.raises(ConfigurationError, match="elect"):
            self._deploy(star, write_quorum=2, read_quorum=2, elect=elect)

    @pytest.mark.parametrize("config", [
        {"elect": True},
        {"read_quorum": 2, "extra_config": {"elect": "yes"}},
        {"extra_config": {"elect": True}},
    ], ids=["elect-unversioned", "extra-elect-no-bool",
            "extra-elect-unversioned"])
    def test_a_refused_deployment_exports_no_replica(self, star, config):
        # Regression: the replicas were exported before the protocol was
        # checked, so each context kept one after the refusal.
        system, server, clients = star
        contexts = [server, clients[1], clients[2]]
        before = [sorted(ctx.exports) for ctx in contexts]
        with pytest.raises(ConfigurationError, match="elect"):
            replicate(contexts, KVStore, **config)
        assert [sorted(ctx.exports) for ctx in contexts] == before
        assert not any(isinstance(entry.obj, KVStore) for ctx in contexts
                       for entry in ctx.exports.values())

    @pytest.mark.parametrize("ttl", [0, -1.0, float("nan"), float("inf"),
                                     "5", True])
    def test_deploy_rejects_a_lease_ttl_that_is_no_positive_number(
            self, star, ttl):
        with pytest.raises(ConfigurationError, match="lease_ttl"):
            self._deploy(star, write_quorum=2, read_quorum=2, elect=True,
                         lease_ttl=ttl)

    def test_well_formed_configurations_still_deploy(self, star):
        # Positive control: every admitted form deploys and serves.
        system, server, clients = star
        for index, config in enumerate([
                {"write_quorum": 2, "read_quorum": 2, "version_key": "arg0",
                 "elect": True, "lease_ttl": 5},
                {"write_quorum": 3, "read_quorum": 1,
                 "version_key": "object", "elect": False, "lease_ttl": 0.5},
                {"write_quorum": None, "read_quorum": None,
                 "version_key": None, "lease_ttl": None}]):
            ref = self._deploy(star, **config)
            repro.register(server, f"g{index}", ref)
            proxy = repro.bind(clients[0], f"g{index}")
            assert proxy.put("k", index) is True
            assert proxy.get("k") == index

    @pytest.mark.parametrize("key,value", [("write_quorum", 2.5),
                                           ("write_quorum", True),
                                           ("read_quorum", "2")])
    def test_first_use_rejects_an_edited_quorum_that_is_no_int(
            self, quorum_group, key, value):
        # Bound configurations may be edited after bind, past deploy.
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.proxy_config[key] = value
        with pytest.raises(ConfigurationError, match=key):
            proxy.put("k", 1)

    def test_first_use_rejects_an_edited_unknown_version_key(
            self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.proxy_config["version_key"] = "key"
        with pytest.raises(ConfigurationError, match="version_key"):
            proxy.put("k", 1)

    @pytest.mark.parametrize("elect", ["no", 0])
    def test_first_use_rejects_an_edited_elect_that_is_no_bool(
            self, quorum_group, elect):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.proxy_config["elect"] = elect
        with pytest.raises(ConfigurationError, match="elect"):
            proxy.put("k", 1)


class TestPartialWriteFanout:
    """Regression: an application exception from an early replica used to
    abort the write-all loop, leaving later replicas without the write
    (silent divergence).  The fan-out must complete before re-raising."""

    @pytest.fixture
    def flaky_group(self, star):
        system, server, clients = star
        instances = []

        def factory():
            obj = Flaky()
            instances.append(obj)
            return obj

        ref = replicate([server, clients[1], clients[2]], factory,
                        write_quorum=2)
        repro.register(server, "flaky", ref)
        return system, clients, instances

    def test_fanout_completes_past_a_raising_replica(self, flaky_group):
        system, clients, instances = flaky_group
        instances[0].fail = True    # only the first replica raises
        proxy = repro.bind(clients[0], "flaky")
        with pytest.raises(ValueError):
            proxy.record("x")
        assert instances[1].log == ["x"], "fan-out must not stop early"
        assert instances[2].log == ["x"]
        assert proxy.proxy_stats["app_errors"] == 1

    def test_app_error_beats_quorum_success(self, flaky_group):
        # Even with enough clean acks for the quorum, the application
        # exception is the write's outcome and must surface.
        system, clients, instances = flaky_group
        instances[1].fail = True
        proxy = repro.bind(clients[0], "flaky")
        with pytest.raises(ValueError):
            proxy.record("y")
        assert instances[0].log == ["y"]
        assert instances[2].log == ["y"]

    def test_clean_writes_still_return_first_result(self, flaky_group):
        system, clients, instances = flaky_group
        proxy = repro.bind(clients[0], "flaky")
        assert proxy.record("z") == 1
        assert proxy.proxy_stats["app_errors"] == 0


class TestEmptyResolutionNotMemoized:
    """Regression: an empty replica resolution was cached forever, so the
    proxy never saw its group even after the list arrived."""

    def test_empty_resolution_is_retried(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[0], "kv")
        saved = proxy.proxy_config.pop("replicas")
        proxy.proxy_handshaken = True    # keep the handshake from refetching
        with pytest.raises(ConfigurationError, match="no replicas"):
            proxy._resolve_replicas()
        assert proxy._replicas is None, "emptiness must not be memoised"
        proxy.proxy_config["replicas"] = saved
        assert len(proxy._resolve_replicas()) == 3
        assert proxy._replicas is not None


class TestVersionedQuorum:
    def test_read_your_writes_across_clients(self, quorum_group):
        system, server, clients = quorum_group
        writer = repro.bind(clients[0], "qkv")
        reader = repro.bind(clients[2], "qkv")
        reader.proxy_config["read_policy"] = "roundrobin"
        assert writer.put("k", "fresh") is True
        assert [reader.get("k") for _ in range(3)] == ["fresh"] * 3

    def test_stale_replica_is_read_repaired(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.proxy_config["read_policy"] = "roundrobin"
        proxy.put("k", 1)
        clients[2].node.crash()     # third replica misses the next write
        proxy.put("k", 2)
        clients[2].node.restart()
        values = [proxy.get("k") for _ in range(3)]
        assert values == [2, 2, 2], "a repaired read must return the newest"
        assert proxy.proxy_stats["read_repairs"] >= 1

    @staticmethod
    def _slow_server(system, server, reader):
        """Rank the server's replica (0, the sequencer) last from ``reader``:
        an R=2 read is answered by replicas 1 and 2."""
        system.network.set_link(reader.node.name, server.node.name, LinkSpec(
            latency=1.0, byte_cost=system.costs.byte_cost))

    def test_only_a_stale_answer_is_read_repaired(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        clients[2].node.crash()     # replica 2 misses version 2
        proxy.put("k", 2)
        clients[2].node.restart()
        self._slow_server(system, server, clients[0])
        assert proxy.get("k") == 2      # replica 2 answers stale ...
        assert proxy.proxy_stats["read_repairs"] == 1
        assert proxy.get("k") == 2      # ... and agrees once repaired
        assert proxy.proxy_stats["read_repairs"] == 1

    def test_an_elected_leader_that_did_not_answer_is_promoted(self, star):
        system, server, clients = star
        ref = replicate([server, clients[1], clients[2]], KVStore,
                        write_quorum=2, read_quorum=2, version_key="arg0",
                        elect=True)
        repro.register(server, "ekv", ref)
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        assert proxy.get("k") == 1      # the leader answered: no repair
        assert proxy.proxy_stats["read_repairs"] == 0
        self._slow_server(system, server, clients[0])
        with MessageWindow(system) as window:
            assert proxy.get("k") == 1  # 1 and 2 agree; the leader is not
        assert proxy.proxy_stats["read_repairs"] == 1   # among them
        assert window.report.messages == 8, "two reads, a pull, a push"

    def test_write_fails_below_quorum(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        clients[1].node.crash()
        clients[2].node.crash()     # primary alone: 1 < W=2
        with pytest.raises(DistributionError):
            proxy.put("k", 2)
        assert proxy.proxy_stats["write_failures"] >= 1

    def test_read_fails_below_read_quorum(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        clients[1].node.crash()
        clients[2].node.crash()     # one answer < R=2
        with pytest.raises(DistributionError):
            proxy.get("k")
        assert proxy.proxy_stats["read_failures"] >= 1

    def test_group_recovers_after_restart(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        clients[1].node.crash()
        clients[2].node.crash()
        with pytest.raises(DistributionError):
            proxy.put("k", 2)
        clients[1].node.restart()
        clients[2].node.restart()
        assert proxy.put("k", 3) is True
        assert proxy.get("k") == 3

    def test_app_exception_does_not_diverge_the_group(self, star):
        # The primary executes first and raises *before* any fan-out, so
        # a raising write leaves every replica untouched and in agreement.
        system, server, clients = star
        ref = replicate([server, clients[1], clients[2]], LockService,
                        write_quorum=2, read_quorum=2, version_key="arg0")
        repro.register(server, "qlock", ref)
        proxy = repro.bind(clients[0], "qlock")
        with pytest.raises(PermissionError):
            proxy.release("m", "nobody")
        assert proxy.try_acquire("m", "alice") is True
        assert proxy.holder("m") == "alice"

    def test_principle_holds_for_quorum_traffic(self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        proxy.get("k")
        repro.assert_principle(system)


def _nearest_first(proxy):
    """The ``"nearest"`` read order as its definition states it: replica
    indices by transit time from the reader, ties by index."""
    network = proxy.proxy_context.system.network
    here = proxy.proxy_context.node.name
    replicas = proxy._replicas
    return sorted(range(len(replicas)), key=lambda i: network.transit_time(
        here, replicas[i].proxy_ref.node_name, 64))


@contextmanager
def _unchanged(system, reader, replicas):
    yield


@contextmanager
def _far_replica_made_nearest(system, reader, replicas):
    # After bind: the last replica, tied with the others, becomes nearest.
    system.network.set_link(reader, replicas[2], LinkSpec(
        latency=system.costs.remote_latency / 4,
        byte_cost=system.costs.byte_cost))
    yield


def _spiked(after):
    """A spike reorders two links that trade latency for bytes: fast
    wire, slow propagation (to replica 0) against the reverse (to 1)."""
    @contextmanager
    def scenario(system, reader, replicas):
        latency = system.costs.remote_latency
        system.network.set_link(reader, replicas[0], LinkSpec(
            latency=2 * latency, byte_cost=0.0))
        system.network.set_link(reader, replicas[1], LinkSpec(
            latency=latency, byte_cost=1.5 * latency / 64))
        with latency_spike(system, 10.0):
            if not after:
                yield
        if after:
            yield
    return scenario


def _degraded(after):
    @contextmanager
    def scenario(system, reader, replicas):
        with degraded_link(system, reader, replicas[0], latency=1.0):
            if not after:
                yield
        if after:
            yield
    return scenario


class TestNearestReadOrder:
    """``"nearest"`` is recomputed on every read, with no memo: whatever
    changed a distance since the last read orders the next one."""

    @pytest.mark.parametrize("scenario, expected", [
        (_unchanged, [0, 1, 2]), (_far_replica_made_nearest, [2, 0, 1]),
        (_spiked(after=False), [2, 1, 0]), (_spiked(after=True), [2, 0, 1]),
        (_degraded(after=False), [1, 2, 0]),
        (_degraded(after=True), [0, 1, 2])],
        ids=["unchanged", "set-link", "spike-during", "spike-after",
             "degraded-during", "degraded-after"])
    def test_the_order_is_the_transit_time_ranking(self, quorum_group,
                                                   scenario, expected):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        before = proxy._read_order_indices(3)
        assert before == _nearest_first(proxy) == [0, 1, 2]
        nodes = [ctx.node.name for ctx in (server, clients[1], clients[2])]
        with scenario(system, clients[0].node.name, nodes):
            assert proxy._read_order_indices(3) == _nearest_first(proxy) \
                == expected
            assert proxy.get("k") == 1

    def test_a_replica_rebound_by_object_moved_is_ranked_where_it_is(
            self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        proxy.put("k", 1)
        replica = proxy._replicas[2]
        system.codebase.register_class(KVStore)
        ensure_mover(get_space(clients[2]))
        assert migrate(clients[0], replica.proxy_ref) is not None
        assert replica.get("k") == 1      # follows the forward, rebinds
        assert replica.proxy_ref.context_id == clients[0].context_id
        # The moved copy is now co-located with the reader: nearest.
        assert proxy._read_order_indices(3) == _nearest_first(proxy) \
            == [2, 0, 1]


_KV_VERBS = ("put", "get", "delete", "contains")
_COUNTER_VERBS = ("incr", "decr", "read", "reset")


def _op_stream(service, seed: int, count: int = 80) -> list:
    rng = random.Random(f"differential:{service.__name__}:{seed}")
    ops = []
    for index in range(count):
        if service is KVStore:
            verb = rng.choice(_KV_VERBS)
            key = rng.choice(("a", "b", "c"))
            ops.append((verb, (key, index) if verb == "put" else (key,)))
        else:
            verb = rng.choice(_COUNTER_VERBS)
            ops.append((verb, (rng.randrange(1, 4),)
                        if verb in ("incr", "decr") else ()))
    return ops


def _run_stream(service, ops: list, colocate: int | None = None,
                **sequencer):
    """Drive ``ops`` through a fresh W=2/R=2 group; returns the results and
    every replica's logs as ``{key: [(n, verb, args, kwargs, term)]}``.

    The client is remote from every replica unless ``colocate`` names the
    replica whose context it lives in."""
    system = repro.make_system(seed=99)
    server = system.add_node("server").create_context("main")
    clients = [system.add_node(f"client{i}").create_context("main")
               for i in range(3)]
    hosts = [server, clients[1], clients[2]]
    version_key = "arg0" if service is KVStore else "object"
    ref = replicate(hosts, service, write_quorum=2, read_quorum=2,
                    version_key=version_key, **sequencer)
    group = get_space(server).entry(ref.oid)
    client = clients[0] if colocate is None else hosts[colocate]
    proxy = get_space(client).bind_ref(ref, handshake=True)
    results = [proxy.invoke(verb, args, {}) for verb, args in ops]
    replicas = group.policy_config["replicas"]
    logs = [get_space(ctx).entry(replica.oid).replica_log._logs
            for ctx, replica in zip(hosts, replicas)]
    return results, logs, proxy


class TestOneProtocolTwoSequencers:
    """The static primary is the elected protocol minus the election state."""

    @pytest.mark.parametrize("service", [KVStore, Counter])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequencers_agree_on_a_fault_free_stream(self, service, seed):
        ops = _op_stream(service, seed)
        static, static_logs, _ = _run_stream(service, ops)
        elected, elected_logs, proxy = _run_stream(
            service, ops, elect=True, lease_ttl=1e9)
        assert proxy.proxy_stats["elections"] == 0
        assert static == elected
        for plain, termed in zip(static_logs, elected_logs):
            assert plain.keys() == termed.keys()
            for key in plain:
                assert [entry[:4] for entry in plain[key]] == \
                    [entry[:4] for entry in termed[key]]
                assert {entry[4] for entry in plain[key]} == {0}
                assert {entry[4] for entry in termed[key]} == {1}

    def test_static_wire_image_has_no_election_keys(self, quorum_group):
        # Pins the static contract: no request carries a term and no reply
        # wrapper carries a term, fence, divergence or lease key — even
        # while a partition forces a write-repair and a read-repair.
        system, server, clients = quorum_group
        proxy = repro.bind(clients[0], "qkv")
        seen = []
        call = system.rpc.call

        def recording(src, ref, verb, args=(), kwargs=None, **options):
            seen.append(options.get("headers") or {})
            reply = call(src, ref, verb, args, kwargs, **options)
            seen.append(reply)
            return reply

        system.rpc.call = recording
        everyone = {ctx.node.name for ctx in [server, *clients]}

        def cut_off(ctx):
            lone = {ctx.node.name}
            return begin_partition(system, [lone, everyone - lone])

        proxy.put("k", 1)
        heal = cut_off(clients[2])
        proxy.put("k", 2)    # replica 2 misses version 2 ...
        heal()
        proxy.put("k", 3)    # ... and is suffix-repaired by this write
        heal = cut_off(clients[1])
        proxy.put("k", 4)    # replica 1 misses version 4 ...
        heal()
        assert proxy.get("k") == 4    # ... and is read-repaired here
        assert proxy.proxy_stats["write_repairs"] == 1
        assert proxy.proxy_stats["read_repairs"] == 1
        enveloped = [item for item in seen if isinstance(item, dict)
                     and any(key.startswith("q.") for key in item)]
        assert len(enveloped) > 20
        election_keys = {versions.H_TERM, versions.K_VTERM, versions.K_TERM,
                         versions.K_FENCED, versions.K_DIVERGED,
                         versions.K_EXPIRED}
        for item in enveloped:
            assert not election_keys & item.keys(), item


def _enveloped_get(proxy, index):
    """A versioned ``get("k")`` to one replica, issued as the quorum read
    issues it: to the replica proxy's reference, not through it."""
    return proxy.proxy_protocol.call(
        proxy.proxy_context, proxy._replicas[index].proxy_ref, "get", ("k",),
        {}, headers={versions.H_READ: ["k"]})


class TestLocalityIsTheProtocolsBusiness:
    """A replica co-located with its caller is served by the same
    dispatcher step as a remote one: ``RpcProtocol.call`` decides how the
    envelope travels, the proxy cannot tell."""

    @pytest.mark.parametrize("sequencer",
                             [{}, {"elect": True, "lease_ttl": 1e9}],
                             ids=["static", "elected"])
    @pytest.mark.parametrize("colocate", [0, 1])
    @pytest.mark.parametrize("service", [KVStore, Counter])
    def test_co_located_client_matches_a_remote_one(self, service, colocate,
                                                    sequencer):
        ops = _op_stream(service, 2)
        remote, remote_logs, _ = _run_stream(service, ops, **sequencer)
        local, local_logs, proxy = _run_stream(service, ops,
                                               colocate=colocate, **sequencer)
        assert local == remote
        assert local_logs == remote_logs
        stats = proxy.proxy_context.system.rpc.stats
        assert stats["local_fast_path"] >= len(ops)

    def test_migrated_co_located_replica_answers_object_moved(
            self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[1], "qkv")    # hosts replica 1
        proxy.put("k", 1)
        ref = proxy._replicas[1].proxy_ref
        entry = clients[1].exports[ref.oid]
        entry.moved_to = ref.moved_to(clients[0].context_id)
        with pytest.raises(ObjectMoved):
            _enveloped_get(proxy, 1)
        # The read treats it like any unreachable replica, instead of
        # answering from the object the migration left behind.
        assert proxy.get("k") == 1
        assert proxy.proxy_stats["read_failovers"] == 1

    def test_co_located_enveloped_call_is_charged_its_compute(
            self, quorum_group):
        system, server, clients = quorum_group
        proxy = repro.bind(clients[1], "qkv")
        proxy.put("k", 1)
        compute = proxy.proxy_interface.operation("get").compute
        assert compute > 0
        before = clients[1].clock.now
        reply = _enveloped_get(proxy, 1)
        assert reply[versions.K_VALUE] == 1
        assert clients[1].clock.now - before == pytest.approx(
            system.costs.local_call + compute)

    # -- write-all: the members are bindings too --------------------------

    @staticmethod
    def _shipped_refs(server, proxy):
        """The replica references as the group entry ships them."""
        return server.exports[proxy.proxy_ref.oid].policy_config["replicas"]

    def test_write_all_fires_every_replica_hook_once(self, group, hooked):
        system, server, clients = group
        hosts = [server, clients[1], clients[2]]
        proxy = repro.bind(clients[1], "kv")    # hosts replica 1
        logs = [hooked(ctx.exports[ref.oid]) for ctx, ref
                in zip(hosts, self._shipped_refs(server, proxy))]
        proxy.put("k", 1)
        assert [log.fired for log in logs] == [[("put", ("k", 1), {})]] * 3

    def test_co_located_write_all_read_is_charged_its_compute(self, group):
        system, server, clients = group
        proxy = repro.bind(clients[1], "kv")
        proxy.put("k", 1)
        compute = proxy.proxy_interface.operation("get").compute
        assert compute > 0
        before = clients[1].clock.now
        assert proxy.get("k") == 1    # nearest = the co-located replica
        assert clients[1].clock.now - before == pytest.approx(
            system.costs.local_call + compute)

    @pytest.mark.parametrize("client", [1, 0], ids=["co-located", "remote"])
    def test_moved_write_all_replica_is_followed_then_failed_over(
            self, group, client):
        system, server, clients = group
        proxy = repro.bind(clients[client], "kv")
        proxy.proxy_config["read_policy"] = "roundrobin"
        proxy.put("k", 1)
        old = self._shipped_refs(server, proxy)[1]
        # Replica 1 migrates to the server's context; the object it leaves
        # behind must never answer again.
        clients[1].exports[old.oid].obj.put("k", "ZOMBIE")
        new_home = KVStore()
        new_home.put("k", "moved")
        forward = get_space(server).export(new_home, policy="stub")
        get_space(clients[1]).mark_migrated(old.oid, forward)
        proxy._rr_counter = 1    # the read walk starts at replica 1
        assert proxy.get("k") == "moved"
        assert proxy._replicas[1].proxy_ref == forward
        # The forward dies: the walk moves on to the next replica.
        get_space(server).unexport(forward)
        proxy._rr_counter = 1
        assert proxy.get("k") == 1
        assert proxy.proxy_stats["read_failovers"] == 1

    def test_revoked_co_located_write_all_replica_is_failed_over(
            self, group):
        system, server, clients = group
        proxy = repro.bind(clients[1], "kv")
        proxy.put("k", 1)
        ref = self._shipped_refs(server, proxy)[1]
        clients[1].exports[ref.oid].obj.put("k", "ZOMBIE")
        get_space(clients[1]).unexport(ref)
        assert proxy.get("k") == 1
        assert proxy.proxy_stats["read_failovers"] == 1
