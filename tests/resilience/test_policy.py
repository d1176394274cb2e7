"""Tests for the resilient proxy policy (repro.resilience.policy)."""

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.kernel.errors import (CircuitOpen, ConfigurationError,
                                 DistributionError)
from repro.naming.bootstrap import bind, register
from repro.resilience.breaker import ensure_breakers
from repro.resilience.policy import ResilientProxy, resilient_group

BREAKER = {"failure_threshold": 2, "reset_timeout": 5.0}


def seeded_store():
    store = KVStore()
    store.put("k", "seeded")
    return store


@pytest.fixture
def deployed(star):
    """A resilient group on (server, client0, client1), bound from client2."""
    system, server, clients = star
    group = [server, clients[0], clients[1]]
    ref = resilient_group(group, seeded_store,
                          retry={"attempts": 2, "multiplier": 2.0,
                                 "jitter": 0.0},
                          call_budget=0.5, breaker=BREAKER)
    register(server, "kv", ref)
    proxy = bind(clients[2], "kv")
    return system, group, clients[2], proxy


class TestDeployment:
    def test_clients_receive_the_resilient_proxy(self, deployed):
        system, group, client, proxy = deployed
        assert isinstance(proxy, ResilientProxy)

    def test_binding_installs_the_breaker_registry(self, deployed):
        system, group, client, proxy = deployed
        assert system.breakers is not None

    def test_happy_path_reads_and_writes(self, deployed):
        system, group, client, proxy = deployed
        assert proxy.get("k") == "seeded"
        proxy.put("k2", 42)
        assert proxy.get("k2") == 42


class TestFailover:
    def test_reads_fail_over_to_a_replica(self, deployed):
        system, group, client, proxy = deployed
        group[0].node.crash()
        assert proxy.get("k") == "seeded", \
            "the replica serves the read while the primary is down"
        assert proxy.proxy_stats["failovers"] >= 1

    def test_writes_do_not_fail_over(self, deployed):
        system, group, client, proxy = deployed
        group[0].node.crash()
        with pytest.raises(DistributionError):
            proxy.put("k", "update")
        assert proxy.proxy_stats["failovers"] == 0

    def test_stale_read_when_every_candidate_is_down(self, deployed):
        system, group, client, proxy = deployed
        assert proxy.get("k") == "seeded"   # populates the stale cache
        for ctx in group:
            ctx.node.crash()
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["stale_serves"] == 1

    def test_stale_reads_can_be_disabled(self, deployed):
        system, group, client, proxy = deployed
        proxy.proxy_config["stale_reads"] = False
        assert proxy.get("k") == "seeded"
        for ctx in group:
            ctx.node.crash()
        with pytest.raises(DistributionError):
            proxy.get("k")


class TestCoLocatedReplica:
    """A read replica hosted by the caller's own context is a candidate
    like any other: reached through its export entry and breaker-gated
    (``test_hedging`` pins that it may also be the hedge backup)."""

    @pytest.fixture
    def beside(self, deployed):
        """The group bound from client0, which hosts read replica 0."""
        system, group, _client, _proxy = deployed
        client = group[1]
        proxy = bind(client, "kv")
        proxy.proxy_config["stale_reads"] = False
        assert proxy.get("k") == "seeded"    # in use before things go wrong
        shipped = group[0].exports[proxy.proxy_ref.oid].policy_config
        ref = shipped["replicas"][0]
        assert ref.context_id == client.context_id
        return system, group, client, proxy, ref

    def test_revoked_co_located_replica_is_skipped(self, beside):
        system, group, client, proxy, ref = beside
        client.exports[ref.oid].obj.put("k", "ZOMBIE")
        client.space.unexport(ref)
        group[0].node.crash()
        assert proxy.get("k") == "seeded", \
            "the walk moves on to the next replica, as it would past a " \
            "remote dangling one"
        assert proxy.proxy_stats["failovers"] == 2

    def test_served_through_its_export_entry(self, beside):
        system, group, client, proxy, ref = beside
        group[0].node.crash()
        served = system.rpc.stats["local_fast_path"]
        assert proxy.get("k") == "seeded"
        assert system.rpc.stats["local_fast_path"] == served + 1

    def test_breaker_gated_like_any_candidate(self, beside):
        system, group, client, proxy, ref = beside
        group[0].node.crash()
        # Nothing ever feeds the (ctx, ctx) pair — same-context calls never
        # reach the breaker feed — so it admits until someone trips it.
        system.breakers.configure(client.context_id, client.context_id,
                                  **BREAKER).trip(client.clock.now)
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["fast_fails"] == 1
        assert proxy.proxy_stats["failovers"] == 1


class TestBreakerGate:
    def _trip_all(self, system, group, client):
        now = client.clock.now
        for ctx in group:
            system.breakers.configure(client.context_id, ctx.context_id,
                                      **BREAKER).trip(now)

    def test_fully_open_breakers_fail_fast_with_circuit_open(self, deployed):
        system, group, client, proxy = deployed
        self._trip_all(system, group, client)
        before = client.clock.now
        with pytest.raises(CircuitOpen):
            proxy.get("never-read")
        elapsed = client.clock.now - before
        assert elapsed < system.costs.rpc_timeout, \
            "a fast fail must cost local checks, not a retry budget"
        assert proxy.proxy_stats["fast_fails"] == len(group)

    def test_repeated_failures_trip_the_breaker(self, deployed):
        system, group, client, proxy = deployed
        group[0].node.crash()
        for _ in range(BREAKER["failure_threshold"]):
            with pytest.raises(DistributionError):
                proxy.put("k", "x")
        before = client.clock.now
        with pytest.raises(CircuitOpen):
            proxy.put("k", "x")
        assert client.clock.now - before < system.costs.rpc_timeout

    def test_stale_cache_beats_circuit_open_for_reads(self, deployed):
        system, group, client, proxy = deployed
        assert proxy.get("k") == "seeded"
        self._trip_all(system, group, client)
        assert proxy.get("k") == "seeded"
        assert proxy.proxy_stats["stale_serves"] == 1


class TestFallback:
    def test_fallback_hook_is_the_last_resort(self, deployed):
        system, group, client, proxy = deployed
        proxy.proxy_fallback = lambda verb, args, kwargs: f"fallback:{verb}"
        for ctx in group:
            ctx.node.crash()
        assert proxy.get("never-read") == "fallback:get"
        assert proxy.put("k", "x") == "fallback:put"
        assert proxy.proxy_stats["fallbacks"] == 2


class TestDeadlineBudget:
    def test_failures_are_capped_at_the_call_budget(self, deployed):
        system, group, client, proxy = deployed
        for ctx in group:
            ctx.node.crash()
        before = client.clock.now
        with pytest.raises(DistributionError):
            proxy.put("k", "x")
        # A write only tries the primary; its whole failure must fit in the
        # 0.5 s call budget (plus marshalling epsilon), not the unbounded
        # fixed-retry schedule.
        assert client.clock.now - before <= 0.5 + 0.01

    def test_retry_schedule_comes_from_the_config(self, deployed):
        system, group, client, proxy = deployed
        assert proxy.proxy_retry.attempts == 2
        assert proxy.proxy_retry.multiplier == 2.0


def bind_group(star, **options):
    """Deploy a two-member resilient group with ``options`` and bind it
    from client2."""
    system, server, clients = star
    ref = resilient_group([server, clients[0]], seeded_store, **options)
    return get_space(clients[2]).bind_ref(ref)


class TestShippedConfigIsCheckedAtBind:
    """A shipped value the policy does not admit is refused at bind.

    Regressions: ``{"attempts": 2.5}`` bound and then failed the first
    call with a ``TypeError``; ``call_budget="0.1"`` was silently coerced
    and a budget <= 0 surfaced as a ``CircuitOpen`` no breaker raised; an
    unknown breaker key was a ``TypeError`` out of the registry.
    """

    @pytest.mark.parametrize("retry", [
        {"attempts": 2.5}, {"attempts": "3"}, {"attempts": True},
        {"attempts": 0}, {"attempts": None}, {"multiplier": 0.5},
        {"multiplier": "2"}, {"jitter": 1.0}, {"jitter": -0.1},
        {"adaptive": 1}, {"max_interval": 0.5}, {"retry_after": False}])
    def test_a_malformed_retry_schedule(self, star, retry):
        with pytest.raises(ConfigurationError, match="retry"):
            bind_group(star, retry=retry)

    @pytest.mark.parametrize("budget", ["x", "0.1", 0, -1.0, True,
                                        float("nan")])
    def test_a_malformed_call_budget(self, star, budget):
        with pytest.raises(ConfigurationError, match="call_budget"):
            bind_group(star, call_budget=budget)

    @pytest.mark.parametrize("breaker", [
        {"bogus": 1}, {"half_open_probes": 2}, {"failure_threshold": "3"},
        {"failure_threshold": 0}, {"failure_threshold": 2.0},
        {"reset_timeout": -1.0}, {"reset_timeout": "1"}])
    def test_a_malformed_breaker(self, star, breaker):
        with pytest.raises(ConfigurationError, match="breaker"):
            bind_group(star, breaker=breaker)

    @pytest.mark.parametrize("hedge", [{"delay": 0.007}, 1, "yes"])
    def test_hedge_is_a_bool(self, star, hedge):
        with pytest.raises(ConfigurationError, match="hedge"):
            bind_group(star, hedge=hedge)

    def test_stale_reads_is_a_bool(self, star):
        with pytest.raises(ConfigurationError, match="stale_reads"):
            bind_group(star, stale_reads="no")

    @pytest.mark.parametrize("breaker", [{"_state": "open"}, {"caller": 7},
                                         {"failure_threshold": "3"}])
    def test_an_existing_registry_takes_only_knobs(self, star, breaker):
        # Once a registry exists, the breaker config reaches configure()
        # on every call: state and identity must not be settable there.
        system = star[0]
        ensure_breakers(system)
        with pytest.raises(ConfigurationError, match="breaker"):
            bind_group(star, breaker=breaker)

    @pytest.mark.parametrize("options", [
        {"retry": {"bogus": 1}}, {"breaker": {"threshold": -1}},
        {"hedge": "yes"}], ids=["retry", "breaker", "hedge"])
    def test_a_refused_deploy_exports_nothing(self, star, options):
        # At the parent all three members were exported, then every bind
        # was refused.
        system, server, clients = star
        contexts = [server, clients[0], clients[1]]
        before = [dict(ctx.exports) for ctx in contexts]
        with pytest.raises(ConfigurationError, match=next(iter(options))):
            resilient_group(contexts, seeded_store, **options)
        assert [ctx.exports for ctx in contexts] == before

    def test_a_config_edited_after_deploy_is_refused_at_bind(self, star):
        system, server, clients = star
        ref = resilient_group([server, clients[0]], seeded_store)
        server.exports[ref.oid].policy_config["hedge"] = "yes"
        with pytest.raises(ConfigurationError, match="hedge"):
            get_space(clients[2]).bind_ref(ref)

    def test_admitted_values_bind(self, star):
        proxy = bind_group(star, retry={"attempts": 3, "multiplier": 1,
                                        "jitter": 0, "adaptive": True},
                           call_budget=1, hedge=True, stale_reads=False,
                           breaker={"failure_threshold": 1,
                                    "reset_timeout": 0})
        assert proxy.proxy_retry.attempts == 3
        assert proxy.get("k") == "seeded"
