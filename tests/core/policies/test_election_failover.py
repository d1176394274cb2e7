"""Integration tests for leader election: failover, fencing, anti-entropy.

Every test deploys a 3-replica versioned quorum group (W=2, R=2) with
``elect=True`` and drives it through the exact edge cases ISSUE 6 calls
out: primary crash and failover, the old primary rejoining after a long
partition, lease expiry mid-traffic, co-located reads during an election
window, and simultaneous candidacy from rival proxies.
"""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.policies.replicating import replicate
from repro.failures.election import DEFAULT_LEASE_TTL
from repro.failures.injectors import begin_crash, begin_partition
from repro.kernel.errors import DistributionError


@pytest.fixture
def elected(star):
    """3-replica elected KV group on (server, clients[1], clients[2])."""
    system, server, clients = star
    ref = replicate([server, clients[1], clients[2]], KVStore,
                    write_quorum=2, read_quorum=2, version_key="arg0",
                    elect=True)
    repro.register(server, "ekv", ref)
    return system, server, clients


def replica_nodes(server, clients):
    return [server.node.name, clients[1].node.name, clients[2].node.name]


class TestFailover:
    def test_primary_crash_elects_and_writes_resume(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        t0 = clients[0].clock.now
        restore = begin_crash(system, server.node.name)
        proxy.put("k", 2)    # rides out the failover inside one invoke
        window = clients[0].clock.now - t0
        assert proxy.get("k") == 2
        assert proxy._term == 2
        assert proxy._leader != 0
        assert proxy.proxy_stats["elections_won"] == 1
        assert proxy.proxy_stats["terms_started"] >= 1
        # Bounded unavailability: the lease TTL plus election round-trips
        # (RPC retry budgets against the dead node dominate the slack).
        assert window < DEFAULT_LEASE_TTL + 1.0
        restore()

    def test_primary_partition_elects_too(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        nodes = set(replica_nodes(server, clients)) | {clients[0].node.name}
        restore = begin_partition(
            system, [{server.node.name}, nodes - {server.node.name}])
        proxy.put("k", 2)
        assert proxy.get("k") == 2
        assert proxy._term == 2
        restore()

    def test_writes_keep_failing_without_a_majority(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        restores = [begin_crash(system, server.node.name),
                    begin_crash(system, clients[1].node.name)]
        with pytest.raises(DistributionError):
            proxy.put("k", 2)    # 1 of 3 alive: no election quorum
        for restore in restores:
            restore()


class TestFencing:
    def test_old_primary_rejoining_is_fenced(self, elected):
        system, server, clients = elected
        ahead = repro.bind(clients[0], "ekv")
        laggard = system.add_node("laggard").create_context("main")
        behind = repro.bind(laggard, "ekv")
        ahead.put("k", 1)
        behind.get("k")    # warm the stale proxy's replica resolution
        restore = begin_crash(system, server.node.name)
        ahead.put("k", 2)    # elects term 2 away from replica 0
        restore()
        # The rejoined old primary still believes it leads term 1; the
        # stale proxy still addresses it.  Its next write must be fenced
        # and redirected, never silently accepted under the old term.
        assert behind._leader == 0
        behind.put("k", 3)
        assert behind._term == 2
        assert behind._leader == ahead._leader
        assert behind.proxy_stats["fencing_rejects"] >= 1
        assert ahead.get("k") == 3

    def test_rejoined_primary_catches_up_via_anti_entropy(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        restore = begin_crash(system, server.node.name)
        proxy.put("k", 2)
        proxy.put("j", 9)
        restore()
        swept = proxy.proxy_anti_entropy()
        assert swept["keys"] >= 1
        assert swept["bytes"] > 0
        assert proxy.proxy_stats["anti_entropy_runs"] == 1
        assert proxy.proxy_stats["anti_entropy_keys"] == swept["keys"]
        # The old primary now holds every entry: reads served by it agree.
        assert proxy.get("k") == 2
        assert proxy.get("j") == 9

    def test_second_sweep_is_a_no_op(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        proxy.proxy_anti_entropy()
        swept = proxy.proxy_anti_entropy()
        assert swept == {"keys": 0, "entries": 0, "bytes": 0}

    def test_sweep_fenced_midway_still_accounts_what_it_pushed(self, elected):
        # Regression: a fence on the second key's push returned before the
        # first key's push reached anti_entropy_keys / anti_entropy_bytes.
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        restore = begin_crash(system, clients[2].node.name)
        proxy.put("j", 1)
        proxy.put("k", 2)    # replica 2 now lags on both keys
        restore()
        control_call = proxy._control_call
        pushes = []

        def depose_after_first_push(index, control, body_args, extra=None):
            reply = control_call(index, control, body_args, extra)
            if control[0] == "push":
                pushes.append(control[1])
                if len(pushes) == 1:
                    # A rival's election lands between the two keys.
                    control_call(2, ["announce", 2, 1], ())
            return reply

        proxy._control_call = depose_after_first_push
        swept = proxy.proxy_anti_entropy()
        assert pushes == ["j", "k"]
        assert swept["keys"] == 1 and swept["bytes"] > 0
        assert proxy.proxy_stats["fencing_rejects"] == 1
        assert (proxy._term, proxy._leader) == (2, 1)
        assert proxy.proxy_stats["anti_entropy_keys"] == 1
        assert proxy.proxy_stats["anti_entropy_bytes"] == swept["bytes"]


class TestLeases:
    def test_lease_expiry_renews_without_an_election(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        proxy.put("k", 1)
        clients[0].clock.advance(DEFAULT_LEASE_TTL * 3)
        proxy.put("k", 2)    # leader alive: renewal, not a new term
        assert proxy._term == 1
        assert proxy.proxy_stats["lease_renewals"] >= 1
        assert proxy.proxy_stats["elections"] == 0
        assert proxy.get("k") == 2

    def test_renewals_keep_a_long_run_in_one_term(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        for index in range(8):
            proxy.put("k", index)
            clients[0].clock.advance(DEFAULT_LEASE_TTL)
        assert proxy._term == 1
        assert proxy.proxy_stats["lease_renewals"] >= 4


class TestElectionWindow:
    def test_co_located_reads_survive_the_window(self, elected):
        system, server, clients = elected
        proxy = repro.bind(clients[0], "ekv")
        co_located = repro.bind(clients[1], "ekv")    # shares replica 1
        proxy.put("k", 1)
        restore = begin_crash(system, server.node.name)
        # No election has run yet — the group is leaderless from every
        # proxy's point of view.  Reads are never fenced, so the
        # co-located client still gets quorum answers during the window.
        assert co_located.get("k") == 1
        assert co_located.proxy_stats["elections"] == 0
        restore()

    def test_simultaneous_candidacy_converges_on_one_leader(self, elected):
        system, server, clients = elected
        first = repro.bind(clients[0], "ekv")
        rival = system.add_node("rival").create_context("main")
        second = repro.bind(rival, "ekv")
        first.put("k", 1)
        second.get("k")
        restore = begin_crash(system, server.node.name)
        first.put("k", 2)     # first rival elects term 2
        second.put("k", 3)    # second rival must adopt, not double-elect
        assert first._term == 2
        assert second._term == 2
        assert first._leader == second._leader
        total_won = (first.proxy_stats["elections_won"]
                     + second.proxy_stats["elections_won"])
        assert total_won == 1, "one term, one winner"
        assert first.get("k") == 3
        restore()
