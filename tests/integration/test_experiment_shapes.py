"""Integration: every experiment reproduces the paper's qualitative shape.

These are the assertions EXPERIMENTS.md reports — run here at reduced size
so the suite stays fast.  Absolute numbers are incidental; the *shapes*
(who wins, where crossovers fall) are the reproduction target.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    e1_invocation_matrix,
    e2_caching,
    e3_migration,
    e4_sharing,
    e5_encapsulation,
    e6_bootstrap,
    e7_failures,
    e8_lrpc,
    e9_replication,
    e10_marshalling,
    e11_ablation,
    e12_pipelining,
    e13_persistence,
    e14_transactions,
    e15_weak_dsm,
    e16_events,
    e17_wan_placement,
    e18_fastpath,
)
from repro.bench.render import who_wins


def by(rows, **filters):
    out = [row for row in rows
           if all(row[key] == value for key, value in filters.items())]
    assert out, f"no rows match {filters}"
    return out


class TestE1InvocationMatrix:
    @pytest.fixture(scope="class")
    def rows(self):
        return e1_invocation_matrix.run(ops=60)

    def test_local_call_is_floor(self, rows):
        local = by(rows, technique="procedure call")[0]["mean_us"]
        assert all(row["mean_us"] >= local for row in rows)

    def test_lrpc_between_local_and_remote(self, rows):
        local = by(rows, technique="procedure call")[0]["mean_us"]
        lrpc = by(rows, technique="lightweight RPC")[0]["mean_us"]
        rpc = by(rows, technique="remote procedure call")[0]["mean_us"]
        assert local <= lrpc < rpc / 10

    def test_proxy_adds_no_meaningful_overhead_over_rpc(self, rows):
        rpc = by(rows, technique="remote procedure call")[0]["mean_us"]
        proxy = by(rows, technique="proxy (stub policy)")[0]["mean_us"]
        assert proxy <= rpc * 1.05

    def test_dsm_steady_state_is_local_speed(self, rows):
        dsm = by(rows, technique="distributed virtual memory")[0]
        rpc = by(rows, technique="remote procedure call")[0]
        assert dsm["mean_us"] < rpc["mean_us"] / 100
        assert dsm["msgs_per_op"] == 0

    def test_remote_rpc_costs_two_messages(self, rows):
        assert by(rows, technique="remote procedure call")[0]["msgs_per_op"] == 2


class TestE2Caching:
    @pytest.fixture(scope="class")
    def rows(self):
        return e2_caching.run(clients=2, ops=60, keys=30)

    def test_caching_wins_read_dominated(self, rows):
        high = [row for row in rows if row["read_ratio"] >= 0.9]
        assert who_wins(high, "policy", "mean_ms") == "caching"

    def test_caching_win_grows_with_read_ratio(self, rows):
        def advantage(ratio):
            stub = by(rows, read_ratio=ratio, policy="stub")[0]["mean_ms"]
            cache = by(rows, read_ratio=ratio, policy="caching")[0]["mean_ms"]
            return stub - cache
        assert advantage(0.99) > advantage(0.5)

    def test_no_win_when_write_only(self, rows):
        stub = by(rows, read_ratio=0.0, policy="stub")[0]["mean_ms"]
        cache = by(rows, read_ratio=0.0, policy="caching")[0]["mean_ms"]
        assert cache >= stub * 0.95, "write-only: caching cannot win"

    def test_hit_rate_rises_with_read_ratio(self, rows):
        cache_rows = by(rows, policy="caching")
        assert cache_rows[-1]["hit_rate"] > cache_rows[0]["hit_rate"]

    def test_caching_saves_messages_at_high_read_ratio(self, rows):
        stub = by(rows, read_ratio=0.99, policy="stub")[0]["messages"]
        cache = by(rows, read_ratio=0.99, policy="caching")[0]["messages"]
        assert cache < stub


class TestE3Migration:
    @pytest.fixture(scope="class")
    def rows(self):
        return e3_migration.run()

    def test_stub_cost_is_linear(self, rows):
        stub = {row["ops"]: row["total_ms"] for row in by(rows, policy="stub")}
        assert stub[200] == pytest.approx(stub[100] * 2, rel=0.1)

    def test_migrating_flattens_after_migration(self, rows):
        mig = {row["ops"]: row["total_ms"]
               for row in by(rows, policy="migrating")}
        assert mig[200] < mig[100] * 1.2

    def test_crossover_exists_and_is_early(self, rows):
        paired = e3_migration.paired(rows)
        strictly = [row for row in paired
                    if row["migrating_ms"] < row["stub_ms"]]
        assert strictly
        assert strictly[0]["ops"] <= 20

    def test_short_bursts_do_not_migrate(self, rows):
        assert by(rows, policy="migrating", ops=2)[0]["migrated"] is False
        assert by(rows, policy="migrating", ops=50)[0]["migrated"] is True


class TestE4Sharing:
    @pytest.fixture(scope="class")
    def rows(self):
        return e4_sharing.run(ops=60)

    def test_dsm_wins_single_client(self, rows):
        single = [row for row in rows if row["clients"] == 1]
        assert who_wins(single, "technique", "mean_ms") == "dsm"

    def test_dsm_degrades_past_rpc_under_sharing(self, rows):
        crowded = [row for row in rows if row["clients"] == 8]
        dsm = by(crowded, technique="dsm")[0]["mean_ms"]
        rpc = by(crowded, technique="rpc")[0]["mean_ms"]
        assert dsm > rpc

    def test_rpc_is_roughly_flat(self, rows):
        rpc = [row["mean_ms"] for row in by(rows, technique="rpc")]
        assert max(rpc) < min(rpc) * 1.5


class TestE5Encapsulation:
    @pytest.fixture(scope="class")
    def rows(self):
        return e5_encapsulation.run()

    def test_all_policies_identical_results(self, rows):
        assert e5_encapsulation.digests_agree(rows)

    def test_protocols_differ_measurably(self, rows):
        messages = {row["policy"]: row["messages"] for row in rows}
        assert len(set(messages.values())) >= 3, \
            "policies should differ in message counts"

    def test_migrating_uses_fewest_messages(self, rows):
        assert who_wins(rows, "policy", "messages") == "migrating"


class TestE6Bootstrap:
    @pytest.fixture(scope="class")
    def rows(self):
        return e6_bootstrap.run()

    def test_bind_costs_two_round_trips(self, rows):
        flat = by(rows, scenario="bind via name service")[0]
        assert flat["messages"] == 4

    def test_chain_messages_linear_in_depth(self, rows):
        chain = {row["depth"]: row["messages"]
                 for row in by(rows, scenario="directory chain")}
        assert chain[8] == pytest.approx(chain[1] * 8, rel=0.2)

    def test_chain_latency_grows(self, rows):
        chain = by(rows, scenario="directory chain")
        latencies = [row["latency_ms"] for row in chain]
        assert latencies == sorted(latencies)


class TestE7Failures:
    @pytest.fixture(scope="class")
    def rows(self):
        return e7_failures.run(ops=60)

    def test_loss_is_fully_masked(self, rows):
        assert all(row["success_rate"] == 1.0 for row in rows)

    def test_zero_duplicates_at_every_loss_rate(self, rows):
        assert all(row["duplicate_execs"] == 0 for row in rows)

    def test_latency_grows_with_loss(self, rows):
        means = [row["mean_ms"] for row in rows]
        assert means[-1] > means[0] * 2

    def test_retries_grow_with_loss(self, rows):
        retries = [row["retries_per_op"] for row in rows]
        assert retries == sorted(retries)


class TestE8Lrpc:
    @pytest.fixture(scope="class")
    def rows(self):
        return e8_lrpc.run(ops=60)

    def test_fast_path_wins_at_full_locality(self, rows):
        on = by(rows, local_fraction=1.0, fast_path=True)[0]["mean_us"]
        off = by(rows, local_fraction=1.0, fast_path=False)[0]["mean_us"]
        assert on < off / 10

    def test_no_difference_when_fully_remote(self, rows):
        on = by(rows, local_fraction=0.0, fast_path=True)[0]["mean_us"]
        off = by(rows, local_fraction=0.0, fast_path=False)[0]["mean_us"]
        assert on == pytest.approx(off, rel=0.01)

    def test_latency_falls_with_locality_when_enabled(self, rows):
        enabled = [row["mean_us"] for row in by(rows, fast_path=True)]
        assert enabled[-1] < enabled[0] / 50


class TestE9Replication:
    @pytest.fixture(scope="class")
    def rows(self):
        # Full-size run: the staleness signal needs a few crash cycles.
        return e9_replication.run(ops=120)

    def test_reads_speed_up_with_near_replicas(self, rows):
        assert by(rows, mode="write-all", replicas=3)[0]["read_ms"] < \
            by(rows, mode="write-all", replicas=1)[0]["read_ms"] / 2

    def test_writes_slow_down_with_replicas(self, rows):
        writes = [row["write_ms"] for row in by(rows, mode="write-all")]
        assert writes == sorted(writes)

    def test_availability_improves(self, rows):
        assert by(rows, mode="write-all", replicas=3)[0]["availability"] > \
            by(rows, mode="write-all", replicas=1)[0]["availability"]
        assert by(rows, mode="write-all",
                  replicas=5)[0]["availability"] >= 0.99

    def test_overlapping_quorums_never_serve_stale(self, rows):
        # R + W > N: the versioned quorum mode's consistency contract,
        # here as a measurement rather than a checker verdict.
        assert by(rows, mode="quorum", write_quorum=2,
                  read_quorum=2)[0]["stale_reads"] == 0
        assert by(rows, mode="quorum", write_quorum=3,
                  read_quorum=1)[0]["stale_reads"] == 0

    def test_under_quorum_trades_staleness_for_availability(self, rows):
        weak = by(rows, mode="quorum", write_quorum=1, read_quorum=1)[0]
        strong = by(rows, mode="quorum", write_quorum=2, read_quorum=2)[0]
        pinned = by(rows, mode="quorum", write_quorum=3, read_quorum=1)[0]
        assert weak["stale_reads"] > strong["stale_reads"]
        assert weak["availability"] >= strong["availability"]
        assert strong["availability"] > pinned["availability"]
        assert weak["read_ms"] < strong["read_ms"] < pinned["read_ms"]

    def test_write_all_freshness_is_only_probabilistic(self, rows):
        # The legacy contract's measured counterpart to its simtest menu:
        # some sweep point serves a stale read under the crash schedule.
        assert any(row["stale_reads"] > 0
                   for row in by(rows, mode="write-all"))


class TestE10Marshalling:
    @pytest.fixture(scope="class")
    def rows(self):
        return e10_marshalling.run(ops=15)

    def test_latency_grows_with_payload(self, rows):
        payloads = by(rows, scenario="payload")
        means = [row["mean_ms"] for row in payloads]
        assert means == sorted(means)
        assert means[-1] > means[0] * 10

    def test_small_payloads_dominated_by_fixed_costs(self, rows):
        payloads = {row["size"]: row["mean_ms"]
                    for row in by(rows, scenario="payload")}
        assert payloads[256] < payloads[16] * 1.5

    def test_references_beat_values(self, rows):
        value16 = by(rows, scenario="16 args by value")[0]
        ref16 = by(rows, scenario="16 args by reference")[0]
        assert ref16["bytes_per_op"] < value16["bytes_per_op"] / 3
        assert ref16["mean_ms"] < value16["mean_ms"]


class TestE11Ablation:
    @pytest.fixture(scope="class")
    def rows(self):
        return e11_ablation.run(ops=60)

    def test_at_most_once_prevents_duplicates(self, rows):
        assert by(rows, ablation="at-most-once", setting="on")[0]["value"] == 0
        assert by(rows, ablation="at-most-once", setting="off")[0]["value"] > 0

    def test_gc_shrinks_table(self, rows):
        before = by(rows, ablation="proxy GC", setting="before sweep")[0]["value"]
        after = by(rows, ablation="proxy GC", setting="after sweep")[0]["value"]
        assert after < before

    def test_compaction_collapses_chains(self, rows):
        raw = by(rows, ablation="forwarding", setting="raw chain")[0]["value"]
        compacted = by(rows, ablation="forwarding",
                       setting="compacted")[0]["value"]
        assert raw == 4
        assert compacted == 1


class TestE12Pipelining:
    @pytest.fixture(scope="class")
    def rows(self):
        return e12_pipelining.run(ops=24)

    def test_wider_windows_monotonically_faster(self, rows):
        numbered = [row for row in rows if row["window"] != "unbounded"]
        totals = [row["total_ms"] for row in numbered]
        assert totals == sorted(totals, reverse=True)

    def test_unbounded_beats_sequential_heavily(self, rows):
        sequential = by(rows, window=1)[0]["total_ms"]
        unbounded = by(rows, window="unbounded")[0]["total_ms"]
        assert unbounded < sequential / 4

    def test_doubling_window_roughly_halves_time_early(self, rows):
        w1 = by(rows, window=1)[0]["total_ms"]
        w2 = by(rows, window=2)[0]["total_ms"]
        assert w2 == pytest.approx(w1 / 2, rel=0.15)


class TestE13Persistence:
    @pytest.fixture(scope="class")
    def rows(self):
        return e13_persistence.run()

    def test_tight_interval_loses_nothing(self, rows):
        assert by(rows, interval=1)[0]["lost_at_crash"] == 0

    def test_loss_grows_with_interval(self, rows):
        losses = [row["lost_at_crash"] for row in rows]
        assert losses == sorted(losses)
        assert losses[-1] > 0

    def test_overhead_falls_with_interval(self, rows):
        means = [row["mean_write_ms"] for row in rows]
        assert means == sorted(means, reverse=True)
        assert means[0] > means[-1] * 2

    def test_disk_writes_track_interval(self, rows):
        writes = {row["interval"]: row["disk_writes"] for row in rows}
        assert writes[1] > writes[32]


class TestE14Transactions:
    @pytest.fixture(scope="class")
    def rows(self):
        return e14_transactions.run(rounds=20)

    def test_abort_rate_grows_with_contention(self, rows):
        rates = [row["abort_rate"] for row in rows]
        assert rates == sorted(rates)

    def test_wide_pool_barely_conflicts(self, rows):
        assert by(rows, hot_keys=64)[0]["abort_rate"] < 0.2

    def test_single_hot_key_conflicts_heavily(self, rows):
        assert by(rows, hot_keys=1)[0]["abort_rate"] > 0.5

    def test_goodput_falls_with_contention(self, rows):
        assert by(rows, hot_keys=1)[0]["goodput_per_s"] < \
            by(rows, hot_keys=64)[0]["goodput_per_s"]


class TestE15WeakDsm:
    @pytest.fixture(scope="class")
    def rows(self):
        return e15_weak_dsm.run(ops=60)

    def test_weak_cuts_messages(self, rows):
        strong = by(rows, clients=8, protocol="strong")[0]["messages"]
        weak = by(rows, clients=8, protocol="weak")[0]["messages"]
        assert weak < strong / 2

    def test_weak_cuts_latency_under_sharing(self, rows):
        strong = by(rows, clients=8, protocol="strong")[0]["mean_ms"]
        weak = by(rows, clients=8, protocol="weak")[0]["mean_ms"]
        assert weak < strong

    def test_strong_never_stale(self, rows):
        assert all(row["stale_read_frac"] == 0
                   for row in by(rows, protocol="strong"))

    def test_weak_pays_in_staleness(self, rows):
        assert by(rows, clients=8, protocol="weak")[0]["stale_read_frac"] > 0

    def test_staleness_grows_with_writers(self, rows):
        fracs = [row["stale_read_frac"] for row in by(rows, protocol="weak")]
        assert fracs[-1] >= fracs[0]


class TestE16Events:
    @pytest.fixture(scope="class")
    def rows(self):
        return e16_events.run(events=20)

    def test_fanout_messages_grow_with_subscribers(self, rows):
        fanout = by(rows, scenario="fan-out")
        messages = [row["messages"] for row in fanout]
        assert messages == sorted(messages)

    def test_lossless_push_is_complete(self, rows):
        assert all(row["push_delivered_frac"] == 1.0
                   for row in by(rows, scenario="fan-out"))

    def test_replay_recovers_all_after_loss(self, rows):
        lossy = by(rows, scenario="40% loss")[0]
        assert lossy["push_delivered_frac"] < 1.0
        assert lossy["after_catch_up_frac"] == 1.0


class TestE17WanPlacement:
    @pytest.fixture(scope="class")
    def rows(self):
        return e17_wan_placement.run(ops=80)

    def test_central_strands_remote_site(self, rows):
        central_beta = by(rows, deployment="central", site="beta")[0]
        central_alpha = by(rows, deployment="central", site="alpha")[0]
        assert central_beta["mean_ms"] > central_alpha["mean_ms"] * 4

    def test_replication_equalises(self, rows):
        alpha = by(rows, deployment="replicated", site="alpha")[0]["mean_ms"]
        beta = by(rows, deployment="replicated", site="beta")[0]["mean_ms"]
        assert abs(alpha - beta) < max(alpha, beta) * 0.5

    def test_remote_site_rescued_by_replica(self, rows):
        assert by(rows, deployment="replicated", site="beta")[0]["mean_ms"] < \
            by(rows, deployment="central", site="beta")[0]["mean_ms"] / 3

    def test_caching_beats_central_for_remote(self, rows):
        assert by(rows, deployment="caching", site="beta")[0]["mean_ms"] < \
            by(rows, deployment="central", site="beta")[0]["mean_ms"]


class TestE18Fastpath:
    @pytest.fixture(scope="class")
    def payload(self):
        return e18_fastpath.bench_payload(ops=200)

    def test_covers_every_shipped_policy(self, payload):
        assert [row["policy"] for row in payload["policies"]] == \
            list(e18_fastpath.POLICIES)

    def test_deterministic_fields_shape(self, payload):
        rows = {row["policy"]: row for row in payload["policies"]}
        assert rows["caching"]["messages"] < rows["stub"]["messages"]
        assert rows["caching"]["sim_us_per_op"] < rows["stub"]["sim_us_per_op"]
        assert rows["replicated"]["messages"] > rows["stub"]["messages"]
        # Fault-free, the resilience layer is pure bookkeeping: the virtual
        # timeline must be exactly the stub's.
        assert rows["resilient"]["sim_us_per_op"] == \
            rows["stub"]["sim_us_per_op"]
        assert rows["resilient"]["messages"] == rows["stub"]["messages"]

    def test_run_rows_mirror_the_payload(self, payload):
        rows = e18_fastpath.run(ops=200)
        assert [row["policy"] for row in rows] == \
            [row["policy"] for row in payload["policies"]]
        for row, measured in zip(rows, payload["policies"]):
            assert row["sim_us_per_op"] == measured["sim_us_per_op"]
            assert row["messages"] == measured["messages"]
