"""E19 — consistent-hash sharding: scaling and the hot-shard split.

The ``sharded`` policy's claim is that partitioning is *useful* structure
hidden behind the proxy: N shards should serve nearly N times the load of
one, and an operator splitting a hot shard mid-run should shed its excess
load without any client noticing more than a fence redirect.  E19 measures
both, entirely in **virtual time**:

* eight concurrent clients drive a Zipf-skewed (``s = 1.1``) get/put mix
  over a 5 000-key universe (:mod:`repro.workloads`) against 1, 2, 4 and
  8 shards.  Requests serialise through each shard context's busy line,
  so a single shard queues where eight shards run in parallel — virtual
  throughput must scale monotonically with the shard count;
* the ``8+split`` scenario re-runs the 8-shard deployment but, halfway
  through, splits the hottest shard (the one owning the largest expected
  Zipf mass) toward the coldest: half its ring arcs — data and all — move
  via the epoch-fenced handoff protocol while the other seven shards keep
  serving, and the second-half throughput shows the recovery.

Every reported number is deterministic — virtual throughput (ops per
virtual second), nearest-rank latency percentiles, message counts, trace
fingerprints — so ``python -m repro bench e19 --json`` must be
byte-identical across runs; the harness enforces it by running every
scenario twice and comparing entire rows.  That is also what lets CI
``diff`` a fresh record against the committed ``BENCH_e19.json``.
"""

from __future__ import annotations

from ... import make_system
from ...apps.kv import KVStore
from ...kernel.errors import ConfigurationError
from ...core.export import get_space
from ...core.policies.sharding import shard
from ...metrics.latency import LatencySummary
from ...wire import shards
from ...workloads.distributions import ZipfSampler, key_name
from ...workloads.sessions import OpMix, proxy_session, run_interleaved

TITLE = "E19: consistent-hash sharding — scaling and hot-shard split"
COLUMNS = ["scenario", "shards", "virtual_kops", "first_half_kops",
           "second_half_kops", "p50_us", "p99_us", "messages", "moved_arcs",
           "redirects", "heals"]

#: Shard counts swept for the scaling curve.
SHARD_COUNTS = (1, 2, 4, 8)

#: Concurrent client sessions (the offered parallelism).  Sized so the
#: single-shard deployment saturates its busy line (~64 requests of
#: ~100 µs server work per ~2.4 ms round trip ≈ 2.7× capacity): shard
#: scaling only shows when one shard genuinely queues.
CLIENTS = 64

#: Total operations per scenario, split evenly across the clients.
OPS = 3200

#: Key-universe size (large: routing must bisect a real ring, not memoise
#: four hot keys) and the Zipf skew driving the hot shard.
NUM_KEYS = 5000
ZIPF_S = 1.1

READ_FRACTION = 0.8
SEED = 19

#: Zipf head size used to estimate per-shard load for the split decision.
_HEAD = 256


def _expected_load(state: shards.ShardState, count: int) -> list[float]:
    """Expected traffic share per shard over the Zipf head (analytic)."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, _HEAD + 1)]
    load = [0.0] * count
    for index, weight in enumerate(weights):
        load[state.owner_of(shards.stable_hash(key_name(index)))] += weight
    return load


def _run_scenario(shard_count: int, split: bool, ops: int,
                  seed: int) -> dict:
    """Deploy fresh and drive one scenario; returns its (deterministic) row.

    Virtual-only measurement: throughput is total ops over the span from
    the earliest session start to the latest session finish on the
    *virtual* clocks, and latencies are per-op virtual durations — wall
    time never enters, so the row is byte-stable across runs.
    """
    system = make_system(seed=seed)
    server_ctxs = [system.add_node(f"s{i}").create_context("main")
                   for i in range(shard_count)]
    client_ctxs = [system.add_node(f"c{i:02d}").create_context("main")
                   for i in range(CLIENTS)]
    operator_ctx = system.add_node("operator").create_context("main")
    ref = shard(server_ctxs, KVStore, shard_key=0)
    proxies = [get_space(ctx).bind_ref(ref, handshake=True)
               for ctx in client_ctxs]
    operator = get_space(operator_ctx).bind_ref(ref, handshake=True)
    sessions = []
    for i, (ctx, proxy) in enumerate(zip(client_ctxs, proxies)):
        sampler = ZipfSampler(NUM_KEYS, system.seeds.stream(f"e19.keys.c{i}"),
                              s=ZIPF_S)
        mix = OpMix(read_fraction=READ_FRACTION, key_sampler=sampler,
                    value_size=32)
        # Reads are prefix scans (50 µs of modelled server compute) rather
        # than point gets: server *work* is what sharding scales, and a
        # pure point-op mix is round-trip-bound at any shard count.
        sessions.append(proxy_session(f"c{i:02d}", ctx, proxy, mix,
                                      system.seeds.stream(f"e19.mix.c{i}"),
                                      read_verb="keys_with_prefix"))
    # Preload the Zipf head so measured gets mostly hit (outside the
    # mark).  Round-robin across the clients: a single client issuing all
    # the puts would run its clock — and the shards' busy lines — tens of
    # milliseconds ahead of everyone else, and the laggards' first
    # measured ops would queue behind that phantom backlog.
    for index in range(32):
        proxies[index % CLIENTS].put(key_name(index), f"seed-{index}")
    mark = system.trace.mark()
    starts = [ctx.clock.now for ctx in client_ctxs]
    per_client = ops // CLIENTS
    first = run_interleaved(sessions, per_client // 2)
    moved_arcs = 0
    if split:
        # Operator action mid-run: split the hottest shard (largest
        # expected Zipf mass) toward the coldest.  The decision is
        # analytic — ring plus Zipf weights — hence deterministic.  The
        # operator acts *at the fleet's current time* (clock advanced to
        # the furthest client) and skips the anti-entropy sweeps
        # (sync=False: the ring is still at its bootstrap epoch, and each
        # serial sweep round trip would run the operator — and therefore
        # the handoffs' arrival at the shard busy lines — further ahead
        # of the live traffic it is splitting around).
        operator_ctx.clock.advance_to(
            max(ctx.clock.now for ctx in client_ctxs))
        state = shards.ShardState(-1, *operator.proxy_shard_map(sync=False))
        load = _expected_load(state, shard_count)
        hot = max(range(shard_count), key=lambda i: (load[i], -i))
        cold = min(range(shard_count),
                   key=lambda i: (load[i], i) if i != hot else (1e9, i))
        moved_arcs = operator.proxy_split(hot, cold, sync=False)
        # The handoff window: the serial fence→extract→install→commit
        # round trips put the source and target busy lines at the
        # operator's finish time.  Busy lines have no backfill (a request
        # arriving mid-window cannot run in the idle gap — see
        # kernel.clock.BusyLine), so traffic racing the window would queue
        # behind it and each closed-loop reply would ratchet the line
        # further into the future — an artefact of processing order, not
        # contention.  Model the window as drained instead: every client
        # observes the split complete before its next operation, and the
        # window's cost shows up honestly in ``virtual_kops`` (whole-run
        # span) while ``second_half_kops`` measures the post-split rate.
        for ctx in client_ctxs:
            ctx.clock.advance_to(operator_ctx.clock.now)
    second = run_interleaved(sessions, per_client - per_client // 2)
    elapsed = max(ctx.clock.now for ctx in client_ctxs) - min(starts)
    total_ops = first.operations + second.operations
    samples = first.all_latencies() + second.all_latencies()
    summary = LatencySummary.of("e19", samples)
    messages = sum(1 for ev in system.trace.since(mark)
                   if ev.kind == "send")
    return {
        "scenario": f"{shard_count}+split" if split else str(shard_count),
        "shards": shard_count,
        "ops": total_ops,
        "failures": first.failures + second.failures,
        "virtual_kops": round(total_ops / elapsed / 1e3, 2),
        "first_half_kops": round(
            first.operations / first.elapsed / 1e3, 2),
        "second_half_kops": round(
            second.operations / second.elapsed / 1e3, 2),
        "p50_us": round(summary.p50 * 1e6, 2),
        "p99_us": round(summary.p99 * 1e6, 2),
        "messages": messages,
        "moved_arcs": moved_arcs,
        # The fence story after a split: stale-ring calls for moved keys
        # bounce with the new map (redirects), while stale calls whose
        # keys stayed put are served with the map piggybacked (heals) —
        # both zero when the ring never changed.
        "redirects": sum(p.proxy_stats["shard_redirects"] for p in proxies),
        "heals": sum(p.proxy_stats["shard_heals"] for p in proxies),
        "fingerprint": system.trace.fingerprint(),
    }


def measure_scenario(shard_count: int, split: bool = False, ops: int = OPS,
                     seed: int = SEED, repeats: int = 2) -> dict:
    """One scenario with a determinism self-check: every field of every
    repeat must agree (there are no wall numbers to excuse)."""
    runs = [_run_scenario(shard_count, split, ops, seed)
            for _ in range(repeats)]
    for run_ in runs[1:]:
        if run_ != runs[0]:
            drifted = [key for key in runs[0] if run_[key] != runs[0][key]]
            raise AssertionError(
                f"E19 determinism violated: scenario "
                f"{runs[0]['scenario']!r} fields {drifted} drifted "
                f"between identical runs")
    return runs[0]


def bench_payload(ops: int = OPS, seed: int = SEED) -> dict:
    """The machine-readable benchmark record (``BENCH_e19.json``).

    Pure virtual-time record: CI diffs it against the committed one byte
    for byte.
    """
    if ops < 2 * CLIENTS:
        raise ConfigurationError(
            f"e19 needs ops >= {2 * CLIENTS} (one op per client per half), "
            f"got {ops}")
    rows = [measure_scenario(count, ops=ops, seed=seed)
            for count in SHARD_COUNTS]
    rows.append(measure_scenario(SHARD_COUNTS[-1], split=True, ops=ops,
                                 seed=seed))
    return {
        "experiment": "e19",
        "ops": ops,
        "seed": seed,
        "clients": CLIENTS,
        "num_keys": NUM_KEYS,
        "zipf_s": ZIPF_S,
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """The table form of a payload (the CLI's non-``--json`` rendering)."""
    return [{key: row[key] for key in COLUMNS}
            for row in payload["scenarios"]]


def run(ops: int = OPS, seed: int = SEED) -> list[dict]:
    """Sweep the scaling curve plus the split scenario; one row each."""
    return bench_rows(bench_payload(ops=ops, seed=seed))
