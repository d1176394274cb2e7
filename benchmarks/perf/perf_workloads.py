"""The eight workloads, their generated inputs and their reference models.

Every workload is a closed loop with one driver thread.  A workload is a
sequence of *identical rounds*: fresh ``deploy``, bind handshake, two
warm-up operations, then the timed operations — so round-to-round
differences in wall time are host noise by construction, and the trace
(unbounded, per system) dies with its round.

Inputs come from the benchmark's own ``random.Random`` seeded by
``--seed``, generated before anything is timed; the program only ever
sees the generated operations (and ``make_system(seed)`` for its own
latency/loss streams).  The exception is ``simtest_battery``, which runs
the correctness battery exactly as CI does — there the case seeds are
CI's, the program's own generators make the operations, and ``--seed``
only orders the cases.

Correctness: a single client against a KV store is exactly a dict, so
every ``get`` is compared with a plain-dict model of the stream; every
battery case must come back with verdict ``ok``.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass, replace
from itertools import accumulate
from math import ceil
from time import perf_counter, process_time

# ``deploy`` is reached through its module so that the traced pass, which
# wraps ``repro.simtest.workload.deploy``, sees this call too.
from repro.simtest import workload as simtest_workload
from repro.simtest.runner import SimCase, build_case, run_case
from repro.wire.marshal import clear_memos, memo_stats


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see README.md)."""

    name: str
    why: str
    policy: str | None     # None: the simtest battery
    ops: int               # client operations per round
    put_share: float = 0.2
    keyspace: int = 4
    zipf_s: float = 0.0
    bulk_bytes: int = 0
    maintenance_every: int = 0
    #: Which client's proxy pumps the maintenance sweep.  0: the driving
    #: client itself, as simtest does.  1: a second client that sends no
    #: traffic (an operator), so the driving client learns of each sweep
    #: only from the servers' replies.
    pump_client: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("stub_small",
             "Bare forwarding at the smallest message: only per-call fixed "
             "cost (rpc, wire, proxy dispatch); the baseline every other "
             "row is read against.",
             "stub", 8000),
    Workload("caching_hot",
             "The proxy answers 95% of calls locally, so rpc/wire/network "
             "are nearly bypassed: the control on which a wire or RPC "
             "optimisation should predict no change.",
             "caching", 25000, put_share=0.05),
    Workload("replicated_read",
             "Read-heavy quorum traffic (3 replicas, W=2/R=2, elected "
             "leader): 2+ RPCs/op carrying q.* envelopes through the "
             "generic dict marshaller; wire is the top layer.",
             "replicated", 1500),
    Workload("replicated_write",
             "Same deployment, 80% puts plus an anti-entropy sweep every 64 "
             "ops: fan-out, ack counting, lease renewal; catches a "
             "read-path gain that costs writes.",
             "replicated", 1500, put_share=0.8, maintenance_every=64),
    Workload("composite_stack",
             "Caching over replicated: nested proxy_next hops with mixed "
             "hit/miss traffic; where compiling the layer chain must win.",
             "composite", 3000),
    Workload("bulk_64k",
             "64 KiB values through the stub: zero-copy segments keep wall "
             "cost flat while virtual cost scales with bytes; a "
             "reintroduced copy shows here.",
             "stub", 6000, put_share=0.5, bulk_bytes=65536),
    Workload("sharded_zipf",
             "Zipf(0.8) over 50000 keys on 3 shards, arcs moved by a second "
             "client: a round touches 5000+ distinct keys, so the "
             "marshaller's 4096-entry memos evict, and stale maps are "
             "healed or redirected.",
             "sharded", 8000, keyspace=50000, zipf_s=0.8,
             maintenance_every=256, pump_client=1),
    Workload("simtest_battery",
             "What CI pays on every push: build, deploy, drive under chaos "
             "and check 100 cases (10 shipped policies x 10 seeds); the "
             "checker is the top layer.",
             None, 2400),
)}

#: Battery shape: cases per round = policies x seeds.
BATTERY_SEEDS = 10
BATTERY_OPS = 24
BATTERY_CLIENTS = 3

_FAILED = object()    # result slot of an operation that raised


@dataclass
class Round:
    """Everything one round measured (host times in seconds)."""

    setup_s: float            # deploy + bind handshake + warm-up
    wall_s: float             # the timed part
    cpu_s: float
    #: Host time from each op's completion to the next one's (battery: per
    #: case), so the gaps add up to ``wall_s``; and the time inside each
    #: proxy call alone (battery: case wall / case ops).  The measuring
    #: loop folds these into per-index minima and drops them.
    gaps: list
    op_wall: list
    sim_us_per_op: float      # virtual: mean client-clock advance per op
    sim_us_p99: float
    sim_samples: int
    attempted: int
    failed: int
    identity: tuple           # (fingerprint, virtual time, messages)
    extra: dict               # battery: checker and outcome counts
    rate: float = 0.0         # host speed sampled right after the round


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def scaled(workload: Workload, divisor: int) -> Workload:
    """The same workload with ``ops / divisor`` operations per round."""
    if workload.policy is None or divisor == 1:
        return workload
    return replace(workload, ops=max(64, workload.ops // divisor))


def outsizes_memos(workload: Workload) -> bool:
    """Whether a round draws more operations than the marshaller's memos
    hold, from a key space larger than them.

    Such a round is there to overflow the memos: it must evict, and it only
    does so at full length.
    """
    return min(workload.ops, workload.keyspace) > memo_stats()["max_entries"]


def make_stream(workload: Workload, seed: int) -> tuple[list, list]:
    """``(ops, expected)``: the op list and the model's answer for each.

    ``ops`` holds ``(is_put, key, value)``; the put count is exact
    (``round(ops * put_share)``, positions shuffled) so that the mix — and
    with it virtual time per op — does not wander with the seed.
    """
    rng = random.Random(f"perf:{workload.name}:{seed}")
    n = workload.ops
    keys = [f"k{i}" for i in range(workload.keyspace)]
    if workload.zipf_s:
        weights = list(accumulate(
            1.0 / (rank ** workload.zipf_s)
            for rank in range(1, len(keys) + 1)))
        chosen = rng.choices(keys, cum_weights=weights, k=n)
    else:
        chosen = rng.choices(keys, k=n)
    puts = [True] * round(n * workload.put_share)
    puts += [False] * (n - len(puts))
    rng.shuffle(puts)
    blobs = [rng.randbytes(workload.bulk_bytes) for _ in range(8)] \
        if workload.bulk_bytes else None
    model = {keys[0]: 0}    # the two warm-up ops: put(k0, 0), get(k0)
    ops, expected = [], []
    for index, (is_put, key) in enumerate(zip(puts, chosen)):
        if is_put:
            value = blobs[rng.randrange(8)] if blobs else index
            model[key] = value
            ops.append((True, key, value))
            expected.append(True)
        else:
            ops.append((False, key, None))
            expected.append(model.get(key))
    return ops, expected


def _fresh_round() -> None:
    """Make rounds identical in host work, not only in simulated work.

    The marshaller's memos are process-global; left alone, every round
    after the first would find each frame of the replayed stream already
    encoded (a put of a never-seen value hitting the template memo), which
    no fresh process ever sees.
    """
    clear_memos()
    gc.collect()


def run_round(workload: Workload, seed: int, stream,
              before_timed=lambda: None) -> Round:
    """One round of a policy workload: deploy, warm up, time the stream.

    ``before_timed`` runs between the warm-up and the timed part (the
    traced pass drops its set-up spans there).
    """
    ops, expected = stream
    n = len(ops)
    _fresh_round()
    began = perf_counter()
    deployment = simtest_workload.deploy(SimCase(
        seed=seed, policy=workload.policy, service="kv", ops=n,
        clients=workload.pump_client + 1, faults=()))
    system = deployment.system
    _, ctx, proxy = deployment.clients[0]
    proxy.put("k0", 0)
    proxy.get("k0")
    setup_s = perf_counter() - began
    before_timed()

    clock = ctx.clock
    every = workload.maintenance_every
    # ``deployment.maintenance`` is bound to the first client's proxy; take
    # the same sweep from the pumping client's.
    pump = deployment.clients[workload.pump_client][2]
    maintenance = every and getattr(pump, deployment.maintenance.__name__)
    results = [None] * n
    op_wall = [0.0] * n
    done_at = [0.0] * n
    sim = [0.0] * n
    mark = len(system.trace)
    sim_start = clock.now
    cpu_start = process_time()
    start = perf_counter()
    for index, (is_put, key, value) in enumerate(ops):
        if every and index and index % every == 0:
            maintenance()
        virtual = clock.now
        t0 = perf_counter()
        try:
            if is_put:
                results[index] = proxy.put(key, value)
            else:
                results[index] = proxy.get(key)
        except Exception:    # noqa: BLE001 — any raise is a failed op
            results[index] = _FAILED
        done_at[index] = t1 = perf_counter()
        op_wall[index] = t1 - t0
        sim[index] = clock.now - virtual
    wall_s = done_at[-1] - start
    cpu_s = process_time() - cpu_start
    sim_total = clock.now - sim_start

    failed = sum(1 for got, want in zip(results, expected) if got != want)
    messages = sum(1 for ev in system.trace.events[mark:]
                   if ev.kind == "send")
    return Round(
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        gaps=[b - a for a, b in zip([start] + done_at, done_at)],
        op_wall=op_wall,
        # A sweep pumped by the driving client advances its clock between
        # ops: the mean amortises that over the ops, the percentile leaves
        # it out.
        sim_us_per_op=sim_total * 1e6 / n,
        sim_us_p99=percentile(sim, 0.99) * 1e6, sim_samples=n,
        attempted=n, failed=failed,
        identity=(system.trace.fingerprint(), repr(clock.now), messages),
        extra={})


def battery_cases(seed: int) -> list:
    """The battery's case list: every shipped policy x case seeds 0-9.

    The case seeds are the ones CI runs, whatever ``seed`` is: checker
    cost is heavy-tailed in the case seed (one ``caching`` history costs
    ten times the median case), so a battery drawn afresh per ``seed``
    measures which cases it drew, not the code.  ``seed`` decides the
    order the cases run in.
    """
    cases = [build_case(case_seed, policy, ops=BATTERY_OPS,
                        clients=BATTERY_CLIENTS)
             for policy in simtest_workload.SHIPPED_POLICIES
             for case_seed in range(BATTERY_SEEDS)]
    random.Random(f"perf:simtest_battery:{seed}").shuffle(cases)
    return cases


def run_battery_round(cases: list, before_timed=lambda: None) -> Round:
    """One battery round: deploy + drive + check every case, as CI does.

    ``setup_s`` is the deploy of the first case, measured apart so the
    metric means the same thing on every workload.
    """
    _fresh_round()
    began = perf_counter()
    simtest_workload.deploy(cases[0])
    setup_s = perf_counter() - began
    before_timed()

    case_wall, sim, digest = [], [], hashlib.sha256()
    failed = explored = unknown = faulted = 0
    cpu_start = process_time()
    start = perf_counter()
    for case in cases:
        t0 = perf_counter()
        report = run_case(case, minimize=False)
        case_wall.append(perf_counter() - t0)
        if report.verdict != "ok":
            failed += case.ops
        unknown += report.verdict == "unknown"
        explored += report.check.explored
        faulted += report.stats["maybe"] + report.stats["fail"]
        sim.extend((op.complete - op.invoke) * 1e6
                   for op in report.history if op.complete is not None)
        digest.update(report.fingerprint.encode())
    wall_s = sum(case_wall)
    cpu_s = process_time() - cpu_start
    attempted = sum(case.ops for case in cases)
    return Round(
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        gaps=case_wall,
        op_wall=[wall / case.ops for wall, case in zip(case_wall, cases)],
        sim_us_per_op=sum(sim) / len(sim),
        sim_us_p99=percentile(sim, 0.99), sim_samples=len(sim),
        attempted=attempted, failed=failed,
        identity=(digest.hexdigest(), repr(sum(sim)), len(sim)),
        extra={"cases": len(cases), "explored": explored,
               "unknown": unknown, "fault_outcomes": faulted})
