"""E20 — admission control: goodput and p99 under offered overload.

The overload stack's claim is that saying *no* early is what keeps a
server saying *yes* at all: without protection, offered load beyond the
service rate turns into an unbounded backlog and goodput (completions
within the SLO, per virtual second) collapses; with a bounded run queue,
early token-bucket shedding, and a bulkhead, goodput flattens into a
saturation plateau at the service rate — congestion collapse becomes a
horizontal line.  Per the paper's thesis the whole stack is server-side
policy behind the proxy boundary: the client code is identical in every
scenario, and sees only latency, ``Overloaded`` rejections, and
retry-after hints its ``RetryPolicy`` honors.

The sweep crosses four protection stacks with four offered-load factors:

* ``none`` — admission installed only for the deterministic per-request
  service time (unbounded queue, no shedding): the collapse baseline;
* ``queue`` — a bounded run queue (overflow sheds with a retry-after);
* ``queue+shed`` — plus a node-wide token bucket that rejects *before*
  the queue fills, keeping slots available;
* ``queue+shed+bulkhead`` — plus per-class compartments and rates, so a
  background ``calm`` service keeps its share while the ``hot`` service
  is drowning.

Load is **open-loop** (:mod:`repro.workloads.arrivals`): seeded Poisson
arrival schedules fixed in advance, latency measured from the scheduled
arrival — the closed-loop drivers cannot create a backlog, and measuring
from issue time would hide exactly the stall this experiment exists to
show.  Every number is virtual-time arithmetic on seeded streams, so
``python -m repro bench e20 --json`` is byte-identical across runs and
CI diffs it against the committed ``BENCH_e20.json``.
"""

from __future__ import annotations

from ... import make_system
from ...apps.kv import KVStore
from ...core.export import get_space
from ...iface.interface import Interface
from ...kernel.admission import install_admission
from ...kernel.errors import ConfigurationError
from ...metrics.latency import LatencySummary
from ...resilience.retry import RetryPolicy
from ...workloads.arrivals import (
    merge_arrivals,
    poisson_arrivals,
    run_open_loop,
)

TITLE = "E20: admission control — goodput under offered overload"
COLUMNS = ["scenario", "stack", "load_x", "goodput", "hot_goodput",
           "calm_goodput", "p99_ms", "shed_queue", "shed_throttle",
           "failures", "messages"]

#: The protection stacks swept, weakest to strongest.
STACKS = ("none", "queue", "queue+shed", "queue+shed+bulkhead")

#: Offered hot-lane load as a multiple of :data:`SATURATION`.
LOADS = (0.5, 1.0, 2.0, 3.0)

#: Deterministic modelled work per admitted call — the run queue's drain
#: rate.  With ~60 µs of marshal/dispatch overhead the node saturates
#: near 1 / (SERVICE_TIME + overhead) ≈ 940 ops/s.
SERVICE_TIME = 1e-3

#: Nominal saturation rate of the one-node deployment; the load axis and
#: the token-bucket rates are expressed against it.
SATURATION = 900.0

#: The goodput SLO: an answer later than this is not *good* throughput.
SLO = 0.05

#: Node-wide run-queue slots.  The worst admitted wait is then
#: ``QUEUE_CAPACITY × SERVICE_TIME`` ≈ 34 ms < SLO: a bounded queue keeps
#: every admitted call answerable in time.
QUEUE_CAPACITY = 32

#: The shedding bucket: slightly under saturation so the bucket — not the
#: queue — turns sustained excess away, with a burst the queue can absorb.
SHED_RATE = 870.0
SHED_BURST = 32.0

#: Bulkhead compartments (must sum to QUEUE_CAPACITY; ``"*"`` is the
#: default lane for unassigned traffic) and per-class bucket rates.
BULKHEAD = {"hot": 22, "calm": 8, "*": 2}
CLASS_RATES = {"hot": (800.0, 22.0), "calm": (160.0, 8.0)}

#: Client pools per lane.  Open-loop load needs the pool to outnumber the
#: run-queue capacity by a wide margin: if every client can be in flight
#: without filling the queue, the pool itself throttles the offered load
#: and overload never reaches the admission layer.
HOT_CLIENTS = 128
CALM_CLIENTS = 16

#: Client-side retransmission budget: first try plus one honored
#: retry-after.  Open-loop callers must fail *fast* — burning the default
#: nine attempts on a saturated server just parks the client pool.
ATTEMPTS = 2

#: Arrivals per scenario: the hot lane's count is the --ops knob; the calm
#: lane runs a fixed-rate background fifth of it.
OPS = 600
CALM_FRACTION = 5
CALM_RATE = 100.0

#: Arrivals start here, clear of the bind handshakes at time zero.
START = 0.05

SEED = 20


def _stack_config(stack: str) -> dict:
    """The ``install_admission`` keywords for one protection stack."""
    if stack == "none":
        return {"capacity": None, "service_time": SERVICE_TIME}
    if stack == "queue":
        return {"capacity": QUEUE_CAPACITY, "service_time": SERVICE_TIME}
    if stack == "queue+shed":
        return {"capacity": QUEUE_CAPACITY, "service_time": SERVICE_TIME,
                "rate": SHED_RATE, "burst": SHED_BURST}
    if stack == "queue+shed+bulkhead":
        return {"capacity": QUEUE_CAPACITY, "service_time": SERVICE_TIME,
                "bulkhead": dict(BULKHEAD), "rates": dict(CLASS_RATES)}
    raise ConfigurationError(f"unknown protection stack {stack!r}")


def _run_scenario(stack: str, load: float, ops: int, seed: int) -> dict:
    """Deploy fresh and drive one (stack, load) cell; returns its row.

    Two KV services share the node: ``hot`` takes the swept offered load,
    ``calm`` a fixed 100/s background.  All measurement is virtual-time
    arithmetic over the scheduled arrivals, so the row is byte-stable.
    """
    system = make_system(seed=seed)
    server = system.add_node("srv").create_context("main")
    space = get_space(server)
    interface = Interface.of(KVStore)
    hot_ref = space.export(KVStore(), interface=interface, policy="stub")
    calm_ref = space.export(KVStore(), interface=interface, policy="stub")
    hot_ctxs = [system.add_node(f"h{i:02d}").create_context("main")
                for i in range(HOT_CLIENTS)]
    calm_ctxs = [system.add_node(f"k{i:02d}").create_context("main")
                 for i in range(CALM_CLIENTS)]
    # Bind before installing admission: the handshake round trips are
    # deployment, not offered load, and must not spend tokens.
    hot_clients = [(ctx.context_id, ctx,
                    get_space(ctx).bind_ref(hot_ref, handshake=True))
                   for ctx in hot_ctxs]
    calm_clients = [(ctx.context_id, ctx,
                     get_space(ctx).bind_ref(calm_ref, handshake=True))
                    for ctx in calm_ctxs]
    control = install_admission(server.node, **_stack_config(stack))
    control.assign(hot_ref.oid, "hot")
    control.assign(calm_ref.oid, "calm")
    system.rpc.retry_policy = RetryPolicy(attempts=ATTEMPTS)
    hot_times = poisson_arrivals(load * SATURATION, ops,
                                 system.seeds.stream("e20.arrivals.hot"),
                                 start=START)
    calm_times = poisson_arrivals(CALM_RATE, ops // CALM_FRACTION,
                                  system.seeds.stream("e20.arrivals.calm"),
                                  start=START)

    def issue(proxy, index):
        key = f"key-{index % 64}"
        if index % 4 == 0:
            proxy.put(key, index)
        else:
            proxy.get(key)

    mark = system.trace.mark()
    results = run_open_loop(
        {"hot": (hot_clients, issue), "calm": (calm_clients, issue)},
        merge_arrivals({"hot": hot_times, "calm": calm_times}))
    hot, calm = results["hot"], results["calm"]
    summary = LatencySummary.of("e20", hot.latencies or [0.0])
    counters = control.snapshot()
    messages = sum(1 for ev in system.trace.since(mark)
                   if ev.kind == "send")
    return {
        "scenario": f"{stack}@{load:g}x",
        "stack": stack,
        "load_x": load,
        "ops": hot.attempted + calm.attempted,
        # Goodput counts only answers within the SLO — a reply to a caller
        # who waited 300 ms is a liability that held a slot, not
        # throughput — and latency is anchored at the *scheduled* arrival,
        # so client-side lateness (coordinated omission) counts too.  The
        # total is the sum of the per-lane rates: each lane's SLO-met
        # completions over its own active span.
        "goodput": round(hot.goodput(SLO) + calm.goodput(SLO), 1),
        "hot_goodput": round(hot.goodput(SLO), 1),
        "calm_goodput": round(calm.goodput(SLO), 1),
        "p99_ms": round(summary.p99 * 1e3, 3),
        "shed_queue": counters.get("shed_queue", 0),
        "shed_throttle": counters.get("shed_throttle", 0),
        "sheds_hot": hot.shed,
        "sheds_calm": calm.shed,
        "failures": hot.failed + calm.failed,
        "completed": hot.completed + calm.completed,
        "messages": messages,
        "fingerprint": system.trace.fingerprint(),
    }


def measure_scenario(stack: str, load: float, ops: int = OPS,
                     seed: int = SEED, repeats: int = 2) -> dict:
    """One cell with a determinism self-check: every field of every repeat
    must agree — the row carries no wall numbers to excuse."""
    runs = [_run_scenario(stack, load, ops, seed) for _ in range(repeats)]
    for run_ in runs[1:]:
        if run_ != runs[0]:
            drifted = [key for key in runs[0] if run_[key] != runs[0][key]]
            raise AssertionError(
                f"E20 determinism violated: scenario "
                f"{runs[0]['scenario']!r} fields {drifted} drifted "
                f"between identical runs")
    return runs[0]


def bench_payload(ops: int = OPS, seed: int = SEED) -> dict:
    """The machine-readable benchmark record (``BENCH_e20.json``).

    Pure virtual-time record: CI diffs it against the committed one byte
    for byte.
    """
    if ops < 2 * HOT_CLIENTS:
        raise ConfigurationError(
            f"e20 needs ops >= {2 * HOT_CLIENTS} "
            f"(a couple per hot client), got {ops}")
    rows = [measure_scenario(stack, load, ops=ops, seed=seed)
            for stack in STACKS for load in LOADS]
    return {
        "experiment": "e20",
        "ops": ops,
        "seed": seed,
        "slo_ms": SLO * 1e3,
        "service_time_ms": SERVICE_TIME * 1e3,
        "saturation": SATURATION,
        "queue_capacity": QUEUE_CAPACITY,
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """The table form of a payload (the CLI's non-``--json`` rendering)."""
    return [{key: row[key] for key in COLUMNS}
            for row in payload["scenarios"]]


def run(ops: int = OPS, seed: int = SEED) -> list[dict]:
    """Sweep the four stacks across the load axis; one row per cell."""
    return bench_rows(bench_payload(ops=ops, seed=seed))
