"""E7b — the resilience layer under message loss plus periodic crashes.

E7 shows the Birrell–Nelson discipline masking *loss*; this companion turns
the failure dial further — loss **and** a periodically crashing primary —
and compares two proxies over the same seeded workload:

* **baseline** — the plain ``stub`` policy with the protocol's fixed-interval
  retry schedule (the 1984 discipline: every failure eats the full budget);
* **resilient** — the ``resilient`` policy: exponential backoff with jitter,
  a per-call deadline, circuit breakers, read failover to two replicas, and
  stale-read degradation.

Two effects, one sweep over the loss rate:

* availability: the resilient proxy keeps serving reads through primary
  outages (failover / stale cache) and converts repeated write failures
  into fast local refusals — its success rate dominates the baseline's;
* tail latency: the deadline caps every failure at the call budget, while
  a baseline failure always pays the full fixed-retry timeout, so the
  resilient p99 sits well below the baseline p99 under stress.

The last two columns isolate the breaker's fast-fail asymmetry: one failed
call against an OPEN breaker (``open_fail_ms``, a few local checks) versus
one exhausted retry budget against a dead node (``timeout_fail_ms``) — the
acceptance bar is a >=10x gap.
"""

from __future__ import annotations

from ...apps.kv import KVStore
from ...failures.injectors import message_loss
from ...failures.schedule import ChaosSchedule
from ...kernel.errors import CircuitOpen, DistributionError
from ...metrics.latency import percentile
from ...naming.bootstrap import bind, register
from ...resilience.policy import resilient_group
from ..common import mesh, ms

TITLE = "E7b: resilience on/off under message loss + primary crashes"
COLUMNS = ["loss", "base_ok", "res_ok", "base_p99_ms", "res_p99_ms",
           "open_fail_ms", "timeout_fail_ms"]

LOSS_RATES = (0.1, 0.2, 0.3)
OPS = 160
KEYS = 8
GROUP = 3  # primary + two read replicas

#: The resilient policy's knobs (see repro.resilience.policy).  The reset
#: timeout must sit on the workload's timescale: healthy ops take ~1-2 ms of
#: virtual time, so a 10 ms cooldown lets a breaker that opened during an
#: outage re-probe (and close) within a handful of operations of the
#: restart, instead of staying open across the whole healthy window.
RETRY = {"attempts": 5, "multiplier": 2.0, "jitter": 0.1}
CALL_BUDGET = 0.12
BREAKER = {"failure_threshold": 3, "reset_timeout": 0.01}

READ_FRACTION = 0.7
CRASH_EVERY = 25
CRASH_DURATION = 8


def _seeded_store() -> KVStore:
    """A KV store pre-populated with the working set (so replicas can
    answer reads without ever having seen a write)."""
    store = KVStore()
    for index in range(KEYS):
        store.put(f"k{index}", f"v{index}")
    return store


def _workload(system, client, proxy, ops: int, loss: float):
    """Drive the seeded read/write mix against one proxy.

    Both arms build identical systems from the same seed and use the same
    stream name, so they face the *identical* operation sequence, drop
    pattern, and crash schedule; only the proxy policy differs.
    """
    schedule = ChaosSchedule.periodic(["n0"], every=CRASH_EVERY,
                                      duration=CRASH_DURATION, total_ops=ops)
    rng = system.seeds.stream("e7b.ops")
    successes = 0
    latencies = []
    with message_loss(system, loss):
        for index in range(ops):
            schedule.tick(system)
            key = f"k{rng.randrange(KEYS)}"
            reading = rng.random() < READ_FRACTION
            before = client.clock.now
            try:
                if reading:
                    proxy.get(key)
                else:
                    proxy.put(key, index)
                successes += 1
            except DistributionError:
                pass
            latencies.append(client.clock.now - before)
    return successes / ops, percentile(sorted(latencies), 99)


def _run_baseline(seed: int, ops: int, loss: float):
    system, contexts = mesh(seed=seed, nodes=GROUP + 1)
    register(contexts[0], "kv", _seeded_store())
    client = contexts[-1]
    proxy = bind(client, "kv")
    return _workload(system, client, proxy, ops, loss)


def _run_resilient(seed: int, ops: int, loss: float):
    system, contexts = mesh(seed=seed, nodes=GROUP + 1)
    ref = resilient_group(contexts[:GROUP], _seeded_store, retry=RETRY,
                          call_budget=CALL_BUDGET, breaker=BREAKER)
    register(contexts[0], "kv", ref)
    client = contexts[-1]
    proxy = bind(client, "kv")
    return _workload(system, client, proxy, ops, loss)


def _fail_fast_gap(seed: int) -> tuple[float, float]:
    """(open_fail_ms, timeout_fail_ms): one breaker refusal versus one
    exhausted fixed-retry budget, both against dead destinations."""
    # Baseline: crash the only server, pay the full retry budget once.
    system, contexts = mesh(seed=seed, nodes=2)
    register(contexts[0], "kv", _seeded_store())
    client = contexts[1]
    proxy = bind(client, "kv")
    contexts[0].node.crash()
    before = client.clock.now
    try:
        proxy.get("k0")
    except DistributionError:
        pass
    timeout_fail_ms = ms(client.clock.now - before)

    # Resilient: crash the whole group and force-open every breaker toward
    # it — the failure detector's trip pathway — then measure one fully
    # fast-failed call while the cooldowns are still running.
    system, contexts = mesh(seed=seed, nodes=GROUP + 1)
    ref = resilient_group(contexts[:GROUP], _seeded_store, retry=RETRY,
                          call_budget=CALL_BUDGET, breaker=BREAKER)
    register(contexts[0], "kv", ref)
    client = contexts[-1]
    proxy = bind(client, "kv")
    registry = system.breakers
    for ctx in contexts[:GROUP]:
        ctx.node.crash()
        registry.between(client.context_id, ctx.context_id).trip(
            client.clock.now)
    open_fail_ms = 0.0
    before = client.clock.now
    try:
        proxy.get("k0")
    except CircuitOpen:
        open_fail_ms = ms(client.clock.now - before)
    return open_fail_ms, timeout_fail_ms


def run(ops: int = OPS, seed: int = 31) -> list[dict]:
    """Sweep loss probability; returns one row per rate."""
    open_fail_ms, timeout_fail_ms = _fail_fast_gap(seed)
    rows = []
    for loss in LOSS_RATES:
        base_ok, base_p99 = _run_baseline(seed, ops, loss)
        res_ok, res_p99 = _run_resilient(seed, ops, loss)
        rows.append({
            "loss": loss,
            "base_ok": base_ok,
            "res_ok": res_ok,
            "base_p99_ms": ms(base_p99),
            "res_p99_ms": ms(res_p99),
            "open_fail_ms": open_fail_ms,
            "timeout_fail_ms": timeout_fail_ms,
        })
    return rows
