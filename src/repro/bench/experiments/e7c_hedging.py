"""E7c — hedged reads and per-link adaptive timeouts under loss.

E7b shows backoff, deadlines, and breakers beating the 1984 discipline
under stress.  This companion measures the two *latency-side* policies on
top of that stack — both client-side distribution policy in the paper's
sense, shipped inside the proxy by the service:

* **hedging** (the ``resilient`` policy's ``hedge`` switch): a read is
  issued as a single-attempt promise; after a per-link p95-ish delay a
  backup request races it to the nearest breaker-admitted replica, and the
  first answer wins.  Under loss this converts "wait out a retransmission
  timer" into "ask someone else", which is exactly the tail-cutting trade
  of Dean & Barroso's *The Tail at Scale*;
* **adaptive timeouts** (:class:`~repro.resilience.latency.LatencyTracker`):
  retransmission patience comes from each link's Jacobson RTT estimate
  (``srtt + 4·rttvar``) instead of the global ``costs.rpc_timeout``, so a
  fast LAN link detects a loss in a few milliseconds rather than twenty.

Both arms face the identical seeded workload — message loss swept over
``LOSS_RATES`` with one deliberately **slow replica** (so naive hedging to
a random backup would be a bad bet; the policy must rank replicas by link
distance and pick the fast one):

* **serial** — the ``resilient`` policy exactly as E7b ships it:
  exponential backoff paced by the global timeout, read failover, no
  hedging;
* **hedged** — the same policy with ``adaptive`` retry and ``hedge`` on.

Expected effects, visible in the table:

* tail latency: a lost read on the serial arm waits out at least one
  full global-timeout interval (and its exponential successors), while
  the hedged arm covers the loss with a backup a few milliseconds in —
  ``hedged_p99_ms`` sits far below ``serial_p99_ms`` at every loss rate;
* availability: never worse — a hedge that loses both single-shot legs
  falls back to the serial walk, so ``hedged_ok >= serial_ok``;
* adaptivity: ``link_patience_ms`` (the client→primary Jacobson RTO after
  the run) sits well below ``global_patience_ms`` (the
  ``rpc_timeout``-derived patience the serial arm pays per interval).
"""

from __future__ import annotations

from ...apps.kv import KVStore
from ...failures.injectors import degraded_link, message_loss
from ...kernel.errors import DistributionError
from ...metrics.latency import percentile
from ...naming.bootstrap import bind, register
from ...resilience.policy import resilient_group
from ..common import mesh, ms

TITLE = "E7c: hedged reads + adaptive timeouts vs serial retry under loss"
COLUMNS = ["loss", "serial_ok", "hedged_ok", "serial_p99_ms",
           "hedged_p99_ms", "hedges", "hedge_wins",
           "link_patience_ms", "global_patience_ms"]

LOSS_RATES = (0.1, 0.2, 0.3)
OPS = 160
KEYS = 8
GROUP = 3  # primary + two read replicas (one of them slow)
WARMUP = 20  # reads that mature the link estimators before the sweep

#: Serial arm: E7b's resilient knobs.  Hedged arm: the same schedule with
#: per-link adaptive pacing.  The slow replica's client link is ~8x the
#: default one-way latency — far enough that hedging to it would *add*
#: tail latency, so the candidate ranking is load-bearing.
RETRY = {"attempts": 5, "multiplier": 2.0, "jitter": 0.1}
ADAPTIVE_RETRY = {**RETRY, "adaptive": True}
BREAKER = {"failure_threshold": 3, "reset_timeout": 0.01}
#: Same explicit per-call deadline on both arms (as in E7b), so the
#: availability comparison is apples-to-apples: without it the hedged
#: arm's link-derived budget (~70 ms) bounds tails the serial arm is
#: free to wait out, which conflates boundedness with availability.
CALL_BUDGET = 0.12
SLOW_REPLICA_LATENCY = 8e-3

READ_FRACTION = 0.85


def _seeded_store() -> KVStore:
    """A KV store pre-populated with the working set (so replicas can
    answer reads without ever having seen a write)."""
    store = KVStore()
    for index in range(KEYS):
        store.put(f"k{index}", f"v{index}")
    return store


def _build(seed: int, hedged: bool):
    """One fresh system + bound client proxy for one arm.

    Topology: n0 primary, n1 slow replica, n2 fast replica, n3 client.
    Both arms are built from the same seed, so they face the identical
    operation sequence and drop pattern; only the proxy policy differs.
    """
    system, contexts = mesh(seed=seed, nodes=GROUP + 1)
    ref = resilient_group(
        contexts[:GROUP], _seeded_store,
        retry=ADAPTIVE_RETRY if hedged else RETRY,
        call_budget=CALL_BUDGET,
        breaker=BREAKER,
        hedge=hedged)
    register(contexts[0], "kv", ref)
    client = contexts[-1]
    proxy = bind(client, "kv")
    return system, client, proxy


def _workload(system, client, proxy, ops: int, loss: float):
    """Drive the seeded read-heavy mix against one proxy."""
    rng = system.seeds.stream("e7c.ops")
    successes = 0
    latencies = []
    slow = degraded_link(system, client.node.name, "n1",
                         latency=SLOW_REPLICA_LATENCY)
    with slow:
        for index in range(WARMUP):  # mature the link estimators
            proxy.get(f"k{index % KEYS}")
        with message_loss(system, loss):
            for index in range(ops):
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


def _patience_pair(system, client, proxy) -> tuple[float, float]:
    """(adaptive, global) base patience on the client→primary link.

    The global figure is what the protocol computes from the cost model
    for a small request; the adaptive one is the link's Jacobson RTO
    after the run (the tracker exists only on the hedged arm's system).
    """
    network = system.network
    primary = proxy.proxy_ref
    global_patience = (system.costs.rpc_timeout
                       + 2 * network.transit_time(client.node.name,
                                                  primary.node_name, 64))
    tracker = system.latency
    link_patience = global_patience
    if tracker is not None:
        link_patience = tracker.patience(client.context_id,
                                         primary.context_id,
                                         global_patience)
    return link_patience, global_patience


def run(ops: int = OPS, seed: int = 31) -> list[dict]:
    """Sweep loss probability; returns one row per rate."""
    rows = []
    for loss in LOSS_RATES:
        system_s, client_s, proxy_s = _build(seed, hedged=False)
        serial_ok, serial_p99 = _workload(system_s, client_s, proxy_s,
                                          ops, loss)
        system_h, client_h, proxy_h = _build(seed, hedged=True)
        hedged_ok, hedged_p99 = _workload(system_h, client_h, proxy_h,
                                          ops, loss)
        link_patience, global_patience = _patience_pair(system_h, client_h,
                                                        proxy_h)
        rows.append({
            "loss": loss,
            "serial_ok": serial_ok,
            "hedged_ok": hedged_ok,
            "serial_p99_ms": ms(serial_p99),
            "hedged_p99_ms": ms(hedged_p99),
            "hedges": proxy_h.proxy_stats["hedges"],
            "hedge_wins": proxy_h.proxy_stats["hedge_wins"],
            "link_patience_ms": ms(link_patience),
            "global_patience_ms": ms(global_patience),
        })
    return rows
