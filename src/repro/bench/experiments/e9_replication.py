"""E9 — replication: latency, availability, and the quorum consistency trade.

Three sweeps share the table:

* **Write-all sweep** (``mode="write-all"``, the unversioned contract) over
  the replica count: read latency *falls* (a nearby replica exists more often —
  modelled with one slow "far" link to the primary), write latency *rises*
  linearly, and availability under periodic crashes *rises* (reads
  fail over; writes succeed while a majority remains).

* **Quorum sweep** (``mode="quorum"``) over ``(write_quorum, read_quorum)``
  at a fixed N=3: the quorum protocol of
  :mod:`repro.core.policies.replicating` under the static sequencer.  An
  overlapped configuration (R + W > N, e.g. ``(2, 2)``) never serves a
  stale read; the under-quorumed
  ``(1, 1)`` buys availability and latency with staleness; ``(3, 1)`` pins
  every copy fresh and pays for it in availability.

* **Failover panel** (``mode="failover-static"`` / ``"failover-lease"``)
  at N=3, W=2, R=2: the primary is crashed a third of the way into a
  write-only workload and never restarted.  The two rows share one RNG
  stream (paired op sequences), so they differ only in the election
  policy: the static-primary deployment loses *every* subsequent write,
  while the lease-based one rides out a single bounded unavailability
  window (``unavail_ms`` — the virtual-time gap between the kill and the
  next acknowledged write, bounded by the lease TTL plus the election
  time) and then recovers full goodput.

The staleness probe drives a writer client and a reader client through a
periodic crash schedule with round-robin reads; values are globally
monotone integers, so a read is **stale** exactly when it returns less
than the last acknowledged write of its key.
"""

from __future__ import annotations

from ...apps.kv import KVStore
from ...core.policies.replicating import replicate
from ...failures.injectors import begin_crash
from ...kernel.errors import DistributionError
from ...kernel.network import LinkSpec
from ...naming.bootstrap import bind, register
from ..common import mesh, ms, read_write_latency, staleness_probe

TITLE = "E9: replication — latency, availability, and the quorum trade"
COLUMNS = ["replicas", "mode", "write_quorum", "read_quorum",
           "read_ms", "write_ms", "availability", "stale_reads",
           "unavail_ms", "goodput_after"]

REPLICA_COUNTS = (1, 2, 3, 5)
#: (write_quorum, read_quorum) points of the N=3 quorum sweep.
QUORUM_CONFIGS = ((1, 1), (2, 2), (3, 1))
OPS = 120


def _deploy(contexts, replicas: int, write_quorum: int,
            read_quorum: int | None):
    """A replica group over the first ``replicas`` contexts: the quorum
    protocol when ``read_quorum`` is given, unversioned write-all otherwise."""
    if read_quorum is None:
        return replicate(contexts[:replicas], KVStore,
                         write_quorum=write_quorum)
    return replicate(contexts[:replicas], KVStore,
                     write_quorum=write_quorum, read_quorum=read_quorum,
                     version_key="arg0", read_policy="roundrobin")


def _latency(replicas: int, seed: int, ops: int, write_quorum: int,
             read_quorum: int | None) -> tuple[float, float]:
    """Fault-free per-op read and write latency (ms) from a WAN client."""
    system, contexts = mesh(seed=seed, nodes=replicas + 1)
    client = contexts[-1]
    # The client sits far from the primary: a 5x-latency link models a WAN
    # hop, so additional (near) replicas visibly help reads.
    costs = system.costs
    system.network.set_link(client.node.name, contexts[0].node.name,
                            LinkSpec(latency=costs.remote_latency * 5,
                                     byte_cost=costs.byte_cost))
    ref = _deploy(contexts, replicas, write_quorum, read_quorum)
    register(contexts[0], "kv", ref)
    read, write = read_write_latency(client, bind(client, "kv"), "key", ops)
    return ms(read), ms(write)


def _probe(replicas: int, seed: int, ops: int, write_quorum: int,
           read_quorum: int | None) -> tuple[float, int]:
    """Availability and stale reads of one configuration: the
    :func:`~repro.bench.common.staleness_probe` over its replica nodes,
    both clients reading round-robin."""
    system, contexts = mesh(seed=seed, nodes=replicas + 2)
    writer_ctx, reader_ctx = contexts[-2], contexts[-1]
    ref = _deploy(contexts, replicas, write_quorum, read_quorum)
    register(contexts[0], "kv", ref)
    writer = bind(writer_ctx, "kv")
    writer.proxy_config["read_policy"] = "roundrobin"
    reader = bind(reader_ctx, "kv")
    reader.proxy_config["read_policy"] = "roundrobin"
    # One shared stream name: every configuration sees the *same* op
    # sequence, so availability and staleness compare pairwise.
    return staleness_probe(system, writer, reader,
                           [ctx.node.name for ctx in contexts[:replicas]],
                           ops, "e9.probe")


def _failover(elect: bool, seed: int, ops: int) -> dict:
    """Goodput around a primary kill for one election policy.

    Both policies run the identical paired op sequence (one shared seeded
    stream name); the primary is crashed at ``ops // 3`` and stays down.
    Returns the write availability after the kill and the unavailability
    window (virtual ms from the kill to the next acknowledged write).
    """
    system, contexts = mesh(seed=seed, nodes=4)
    client = contexts[-1]
    ref = replicate(contexts[:3], KVStore, write_quorum=2, read_quorum=2,
                    version_key="arg0", read_policy="roundrobin",
                    elect=elect)
    register(contexts[0], "kv", ref)
    proxy = bind(client, "kv")
    rng = system.seeds.stream("e9.failover.ops")
    kill_at = ops // 3
    crash_time = None
    recovered_at = None
    after_ok = 0
    sequence = 0
    for index in range(ops):
        if index == kill_at:
            crash_time = client.clock.now
            begin_crash(system, contexts[0].node.name)    # never restored
        key = f"k{rng.randrange(4)}"
        sequence += 1
        try:
            proxy.put(key, sequence)
        except DistributionError:
            continue
        if crash_time is not None:
            after_ok += 1
            if recovered_at is None:
                recovered_at = client.clock.now
    after_total = ops - kill_at
    return {
        "replicas": 3, "mode": "failover-lease" if elect
        else "failover-static", "write_quorum": 2, "read_quorum": 2,
        "availability": (kill_at + after_ok) / ops,
        # None = never recovered (JSON-safe; rendered as an empty cell).
        "unavail_ms": ms(recovered_at - crash_time)
        if recovered_at is not None else None,
        "goodput_after": after_ok / after_total,
    }


def run(ops: int = OPS, seed: int = 37) -> list[dict]:
    """Both sweeps; one row per configuration."""
    rows = []
    for replicas in REPLICA_COUNTS:
        quorum = max(1, replicas // 2 + 1)
        read_ms, write_ms = _latency(replicas, seed, ops, quorum, None)
        availability, stale = _probe(replicas, seed + 1, ops, quorum, None)
        rows.append({"replicas": replicas, "mode": "write-all",
                     "write_quorum": quorum, "read_quorum": 0,
                     "read_ms": read_ms, "write_ms": write_ms,
                     "availability": availability, "stale_reads": stale})
    for write_quorum, read_quorum in QUORUM_CONFIGS:
        read_ms, write_ms = _latency(3, seed, ops, write_quorum, read_quorum)
        availability, stale = _probe(3, seed + 1, ops, write_quorum,
                                     read_quorum)
        rows.append({"replicas": 3, "mode": "quorum",
                     "write_quorum": write_quorum,
                     "read_quorum": read_quorum,
                     "read_ms": read_ms, "write_ms": write_ms,
                     "availability": availability, "stale_reads": stale})
    for elect in (False, True):
        rows.append(_failover(elect, seed + 2, ops))
    return rows
