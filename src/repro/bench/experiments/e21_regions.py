"""E21 — regions: the read-locality win vs. the cross-region quorum price.

A two-region WAN (:func:`repro.kernel.topology.build_regions`: LAN inside
a region, 20× latency between them) and one KV service used from both
sides.  Three deployments, identical client code:

* **central** — plain stub service in the home region (``east``): the
  remote region pays the WAN on every call, but a single copy is never
  stale;
* **regional-local** — a three-replica group (two east, one west) under
  the ``regional`` policy in the unversioned read-one contract: every read is
  answered by the caller's own region (the locality win), writes fan out
  write-all with W=2 — so a write can commit against the east majority
  while the west replica is down, and west readers then see **stale**
  values until the next write of that key lands;
* **regional-quorum** — the same placement under the W=2/R=2 quorum
  protocol: R+W > N means no read is ever stale, but a west read must reach
  across the WAN for its second vote — the quorum price, paid exactly
  where the unversioned contract cashed its locality win.  The home region
  keeps LAN reads either way, because its two replicas form a local read
  quorum: region-aware placement decides *who* pays the WAN.

The latency sweep runs fault-free and yields one row per
(deployment, region).  The **staleness probe** (the E9 discipline) then
drives an east writer and a west reader through a periodic crash plan
over the replica nodes, with :func:`~repro.resilience.breaker.
ensure_breakers` installed so the regional read order demotes replicas
the breaker registry currently refuses — values are globally monotone,
so a read below the last acknowledged write of its key is stale.  One
probe row per deployment: availability and the stale-read count.

Every number is virtual-time arithmetic on seeded streams — the payload
is byte-identical across runs and CI compares ``BENCH_e21.json`` exactly.
"""

from __future__ import annotations

from ... import make_system
from ...apps.kv import KVStore
from ...core.policies.replicating import replicate
from ...failures.injectors import CrashPlan
from ...kernel.errors import ConfigurationError, DistributionError
from ...kernel.topology import build_regions
from ...naming.bootstrap import bind, install_name_service, register
from ...resilience.breaker import ensure_breakers
from ...workloads.distributions import UniformSampler
from ..common import ms

TITLE = "E21: regions — read locality vs. the cross-region quorum price"
COLUMNS = ["scenario", "deployment", "region", "read_ms", "write_ms",
           "read_like_lan", "availability", "stale_reads"]

#: Inter-region latency multiplier (LAN stays at the cost model default).
WAN_FACTOR = 20.0

#: The deployments swept, weakest consistency story last.
DEPLOYMENTS = ("central", "regional-local", "regional-quorum")

#: Replica regions, in replica-list order: two east (the home majority —
#: and the primary is replica 0, so writes sequence at home), one west.
REPLICA_REGIONS = ("east", "east", "west")

OPS = 120
SEED = 21


def _build(deployment: str, seed: int):
    """One fresh system; returns ``(system, {region: client_context})``.

    Per region: contexts 0–1 host replicas (west only uses 0), context 2
    is the client.  The name service lives in the home region, so the
    *binding* pays the WAN for west too — that's deployment cost, outside
    the measured loops.
    """
    system = make_system(seed=seed)
    east, west = build_regions(system, ["east", "west"], nodes_per_region=3,
                               wan_factor=WAN_FACTOR)
    home = east.contexts[0]
    install_name_service(home)
    if deployment == "central":
        register(home, "kv", KVStore())
    elif deployment in ("regional-local", "regional-quorum"):
        replica_ctxs = [east.contexts[0], east.contexts[1],
                        west.contexts[0]]
        quorum = ({"read_quorum": 2, "version_key": "arg0"}
                  if deployment == "regional-quorum" else {})
        ref = replicate(replica_ctxs, KVStore, write_quorum=2,
                        read_policy="regional", policy="regional",
                        extra_config={"regions": list(REPLICA_REGIONS)},
                        **quorum)
        register(home, "kv", ref)
    else:
        raise ConfigurationError(f"unknown deployment {deployment!r}")
    return system, {"east": east.contexts[2], "west": west.contexts[2]}


def _latency(deployment: str, seed: int, ops: int) -> list[dict]:
    """Fault-free per-op read and write latency, one row per region."""
    system, clients = _build(deployment, seed)
    lan_round_trip = 2 * system.costs.remote_latency
    rows = []
    for region, ctx in clients.items():
        proxy = bind(ctx, "kv")
        proxy.put(f"warm-{region}", 0)    # fault the caches/versions in
        t0 = ctx.clock.now
        for _ in range(ops):
            proxy.get(f"warm-{region}")
        read = (ctx.clock.now - t0) / ops
        t0 = ctx.clock.now
        for index in range(ops // 4):
            proxy.put(f"warm-{region}", index + 1)
        write = (ctx.clock.now - t0) / (ops // 4)
        rows.append({
            "scenario": f"{deployment}@{region}",
            "deployment": deployment,
            "region": region,
            "read_ms": ms(read),
            "write_ms": ms(write),
            "read_like_lan": read < lan_round_trip * 4,
            "availability": None,
            "stale_reads": None,
        })
    return rows


def _replica_nodes(deployment: str) -> list[str]:
    """The node names the crash plan cycles through."""
    if deployment == "central":
        return ["east-0"]
    return ["east-0", "east-1", "west-0"]


def _probe(deployment: str, seed: int, ops: int) -> dict:
    """The staleness probe: east writer, west reader, periodic crashes.

    One shared op-stream name across deployments, so availability and
    staleness compare pairwise.  Breakers are installed: the ``regional``
    read order demotes a replica whose circuit is open, so a west read
    retreats to the east majority instead of re-dialling a dead node.
    """
    system, clients = _build(deployment, seed)
    ensure_breakers(system)
    writer = bind(clients["east"], "kv")
    reader = bind(clients["west"], "kv")
    plan = CrashPlan.periodic(_replica_nodes(deployment), every=15,
                              duration=5, total_ops=ops)
    rng = system.seeds.stream("e21.probe.ops")
    sampler = UniformSampler(8, system.seeds.stream("e21.probe.keys"))
    acked: dict[str, int] = {}
    sequence = 0
    failures = 0
    stale = 0
    for _ in range(ops):
        plan.tick(system)
        key = sampler.sample()
        if rng.random() < 0.5:
            sequence += 1
            try:
                writer.put(key, sequence)
                acked[key] = sequence
            except DistributionError:
                failures += 1
        else:
            try:
                value = reader.get(key)
            except DistributionError:
                failures += 1
                continue
            if key in acked and (value is None or value < acked[key]):
                stale += 1
    return {
        "scenario": f"{deployment}@probe",
        "deployment": deployment,
        "region": "probe",
        "read_ms": None,
        "write_ms": None,
        "read_like_lan": None,
        "availability": round(1.0 - failures / ops, 4),
        "stale_reads": stale,
    }


def bench_payload(ops: int = OPS, seed: int = SEED) -> dict:
    """The machine-readable benchmark record (``BENCH_e21.json``).

    Pure virtual-time record: CI diffs it against the committed one byte
    for byte.
    """
    if ops < 20:
        raise ConfigurationError(f"e21 needs ops >= 20, got {ops}")
    rows = []
    for deployment in DEPLOYMENTS:
        rows.extend(_latency(deployment, seed, ops))
        rows.append(_probe(deployment, seed + 1, ops))
    return {
        "experiment": "e21",
        "ops": ops,
        "seed": seed,
        "wan_factor": WAN_FACTOR,
        "replica_regions": list(REPLICA_REGIONS),
        "scenarios": rows,
    }


def bench_rows(payload: dict) -> list[dict]:
    """The table form of a payload (the CLI's non-``--json`` rendering)."""
    return [{key: row[key] for key in COLUMNS}
            for row in payload["scenarios"]]


def run(ops: int = OPS, seed: int = SEED) -> list[dict]:
    """Three deployments × (two regions + probe); one row per cell."""
    return bench_rows(bench_payload(ops=ops, seed=seed))
