"""E17 — WAN placement: which proxy policy wins across sites (extension).

The capstone composition: a two-site WAN (LAN inside a site, 20× latency
between sites) and one shared service used from both sides.  Three
deployments, identical client code:

* **central**: plain stub service at site A — site B pays the WAN on every
  call;
* **replicated**: one replica per site, read-nearest / write-all — reads go
  LAN everywhere, writes pay one WAN crossing;
* **caching**: central service shipping coherent caching proxies — hot
  reads go local *after* the first fetch, writes pay WAN plus invalidation.

Expected shape: for a read-heavy workload, replication and caching both
rescue the remote site (≈LAN reads); the central stub leaves site B an
order of magnitude behind; write latency orders the other way (central
cheapest, write-all dearest for site A's LAN writers).
"""

from __future__ import annotations

from ... import make_system
from ...apps.kv import KVStore
from ...core.export import get_space
from ...core.policies.replicating import replicate
from ...kernel.topology import build_regions
from ...naming.bootstrap import bind, install_name_service, register
from ...workloads.distributions import ZipfSampler
from ...workloads.sessions import OpMix, proxy_session, run_interleaved
from ..common import ms

TITLE = "E17: WAN placement — per-site latency under three deployments"
COLUMNS = ["deployment", "site", "mean_ms", "read_like_lan"]

WAN_FACTOR = 20.0
READ_FRACTION = 0.9


def _build(deployment: str, seed: int):
    system = make_system(seed=seed)
    sites = build_regions(system, ["alpha", "beta"], nodes_per_region=3,
                          wan_factor=WAN_FACTOR)
    service_home = sites[0].contexts[0]
    install_name_service(service_home)
    if deployment == "central":
        register(service_home, "kv", KVStore())
    elif deployment == "replicated":
        ref = replicate([sites[0].contexts[1], sites[1].contexts[1]],
                        KVStore, write_quorum=2)
        register(service_home, "kv", ref)
    elif deployment == "caching":
        store = KVStore()
        get_space(service_home).export(store, policy="caching",
                                       config={"invalidation": True})
        register(service_home, "kv", store)
    else:
        raise ValueError(deployment)
    clients = {
        "alpha": sites[0].contexts[2],
        "beta": sites[1].contexts[2],
    }
    return system, clients


def run(ops: int = 120, seed: int = 71) -> list[dict]:
    """Three deployments × two sites; returns one row per combination."""
    rows = []
    lan_round_trip = 2 * 1e-3   # the cost model's LAN latency, both ways
    for deployment in ("central", "replicated", "caching"):
        system, clients = _build(deployment, seed)
        sessions = []
        for site_name, ctx in clients.items():
            proxy = bind(ctx, "kv")
            sampler = ZipfSampler(20, system.seeds.stream(
                f"e17.{deployment}.{site_name}"))
            sessions.append((site_name, proxy_session(
                site_name, ctx, proxy, OpMix(READ_FRACTION, sampler),
                system.seeds.stream(f"e17.rng.{deployment}.{site_name}"))))
        run_interleaved([session for _, session in sessions], ops)
        for site_name, session in sessions:
            mean = (sum(session.latencies.samples)
                    / len(session.latencies.samples))
            rows.append({
                "deployment": deployment,
                "site": site_name,
                "mean_ms": ms(mean),
                "read_like_lan": mean < lan_round_trip * 4,
            })
    return rows
