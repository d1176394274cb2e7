"""Shared scaffolding for the experiments (one module per experiment).

Every experiment builds its own fresh :class:`~repro.kernel.system.System`
from an explicit seed, so experiments are independent and deterministic.
"""

from __future__ import annotations

from .. import make_system
from ..failures.schedule import ChaosSchedule
from ..kernel.context import Context
from ..kernel.errors import DistributionError
from ..kernel.params import CostModel
from ..kernel.system import System
from ..naming.bootstrap import install_name_service
from ..workloads.distributions import UniformSampler


def star(seed: int = 7, clients: int = 1, costs: CostModel | None = None,
         name_service: bool = True) -> tuple[System, Context, list[Context]]:
    """A server node plus N client nodes, one context each.

    Returns ``(system, server_context, client_contexts)``.  The name service
    (when requested) lives in the server context.
    """
    system = make_system(seed=seed, costs=costs)
    server = system.add_node("server").create_context("main")
    client_contexts = [
        system.add_node(f"client{i}").create_context("main")
        for i in range(clients)
    ]
    if name_service:
        install_name_service(server)
    return system, server, client_contexts


def mesh(seed: int = 7, nodes: int = 3, costs: CostModel | None = None,
         name_service: bool = True) -> tuple[System, list[Context]]:
    """N peer nodes, one context each; name service on the first."""
    system = make_system(seed=seed, costs=costs)
    contexts = [system.add_node(f"n{i}").create_context("main")
                for i in range(nodes)]
    if name_service:
        install_name_service(contexts[0])
    return system, contexts


def read_write_latency(ctx: Context, proxy, key: str,
                       ops: int) -> tuple[float, float]:
    """Mean virtual seconds per read and per write through ``proxy``.

    One warm ``put`` faults caches and versions in; then ``ops`` gets and
    ``ops // 4`` puts of ``key`` are timed on ``ctx``'s clock.
    """
    proxy.put(key, 0)
    t0 = ctx.clock.now
    for _ in range(ops):
        proxy.get(key)
    read = (ctx.clock.now - t0) / ops
    t0 = ctx.clock.now
    for index in range(ops // 4):
        proxy.put(key, index + 1)
    return read, (ctx.clock.now - t0) / (ops // 4)


def staleness_probe(system: System, writer, reader, victims: list[str],
                    ops: int, stream: str) -> tuple[float, int]:
    """Availability and stale reads of a replica group under crashes.

    A writer and a reader client interleave (one op per tick) while the
    ``victims`` crash round-robin, every 15 ops for 5.  Written values are
    globally monotone, so a read below the last acknowledged write of its
    key (or a missing acknowledged key) is stale.  The op and key streams
    are ``<stream>.ops`` and ``<stream>.keys``; a caller that keeps one
    stream name across configurations gets paired op sequences.
    """
    schedule = ChaosSchedule.periodic(victims, every=15, duration=5,
                                      total_ops=ops)
    rng = system.seeds.stream(f"{stream}.ops")
    sampler = UniformSampler(8, system.seeds.stream(f"{stream}.keys"))
    acked: dict[str, int] = {}
    sequence = 0
    failures = 0
    stale = 0
    for _ in range(ops):
        schedule.tick(system)
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
    return 1.0 - failures / ops, stale


def us(seconds: float) -> float:
    """Seconds → microseconds (for readable table cells)."""
    return seconds * 1e6


def ms(seconds: float) -> float:
    """Seconds → milliseconds (for readable table cells)."""
    return seconds * 1e3
