"""Failure injection primitives: deterministic faults for experiments and
sim-chaos.

Everything here is seeded through the system's
:class:`~repro.kernel.randomness.SeedSequence`, so a failure experiment is
exactly reproducible: same seed, same drops, same crashes.

Two shapes of the same primitives are exported:

* **scoped** context managers (:func:`message_loss`, :func:`degraded_link`,
  :func:`partitioned`, :func:`latency_spike`) for experiments that wrap one
  workload phase in one fault, and
* **paired begin/restore** functions (:func:`begin_message_loss`,
  :func:`begin_latency_spike`, :func:`begin_partition`,
  :func:`begin_crash`, :func:`begin_overload`), each returning a
  zero-argument undo closure, for schedulers that must start and stop
  overlapping faults out of LIFO order — the
  :class:`~repro.failures.schedule.ChaosSchedule`, the one op-tick fault
  timeline of both the experiments and the simulation harness, is
  composed from exactly these.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from ..kernel.network import LinkSpec
from ..kernel.system import System

#: Modelled work per burst job when the victim node carries no admission
#: control (and hence no configured service time): the whole burst lands
#: on the busy line as backlog.
BURST_SERVICE_TIME = 0.02


# -- begin/restore primitives ------------------------------------------------


def begin_message_loss(system: System, probability: float) -> Callable[[], None]:
    """Start uniform message loss on every link; returns the undo closure."""
    network = system.network
    previous = network._default_loss
    network.set_default_loss(probability)

    def restore() -> None:
        network.set_default_loss(previous)

    return restore


def begin_latency_spike(system: System, factor: float) -> Callable[[], None]:
    """Scale all inter-node latency by ``factor``; returns the undo closure."""
    network = system.network
    previous = network.set_latency_factor(factor)

    def restore() -> None:
        network.latency_factor = previous

    return restore


def begin_partition(system: System,
                    islands: list[set[str]]) -> Callable[[], None]:
    """Split the network into islands; returns the undo (heal) closure."""
    system.network.partition(islands)
    return system.network.heal


def begin_overload(system: System, node_name: str,
                   jobs: int) -> Callable[[], None]:
    """Slam a burst of ``jobs`` background requests into one node, *now*.

    The burst models open-loop traffic from outside the measured workload
    (a retry storm, a crawler, a neighbouring tenant) arriving at a single
    virtual instant.  Each job is pushed through the node's admission
    control exactly as the RPC dispatcher would push a real request: shed
    jobs vanish for free, admitted jobs occupy the node's first context's
    busy line for the configured service time and then release their run
    queue slot.  A node with **no** admission control (``node.admission``
    is ``None``) admits everything at :data:`BURST_SERVICE_TIME` per job —
    the whole burst becomes busy-line backlog that every later request
    must wait out, which is precisely the congestion collapse the
    ``shedless`` simtest canary exists to exhibit.

    The burst is instantaneous, so the returned undo closure is a no-op
    (kept for uniformity with the other begin/restore primitives).
    """
    node = system.node(node_name)
    if node.alive and node.contexts:
        ctx = next(iter(node.contexts.values()))
        admission = node.admission
        arrive = max(ctx.clock.now, ctx.line.busy_until)
        service = BURST_SERVICE_TIME if admission is None \
            else (admission.service_time or BURST_SERVICE_TIME)
        system.trace.emit(arrive, "overload", node_name, "",
                          f"burst:{jobs}")
        for _ in range(max(0, jobs)):
            if admission is not None \
                    and admission.admit("", arrive) is not None:
                continue    # shed at the front door: costs nothing
            start = max(arrive, ctx.line.busy_until)
            ctx.line.occupy(start, service)
            if admission is not None:
                admission.finish("", start + service)

    def restore() -> None:
        pass    # a burst has no ongoing state to undo

    return restore


def begin_crash(system: System, node_name: str) -> Callable[[], None]:
    """Crash a node (no-op if already down); returns the restart closure."""
    node = system.node(node_name)
    if node.alive:
        node.crash()

    def restore() -> None:
        if not node.alive:
            node.restart()

    return restore


# -- scoped fault injection --------------------------------------------------


@contextmanager
def message_loss(system: System, probability: float):
    """Scoped uniform message loss on every inter-node link."""
    restore = begin_message_loss(system, probability)
    try:
        yield system
    finally:
        restore()


@contextmanager
def latency_spike(system: System, factor: float):
    """Scoped multiplier on every inter-node link's propagation latency."""
    restore = begin_latency_spike(system, factor)
    try:
        yield system
    finally:
        restore()


@contextmanager
def degraded_link(system: System, src: str, dst: str,
                  latency: float | None = None, loss: float = 0.0):
    """Scoped override of one link (slow and/or lossy), symmetric."""
    network = system.network
    costs = system.costs
    saved = (network._links.get((src, dst)), network._links.get((dst, src)))
    network.set_link(src, dst, LinkSpec(
        latency=latency if latency is not None else costs.remote_latency,
        byte_cost=costs.byte_cost, loss=loss))
    try:
        yield system
    finally:
        for key, spec in (((src, dst), saved[0]), ((dst, src), saved[1])):
            if spec is None:
                network._links.pop(key, None)
            else:
                network._links[key] = spec


@contextmanager
def partitioned(system: System, islands: list[set[str]]):
    """Scoped network partition into the given islands."""
    restore = begin_partition(system, islands)
    try:
        yield system
    finally:
        restore()
