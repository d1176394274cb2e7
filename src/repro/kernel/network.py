"""The simulated inter-node network.

Models a mid-1980s LAN: point-to-point message delivery with propagation
latency, per-byte transmission cost, optional per-link overrides, seeded
random loss, node crashes, and partitions.

The network is deliberately *unreliable and silent*: a dropped message is not
reported to the sender (that is the RPC layer's problem to detect by
timeout), exactly as on real hardware.

Hot path: :meth:`Network.transmit` runs once per message and used to build a
fresh default :class:`LinkSpec` per call plus a frozen-dataclass
:class:`Delivery` per outcome.  Both are now plain named tuples (cheap to
construct, immutable, attribute access preserved), the default spec is
interned and rebuilt only when :meth:`set_default_loss` changes it, and the
partition check is skipped entirely while no partition is active.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ConfigurationError
from .params import CostModel
from .randomness import SeedSequence
from .trace import Trace


class LinkSpec(NamedTuple):
    """Per-link override of the default cost model.

    Attributes:
        latency: one-way propagation delay in seconds.
        byte_cost: per-byte transmission cost in seconds.
        loss: probability in [0, 1] that a message on this link is dropped.
    """

    latency: float
    byte_cost: float
    loss: float = 0.0


class Delivery(NamedTuple):
    """Outcome of one transmission attempt.

    Attributes:
        delivered: whether the message arrived.
        arrive_time: virtual arrival time (meaningful only when delivered).
        reason: drop reason when not delivered (``"loss"``, ``"crash"``,
            ``"partition"``).
    """

    delivered: bool
    arrive_time: float
    reason: str = ""


class Network:
    """Node-to-node link model with loss, crashes and partitions."""

    def __init__(self, costs: CostModel, seeds: SeedSequence, trace: Trace):
        self.costs = costs
        self.trace = trace
        self._rng = seeds.stream("network.loss")
        self._nodes: dict[str, "object"] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        self._default_loss = 0.0
        self._default_spec = LinkSpec(latency=costs.remote_latency,
                                      byte_cost=costs.byte_cost, loss=0.0)
        self._groups: dict[str, int] = {}
        #: Whether any partition is currently in force (cheap early-out for
        #: the per-message group comparison on the hot path).
        self._partition_active = False
        #: Multiplier on inter-node propagation latency (latency-spike
        #: injection; see repro.failures.injectors.latency_spike).
        self.latency_factor = 1.0

    # -- topology -----------------------------------------------------------

    def register_node(self, node) -> None:
        """Attach a node to the network (done by :class:`System.add_node`)."""
        if node.name in self._nodes:
            raise ConfigurationError(f"node {node.name!r} already registered")
        self._nodes[node.name] = node
        self._groups[node.name] = 0

    def close(self) -> None:
        """Forget every node (:meth:`System.close <repro.kernel.system.
        System.close>`): a node points back at its system."""
        self._nodes.clear()

    def node(self, name: str):
        """Look up a registered node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def set_link(self, src: str, dst: str, spec: LinkSpec,
                 symmetric: bool = True) -> None:
        """Override the cost model for one directed (or symmetric) link."""
        self._links[(src, dst)] = spec
        if symmetric:
            self._links[(dst, src)] = spec

    def set_default_loss(self, probability: float) -> None:
        """Set the loss probability applied to links without an override."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"loss probability {probability!r} not in [0,1]")
        self._default_loss = probability
        self._default_spec = LinkSpec(latency=self.costs.remote_latency,
                                      byte_cost=self.costs.byte_cost,
                                      loss=probability)

    def set_latency_factor(self, factor: float) -> float:
        """Scale inter-node propagation latency; returns the previous factor."""
        if factor <= 0.0:
            raise ConfigurationError(f"latency factor {factor!r} must be > 0")
        previous = self.latency_factor
        self.latency_factor = factor
        return previous

    # -- partitions ----------------------------------------------------------

    def partition(self, islands: list[set[str]]) -> None:
        """Split the network into isolated islands of node names.

        Nodes not mentioned in any island keep their current group only if it
        is group 0; every mentioned node is reassigned.  Messages between
        different islands are silently dropped until :meth:`heal`.
        """
        for group, island in enumerate(islands, start=1):
            for name in island:
                if name not in self._nodes:
                    raise ConfigurationError(f"unknown node {name!r} in partition")
                self._groups[name] = group
        self._partition_active = any(self._groups.values())

    def heal(self) -> None:
        """Remove all partitions."""
        for name in self._groups:
            self._groups[name] = 0
        self._partition_active = False

    def partitioned(self, a: str, b: str) -> bool:
        """Whether nodes ``a`` and ``b`` are currently separated."""
        if not self._partition_active:
            return False
        return self._groups.get(a, 0) != self._groups.get(b, 0)

    # -- transmission --------------------------------------------------------

    def transit_time(self, src: str, dst: str, nbytes: int) -> float:
        """One-way transfer time for ``nbytes`` from ``src`` to ``dst``.

        Same-node transfers use the IPC costs from the cost model.
        """
        costs = self.costs
        if src == dst:
            return costs.ipc_latency + nbytes * costs.ipc_byte_cost
        spec = self._links.get((src, dst))
        if spec is None:
            spec = self._default_spec
        return spec.latency * self.latency_factor + nbytes * spec.byte_cost

    def rank(self, src: str, dst_ids: Iterable[str],
             nbytes: int) -> list[int]:
        """Indices of the context ids ``dst_ids`` by :meth:`transit_time`
        from node ``src`` (its sums, written as it writes them), nearest
        first and ties by index: read afresh, so every change counts."""
        costs, spec, factor = self.costs, self._default_spec, \
            self.latency_factor
        local = costs.ipc_latency + nbytes * costs.ipc_byte_cost
        default = spec.latency * factor + nbytes * spec.byte_cost
        links = self._links
        times = []
        for dst_id in dst_ids:
            dst = dst_id.split("/", 1)[0]
            if src == dst:
                times.append(local)
            elif links and (spec := links.get((src, dst))) is not None:
                times.append(spec.latency * factor + nbytes * spec.byte_cost)
            else:
                times.append(default)
        return sorted(range(len(times)), key=times.__getitem__)

    def transmit(self, src: str, dst: str, nbytes: int, at: float) -> Delivery:
        """Attempt delivery of one message; never raises for network faults.

        Loss, crash, and partition all surface as ``delivered=False`` — the
        sender cannot tell them apart, just like on a real wire.  Every drop
        emits a ``drop`` trace event, whichever end caused it.  The delivered
        outcome — one per message — is built in C (``tuple.__new__``, all
        three fields); the drops are spelled ``Delivery(...)``.
        """
        nodes = self._nodes
        src_node = nodes.get(src)
        if src_node is None:
            raise ConfigurationError(f"unknown node {src!r}")
        dst_node = nodes.get(dst)
        if dst_node is None:
            raise ConfigurationError(f"unknown node {dst!r}")
        costs = self.costs
        # Parenthesised exactly like transit_time() so the float sum is
        # bit-identical to the pre-inlining arithmetic (fingerprint audit).
        if src == dst:
            arrive = at + (costs.ipc_latency + nbytes * costs.ipc_byte_cost)
            spec = None
        else:
            spec = self._links.get((src, dst))
            if spec is None:
                spec = self._default_spec
            arrive = at + (spec.latency * self.latency_factor
                           + nbytes * spec.byte_cost)
        if not src_node.alive:
            self.trace.emit(at, "drop", src, dst, "crash", nbytes)
            return Delivery(False, arrive, "crash")
        if not dst_node.alive:
            self.trace.emit(at, "drop", src, dst, "crash", nbytes)
            return Delivery(False, arrive, "crash")
        if spec is not None:
            if self._partition_active and self.partitioned(src, dst):
                self.trace.emit(at, "drop", src, dst, "partition", nbytes)
                return Delivery(False, arrive, "partition")
            loss = spec.loss
            if loss > 0.0 and self._rng.random() < loss:
                self.trace.emit(at, "drop", src, dst, "loss", nbytes)
                return Delivery(False, arrive, "loss")
        return tuple.__new__(Delivery, (True, arrive, ""))
