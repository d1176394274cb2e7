"""The :class:`System` facade: one simulated distributed system.

A ``System`` owns the cost model, the seeded randomness, the global message
trace, the network, and the set of nodes.  Higher layers attach themselves to
well-known slots:

* ``transport`` — context-to-context messaging (:mod:`repro.rpc.transport`),
* ``rpc`` — the request/reply protocol (:mod:`repro.rpc.protocol`),
* ``codebase`` — the proxy-factory registry (:mod:`repro.core.factory`),
* ``name_service`` — the bootstrap name service proxy (:mod:`repro.naming`),
* ``breakers`` — the circuit-breaker registry
  (:mod:`repro.resilience.breaker`), ``None`` until one is installed,
* ``latency`` — the per-link RTT tracker (:mod:`repro.resilience.latency`),
  ``None`` until one is installed.

Most users never build a ``System`` by hand; :func:`repro.make_system` wires
a complete stack.

A system is one large reference cycle: nodes, contexts and the layers'
attachments all point back at it.  :meth:`System.close` ends it — terminal
and idempotent — by cutting those back-edges, so reference counting frees
the whole system once its last outside reference goes, with no work left
for the cyclic collector.  Each context releases what was attached to it
(its object space closes itself), the transport drops its marshallers, and
the slots are emptied.  Closing sends nothing, traces nothing and charges
no virtual time.
"""

from __future__ import annotations

from .context import Context
from .errors import ConfigurationError
from .network import Network
from .node import Node
from .params import DEFAULT_COSTS, CostModel
from .randomness import SeedSequence
from .trace import Trace


class System:
    """One simulated distributed system (kernel layer)."""

    def __init__(self, seed: int = 0, costs: CostModel | None = None):
        self.costs = costs or DEFAULT_COSTS
        self.seeds = SeedSequence(seed)
        self.trace = Trace()
        self.network = Network(self.costs, self.seeds, self.trace)
        self.nodes: dict[str, Node] = {}
        self._contexts: dict[str, Context] = {}
        # Slots populated by higher layers (see module docstring).
        self.transport = None
        self.rpc = None
        self.codebase = None
        self.name_service = None
        #: Circuit-breaker registry (repro.resilience.breaker); None until
        #: a resilience-aware component installs one — the RPC protocol
        #: feeds call outcomes into it only once it exists.
        self.breakers = None
        #: Per-link RTT tracker (repro.resilience.latency); None until a
        #: resilience-aware component installs one — the RPC protocol feeds
        #: round-trip samples into it only once it exists, and adaptive
        #: retry policies consult it for per-link patience.
        self.latency = None
        self.closed = False

    def close(self) -> None:
        """End the system: release every context and empty every slot.

        Terminal and idempotent (see the module docstring).  Afterwards no
        node or context can be looked up or added; the trace and the seeds
        stay readable.
        """
        if self.closed:
            return
        self.closed = True
        for ctx in self._contexts.values():
            ctx.close()
        if self.transport is not None:
            self.transport.close()
        for node in self.nodes.values():
            node.contexts.clear()
        self._contexts.clear()
        self.nodes.clear()
        self.network.close()
        self.transport = self.rpc = self.codebase = self.name_service = None
        self.breakers = self.latency = None

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str) -> Node:
        """Create a node and attach it to the network."""
        if self.closed:
            raise ConfigurationError("the system is closed")
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        node = Node(self, name)
        self.nodes[name] = node
        self.network.register_node(node)
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def register_context(self, ctx: Context) -> None:
        """Index a newly created context (called by :class:`Node`)."""
        self._contexts[ctx.context_id] = ctx

    def context(self, context_id: str) -> Context:
        """Look up any context in the system by its ``"node/context"`` id."""
        try:
            return self._contexts[context_id]
        except KeyError:
            raise ConfigurationError(f"unknown context {context_id!r}") from None

    def contexts(self) -> list[Context]:
        """All contexts in the system, in creation order."""
        return list(self._contexts.values())

    # -- time ----------------------------------------------------------------

    def max_time(self) -> float:
        """Latest virtual time across all context clocks.

        Used to stamp system-wide events (crashes, partitions) that are not
        tied to one activity.
        """
        if not self._contexts:
            return 0.0
        return max(ctx.clock.now for ctx in self._contexts.values())

    def __repr__(self) -> str:
        return (f"System(nodes={sorted(self.nodes)}, "
                f"contexts={len(self._contexts)}, t={self.max_time():.6f})")
