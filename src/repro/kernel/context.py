"""Contexts: address spaces, the unit of encapsulation.

A context is the paper's protection boundary.  Objects live inside exactly
one context; nothing outside a context may touch its objects except through
messages — and, one layer up, through proxies.

At kernel level a context is mostly bookkeeping: an identity, a virtual-time
clock for the single activity executing inside it, and the mailbox hookup
(``handler``) that the RPC layer installs.  The export and proxy tables are
populated by :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Any, Callable

from .clock import BusyLine, Clock


class Context:
    """One address space on one node.

    Attributes:
        node: the hosting :class:`~repro.kernel.node.Node`.
        name: context name, unique within the node.
        context_id: globally unique id, ``"<node>/<context>"``; fixed at
            construction and read on every hop of the invoke path.
        clock: virtual-time cursor of the activity running in this context.
        charge: ``charge(seconds) -> now`` charges local CPU time to this
            context's activity; it *is* ``clock.advance``, fixed at
            construction (a negative charge raises ``SimulationError``).
        handler: message handler installed by the RPC layer; called as
            ``handler(message, arrive_time) -> (reply, done_time)`` (a
            ``WireMessage``, or a bytes-like wire image, wrapped as one)
            or ``None`` for one-way messages.
        exports: export table — oid → exported entry (managed by repro.core).
        proxies: proxy table — remote ref key → live proxy (repro.core).
        line: busy line serialising request processing in this context.
        encoder_hook: marshalling swizzle hook for values leaving this
            context (installed by repro.core; exported objects become refs).
        decoder_hook: swizzle hook for refs arriving in this context
            (installed by repro.core; refs become proxies).
    """

    __slots__ = ("node", "name", "context_id", "clock", "charge", "line",
                 "handler", "exports", "proxies", "encoder_hook",
                 "decoder_hook", "space", "current_deadline")

    def __init__(self, node, name: str):
        self.node = node
        self.name = name
        self.context_id = f"{node.name}/{name}"
        self.clock = Clock()
        self.charge = self.clock.advance
        self.line = BusyLine()
        self.handler: Callable[[Any, float], tuple | None] | None = None
        self.exports: dict[str, Any] = {}
        self.proxies: dict[str, Any] = {}
        self.encoder_hook: Callable[[Any], Any] | None = None
        self.decoder_hook: Callable[[Any], Any] | None = None
        self.space: Any = None  # ObjectSpace, attached by repro.core.export
        #: Deadline of the request this context is currently serving, set by
        #: the dispatcher so nested outbound calls inherit the root caller's
        #: budget (repro.resilience.deadline).
        self.current_deadline: Any = None

    def close(self) -> None:
        """Release what the layers above attached (called by
        :meth:`System.close <repro.kernel.system.System.close>`): the
        object space closes itself, then every slot is emptied."""
        if self.space is not None:
            self.space.close()
        self.handler = self.encoder_hook = self.decoder_hook = None
        self.space = self.current_deadline = None
        self.exports.clear()
        self.proxies.clear()

    @property
    def system(self):
        """The owning :class:`~repro.kernel.system.System`."""
        return self.node.system

    @property
    def alive(self) -> bool:
        """Whether the hosting node is up."""
        return self.node.alive

    @property
    def now(self) -> float:
        """Current virtual time of this context's activity."""
        return self.clock.now

    def __repr__(self) -> str:
        return f"Context({self.context_id!r}, now={self.clock.now:.6f})"
