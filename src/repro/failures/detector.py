"""Heartbeat failure detection: suspicion, not certainty.

A classic unreliable failure detector: the watcher pings the context
manager of each watched context (through ordinary proxies, of course) and
counts consecutive misses.  Past a threshold the peer is *suspected* —
never "known dead": a partition and a crash look identical from here, which
is exactly the lesson the transparency literature teaches.

Probing is explicit (``probe()``), so tests and experiments control time;
a live system would call it from a timer loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.export import get_space
from ..kernel.context import Context
from ..kernel.errors import DistributionError

#: Consecutive missed probes after which a peer is suspected.
DEFAULT_SUSPICION_THRESHOLD = 2

ALIVE = "alive"
SUSPECTED = "suspected"


@dataclass
class PeerState:
    """Bookkeeping for one watched peer.

    Attributes:
        context_id: the watched context.
        misses: consecutive failed probes.
        probes: total probes sent.
        last_seen: virtual time of the last successful probe (-1 = never).
        suspected_at: virtual time suspicion started (None while alive).
    """

    context_id: str
    misses: int = 0
    probes: int = 0
    last_seen: float = -1.0
    suspected_at: float | None = None


class FailureDetector:
    """Ping-based suspicion tracking over a set of peers.

    When a :class:`~repro.resilience.breaker.BreakerRegistry` is attached
    (``breakers``), the verdicts drive it: starting to suspect a peer
    force-opens every breaker toward it (other callers fail fast without
    paying their own detection latency), and a successful probe of a
    suspected peer force-closes them.
    """

    def __init__(self, context: Context,
                 suspicion_threshold: int = DEFAULT_SUSPICION_THRESHOLD,
                 breakers=None):
        self.context = context
        self.suspicion_threshold = max(1, suspicion_threshold)
        self.breakers = breakers
        self._peers: dict[str, PeerState] = {}
        self.stats = {"probes": 0, "hits": 0, "misses": 0,
                      "suspicions": 0, "recoveries": 0}

    def watch(self, context_id: str) -> PeerState:
        """Start watching a context (idempotent)."""
        state = self._peers.get(context_id)
        if state is None:
            state = PeerState(context_id)
            self._peers[context_id] = state
        return state

    def unwatch(self, context_id: str) -> bool:
        """Stop watching; returns whether the peer was watched."""
        return self._peers.pop(context_id, None) is not None

    def probe(self) -> dict[str, str]:
        """Ping every watched peer once; returns ``context_id -> status``.

        A probe is one ``ping()`` on the peer's context manager; its cost
        (including the full retry budget when the peer is down — that *is*
        the detection latency) lands on this detector's context clock.
        """
        space = get_space(self.context)
        statuses: dict[str, str] = {}
        for state in self._peers.values():
            self.stats["probes"] += 1
            state.probes += 1
            try:
                space.ctxmgr_proxy(state.context_id).ping()
            except DistributionError:
                self.stats["misses"] += 1
                state.misses += 1
                if state.misses == self.suspicion_threshold:
                    state.suspected_at = self.context.clock.now
                    self.stats["suspicions"] += 1
                    if self.breakers is not None:
                        self.breakers.trip_target(state.context_id,
                                                  self.context.clock.now)
            else:
                self.stats["hits"] += 1
                if state.suspected_at is not None:
                    self.stats["recoveries"] += 1
                    if self.breakers is not None:
                        self.breakers.reset_target(state.context_id,
                                                   self.context.clock.now)
                state.misses = 0
                state.suspected_at = None
                state.last_seen = self.context.clock.now
            statuses[state.context_id] = self.status(state.context_id)
        return statuses

    def status(self, context_id: str) -> str:
        """Current classification of one peer."""
        state = self._peers.get(context_id)
        if state is None:
            raise KeyError(f"not watching {context_id!r}")
        return SUSPECTED if state.misses >= self.suspicion_threshold else ALIVE

    def alive(self) -> list[str]:
        """Watched peers currently classified alive, sorted."""
        return sorted(cid for cid in self._peers
                      if self.status(cid) == ALIVE)

    def suspected(self) -> list[str]:
        """Watched peers currently suspected, sorted."""
        return sorted(cid for cid in self._peers
                      if self.status(cid) == SUSPECTED)

    def peer(self, context_id: str) -> PeerState:
        """Raw bookkeeping for one peer."""
        return self._peers[context_id]
