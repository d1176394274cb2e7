"""Per-link adaptive timeouts: Jacobson RTT estimation per caller→target.

The protocol's base patience is a *global* cost-model constant
(``costs.rpc_timeout``), which is wrong in both directions at once: a fast
LAN link waits 20 ms to detect a loss it could have detected in 3, while a
WAN link gets retransmitted into while the first request is still in
flight.  The classic fix is Jacobson's TCP estimator (SIGCOMM '88): track a
smoothed RTT and its mean deviation per link, and derive the
retransmission timeout as ``srtt + K·rttvar``.  The gains and ``K`` are
RFC 6298's values; they, the warm-up and the timeout floor are module
constants every link shares.

Per the proxy principle this is client-side distribution policy, so it
lives in the resilience layer, keyed exactly like the breaker registry —
one :class:`LinkEstimator` per (caller context, target context) pair, all
of them in a :class:`LatencyTracker` on ``system.latency``.  Once a
tracker is installed, :meth:`repro.rpc.protocol.RpcProtocol.call` feeds
every successful call's RTT into it; a :class:`~repro.resilience.retry.
RetryPolicy` with ``adaptive=True`` then derives its base patience from
the link instead of the global constant, and the hedging path of
:class:`~repro.resilience.policy.ResilientProxy` derives its p95-ish
hedge delay the same way.

Only *successful* attempts are sampled (Karn's rule: an RTT measured from
a retransmitted exchange is ambiguous on real wires; here each attempt's
reply is matched exactly, but the discipline keeps loss spikes from
polluting the estimate with timeout-shaped samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Jacobson's gains (RFC 6298): srtt moves by 1/8 of the error, rttvar
#: by 1/4.
ALPHA = 0.125
BETA = 0.25
#: Deviation multiplier in the timeout: rto = srtt + K * rttvar.
K = 4.0
#: Samples a link needs before its estimate is trusted over the fallback.
WARMUP = 4
#: Floor under any derived timeout (a clock-tick analogue; keeps a
#: same-node link from deriving a timeout below its own jitter).
MIN_TIMEOUT = 5e-4


@dataclass
class LinkEstimator:
    """Jacobson RTT state for one caller→target context pair.

    Attributes:
        caller: calling context id (bookkeeping only).
        target: destination context id.
        srtt: smoothed round-trip time (seconds; 0 before any sample).
        rttvar: smoothed mean deviation of the RTT.
        samples: number of RTTs observed.
    """

    caller: str = ""
    target: str = ""
    srtt: float = field(default=0.0)
    rttvar: float = field(default=0.0)
    samples: int = field(default=0)

    def observe(self, rtt: float) -> None:
        """Fold one successful round trip into the estimate.

        First sample initialises ``srtt = rtt`` and ``rttvar = rtt / 2``
        (RFC 6298); later samples apply the Jacobson recurrences, with
        ``rttvar`` updated from the *previous* ``srtt``, as specified.
        """
        if rtt < 0.0:
            raise ValueError(f"negative RTT sample {rtt!r}")
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = ((1.0 - BETA) * self.rttvar
                           + BETA * abs(self.srtt - rtt))
            self.srtt = (1.0 - ALPHA) * self.srtt + ALPHA * rtt
        self.samples += 1

    @property
    def mature(self) -> bool:
        """Whether the link has seen :data:`WARMUP` samples, enough to
        trust the estimate."""
        return self.samples >= WARMUP

    def rto(self) -> float:
        """Retransmission timeout for this link: ``srtt + K·rttvar``, no
        lower than :data:`MIN_TIMEOUT`."""
        return max(MIN_TIMEOUT, self.srtt + K * self.rttvar)

    def hedge_delay(self) -> float:
        """A p95-ish wait before launching a backup request.

        ``srtt + 2·rttvar`` sits near the 95th percentile of a well-behaved
        link's RTT distribution — late enough that most requests never
        hedge, early enough that a lost or straggling request is covered
        long before the full :meth:`rto`.  On a very stable link the mean
        deviation collapses toward zero, which would put the delay *at* the
        mean and hedge every other request; a proportional margin floor
        (half the smoothed RTT) keeps the trigger above ordinary jitter.
        """
        margin = max(2.0 * self.rttvar, 0.5 * self.srtt)
        return max(MIN_TIMEOUT, self.srtt + margin)

    def __repr__(self) -> str:
        return (f"LinkEstimator({self.caller!r}->{self.target!r}, "
                f"srtt={self.srtt * 1e3:.3f}ms, "
                f"rttvar={self.rttvar * 1e3:.3f}ms, n={self.samples})")


class LatencyTracker:
    """All link estimators of one system, keyed (caller, target).

    Installed on ``system.latency`` by :func:`ensure_latency`; from then on
    the RPC protocol feeds every successful call's RTT in, whoever made the
    call — the same single-feed-point discipline as ``system.breakers``.
    Consumers ask :meth:`patience` / :meth:`hedge_delay` / :meth:`budget`
    with an explicit fallback, which is returned untouched until the link
    is mature, so systems that never warm a link keep the global behaviour.
    """

    def __init__(self, system):
        self.system = system
        self._links: dict[tuple[str, str], LinkEstimator] = {}
        self.samples_total = 0

    # -- lookup --------------------------------------------------------------

    def link(self, caller_id: str, target_id: str) -> LinkEstimator:
        """The estimator for one caller→target pair (created on first use)."""
        key = (caller_id, target_id)
        estimator = self._links.get(key)
        if estimator is None:
            estimator = LinkEstimator(caller=caller_id, target=target_id)
            self._links[key] = estimator
        return estimator

    def peek(self, caller_id: str, target_id: str) -> LinkEstimator | None:
        """The estimator for one pair, or ``None`` if never observed."""
        return self._links.get((caller_id, target_id))

    # -- sample feed (called by RpcProtocol) ---------------------------------

    def observe(self, caller_id: str, target_id: str, rtt: float) -> None:
        """Feed one successful call's round-trip time."""
        self.samples_total += 1
        self.link(caller_id, target_id).observe(rtt)

    # -- derived policy inputs -----------------------------------------------

    def patience(self, caller_id: str, target_id: str,
                 fallback: float) -> float:
        """Base retransmission patience for one link.

        The Jacobson RTO once the link is mature; ``fallback`` (the global
        ``rpc_timeout``-derived patience) until then.
        """
        estimator = self.peek(caller_id, target_id)
        if estimator is None or not estimator.mature:
            return fallback
        return estimator.rto()

    def hedge_delay(self, caller_id: str, target_id: str,
                    fallback: float) -> float:
        """p95-ish backup-request delay for one link (``fallback`` until
        the link is mature)."""
        estimator = self.peek(caller_id, target_id)
        if estimator is None or not estimator.mature:
            return fallback
        return estimator.hedge_delay()

    def budget(self, caller_id: str, target_id: str, policy) -> float | None:
        """A default per-call deadline budget derived from the link.

        The worst-case wall time of ``policy``'s whole schedule paced by
        the link's RTO (:meth:`RetryPolicy.total_wait`); ``None`` until the
        link is mature, so callers fall back to "no deadline" rather than
        guessing.
        """
        estimator = self.peek(caller_id, target_id)
        if estimator is None or not estimator.mature:
            return None
        return policy.total_wait(estimator.rto())

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[tuple[str, str], float]:
        """Current RTO of every observed link (seconds)."""
        return {key: estimator.rto()
                for key, estimator in self._links.items()}

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return (f"LatencyTracker({len(self._links)} links, "
                f"{self.samples_total} samples)")


def ensure_latency(system) -> LatencyTracker:
    """Get or install the system's latency tracker."""
    tracker = system.latency
    if tracker is None:
        tracker = LatencyTracker(system)
        system.latency = tracker
    return tracker
