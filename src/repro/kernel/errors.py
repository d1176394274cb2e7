"""Exception hierarchy for the proxy-principle reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.

The distribution-related subtree mirrors the failure modes a 1986-era
distributed OS exposes to its clients: unreachable nodes, lost messages,
dangling references, and protocol violations.  The *proxy principle* is
precisely about confining where these surface: only proxies and the layers
below them may raise the distribution subtree; client code that follows the
principle never sees a raw transport error unless the proxy chooses to
propagate it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system, node, or context was configured inconsistently."""


class SimulationError(ReproError):
    """The virtual-time kernel was driven incorrectly (e.g. time moved backwards)."""


# --------------------------------------------------------------------------
# Distribution failures (the transport / protocol subtree)
# --------------------------------------------------------------------------


class DistributionError(ReproError):
    """Base class for failures caused by distribution itself."""


class RpcTimeout(DistributionError):
    """No reply arrived within the protocol's retry budget."""


class DeadlineExceeded(DistributionError):
    """The call's deadline budget was spent before a reply arrived.

    Deadlines propagate in frame headers, so a nested proxy→server→proxy
    chain stops retrying — and servers skip dispatch — once the *root*
    caller's budget is gone (see :mod:`repro.resilience.deadline`).
    """


class CircuitOpen(DistributionError):
    """A circuit breaker to the destination is open; the call failed fast.

    Raised by resilience-aware proxies instead of burning a full retry
    budget against a destination that recent calls have shown to be down
    (see :mod:`repro.resilience.breaker`).
    """


class BindError(DistributionError):
    """Binding to a service failed (unknown name, no exporter, bad handshake)."""


class DanglingReference(DistributionError):
    """An object reference points at an object that no longer exists there."""


class ObjectMoved(DistributionError):
    """The object migrated; carries a forwarding hint when one is known.

    Attributes:
        forward: the :class:`~repro.wire.refs.ObjectRef` of the new location,
            or ``None`` when the old host kept no forwarding pointer.
    """

    def __init__(self, message: str, forward=None):
        super().__init__(message)
        self.forward = forward


class StaleShardRing(DistributionError):
    """The call was routed by a stale shard ring; carries the current map.

    The sharded counterpart of :class:`ObjectMoved`: raised at the
    dispatcher when a plain (un-enveloped) call reaches a shard whose
    ring epoch has advanced past the bootstrap, so a client that never
    learned about sharding — or fell behind a rebalance — is redirected
    instead of silently served from the wrong partition.

    Attributes:
        ring_map: the shard's current ``(epoch, ring, shards)`` map —
            the epoch's pure tuple (see :class:`~repro.wire.shards.
            ShardState`) — or ``None`` when the exception crossed a
            transport that kept no detail.
    """

    def __init__(self, message: str, ring_map=None):
        super().__init__(message)
        self.ring_map = ring_map


class Overloaded(DistributionError):
    """The server shed the call at admission, before executing it.

    Raised client-side when a request was refused by the target node's
    admission control (queue full or token bucket empty — see
    :mod:`repro.kernel.admission`) and the retry budget or deadline left
    no room to honor the server's retry-after hint.  Shed calls are
    *definitely not executed*: the refusal happens before dispatch and
    is never cached by the at-most-once layer, so retrying is always
    safe.

    Attributes:
        retry_after: the server's hint — the absolute virtual time at
            which it expects capacity — or ``None`` when the exception
            crossed a transport that kept no header.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class TransactionBlocked(DistributionError):
    """The key is wedged under a prepared (in-doubt) two-phase transaction.

    Raised by a versioned store when a read or write lands on a key that a
    2PC ``prepare`` locked and whose coordinator has not yet delivered the
    commit/abort decision.  This is the blocking 2PC is famous for: the
    store cannot safely answer until the in-doubt transaction resolves, so
    it refuses rather than guess.  It lives in the distribution subtree —
    the caller experiences it exactly like an unreachable dependency, and
    retrying after recovery is always safe.
    """


# --------------------------------------------------------------------------
# Protocol / typing violations
# --------------------------------------------------------------------------


class ProtocolError(ReproError):
    """A peer sent a malformed or out-of-sequence protocol message."""


class MarshalError(ReproError):
    """A value could not be marshalled or unmarshalled."""


class InterfaceError(ReproError):
    """An operation was invoked that the target interface does not declare."""


class ConformanceError(InterfaceError):
    """An implementation does not structurally conform to its declared interface."""


class EncapsulationViolation(ReproError):
    """The proxy principle was violated.

    Raised when code attempts to smuggle a raw (non-proxy) reference to a
    remote object across a context boundary, or to invoke a remote object
    without going through its proxy.
    """
