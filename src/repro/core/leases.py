"""Lease-based reclamation of exports (distributed garbage collection).

An export kept alive forever "just in case a client still holds the
reference" is a storage leak; an export revoked while clients hold proxies
is a dangling reference.  The classic compromise — and the one Shapiro's
later GC work grew out of — is the **lease**: holders acquire a time-bounded
claim and renew it while interested; the exporter reclaims objects whose
every lease has lapsed.

Server side: a per-context :class:`LeaseService` (well-known oid
``"_leases"``) records holders and expiry times for gc-managed exports, and
:func:`expire_leases` reclaims what lapsed (run it like any maintenance
sweep).

Client side: the ``leased`` proxy policy acquires a lease at installation,
renews transparently when an invocation finds the lease past its half-life,
and releases on discard.  A client that stays silent past the lease (e.g.
partitioned away) simply loses the claim: its next call raises
``DanglingReference`` and it must re-bind through the name service — the
documented, intentional failure mode.
"""

from __future__ import annotations

from ..iface.interface import operation
from ..kernel.errors import DistributionError
from ..wire.refs import ObjectRef
from .export import ObjectSpace
from .factory import register_policy
from .proxy import Proxy

#: Well-known oid of the per-context lease service.
LEASES_OID = "_leases"

#: Default lease duration in virtual seconds.
DEFAULT_LEASE = 5.0


class LeaseService:
    """Per-context lease bookkeeping for gc-managed exports."""

    def __init__(self, space: ObjectSpace):
        self._space = space
        #: oid -> {holder context id -> expiry time}
        self._holders: dict[str, dict[str, float]] = {}
        self.stats = {"acquired": 0, "renewed": 0, "released": 0,
                      "expired": 0, "reclaimed": 0}

    # -- remote interface ------------------------------------------------------

    @operation
    def acquire(self, oid: str, holder: str, duration: float) -> float:
        """Claim (or re-claim) a lease; returns the expiry time granted."""
        entry = self._space.context.exports.get(oid)
        if entry is None or entry.revoked:
            raise KeyError(f"no live export {oid!r}")
        expiry = self._space.context.clock.now + float(duration)
        self._holders.setdefault(oid, {})[holder] = expiry
        self.stats["acquired"] += 1
        return expiry

    @operation
    def renew(self, oid: str, holder: str, duration: float) -> float:
        """Extend an existing lease; raises ``KeyError`` if it lapsed and
        the export has already been reclaimed."""
        entry = self._space.context.exports.get(oid)
        if entry is None or entry.revoked:
            raise KeyError(f"no live export {oid!r}")
        expiry = self._space.context.clock.now + float(duration)
        self._holders.setdefault(oid, {})[holder] = expiry
        self.stats["renewed"] += 1
        return expiry

    @operation
    def release(self, oid: str, holder: str) -> bool:
        """Give up a lease early; returns whether it existed."""
        holders = self._holders.get(oid)
        existed = holders is not None and holders.pop(holder, None) is not None
        if existed:
            self.stats["released"] += 1
        return existed

    @operation(readonly=True)
    def holders_of(self, oid: str) -> list:
        """Context ids currently holding a lease on ``oid``."""
        return sorted(self._holders.get(oid, {}))

    # -- local maintenance --------------------------------------------------------

    def expire(self) -> int:
        """Drop lapsed leases and reclaim gc-managed exports with none left.

        Returns the number of exports reclaimed.
        """
        now = self._space.context.clock.now
        reclaimed = 0
        for oid, holders in list(self._holders.items()):
            lapsed = [holder for holder, expiry in holders.items()
                      if expiry < now]
            for holder in lapsed:
                del holders[holder]
                self.stats["expired"] += 1
            if holders:
                continue
            entry = self._space.context.exports.get(oid)
            if entry is not None and not entry.revoked \
                    and getattr(entry, "gc_managed", False) \
                    and entry.moved_to is None:
                self._space.unexport(entry.ref)
                reclaimed += 1
                self.stats["reclaimed"] += 1
            del self._holders[oid]
        return reclaimed


def ensure_lease_service(space: ObjectSpace) -> LeaseService:
    """Install (or fetch) the lease service of a context."""
    entry = space.context.exports.get(LEASES_OID)
    if entry is not None and not entry.revoked:
        return entry.obj
    service = LeaseService(space)
    space.export(service, oid=LEASES_OID)
    return service


def expire_leases(space: ObjectSpace) -> int:
    """Run one expiry sweep in a context; returns exports reclaimed."""
    entry = space.context.exports.get(LEASES_OID)
    if entry is None or entry.revoked:
        return 0
    return entry.obj.expire()


def lease_service_proxy(space: ObjectSpace, context_id: str):
    """A binding to the lease service of (possibly remote) ``context_id``."""
    ref = ObjectRef(context_id, LEASES_OID, "LeaseService", 0, "stub")
    return space.bind_ref(ref, handshake=False)


@register_policy
class LeasedProxy(Proxy):
    """Forwarding proxy that maintains a lease on its target."""

    proxy_policy_name = "leased"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._expiry: float | None = None
        self.proxy_stats.update(lease_acquires=0, lease_renewals=0)

    def _duration(self) -> float:
        return float(self.proxy_config.get("lease_duration", DEFAULT_LEASE))

    def _lease_service(self):
        return lease_service_proxy(self.proxy_context.space,
                                   self.proxy_ref.context_id)

    def proxy_install(self) -> None:
        try:
            self._expiry = self._lease_service().acquire(
                self.proxy_ref.oid, self.proxy_context.context_id,
                self._duration())
            self.proxy_stats["lease_acquires"] += 1
        except (DistributionError, KeyError):
            self._expiry = None  # degrade: behave like a plain stub

    def proxy_discard(self) -> None:
        if self._expiry is not None:
            try:
                self._lease_service().release(
                    self.proxy_ref.oid, self.proxy_context.context_id)
            except (DistributionError, KeyError):
                pass
        self._expiry = None

    def invoke(self, verb, args, kwargs):
        self.proxy_stats["invocations"] += 1
        self._maybe_renew()
        return self.proxy_remote(verb, args, kwargs)

    def _maybe_renew(self) -> None:
        if self._expiry is None:
            return
        now = self.proxy_context.clock.now
        half_life = self._expiry - self._duration() / 2.0
        if now >= half_life:
            try:
                self._expiry = self._lease_service().renew(
                    self.proxy_ref.oid, self.proxy_context.context_id,
                    self._duration())
                self.proxy_stats["lease_renewals"] += 1
            except (DistributionError, KeyError):
                self._expiry = None  # lapsed; the next call may dangle

    @property
    def proxy_lease_expiry(self) -> float | None:
        """Expiry time of the current lease (None when lease-less)."""
        return self._expiry

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Mark the export gc-managed and stand up the lease service."""
        ensure_lease_service(space)
        entry.gc_managed = True
