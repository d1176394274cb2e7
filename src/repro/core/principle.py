"""Auditing the proxy principle.

The principle is *enforced* mechanically by the swizzle hooks in
:mod:`repro.core.export`; this module provides the tools that *verify* a
running system obeys it — used by the property tests and available to
applications as a debugging aid.

The invariants audited:

I1. Every value in a context's proxy table is a :class:`Proxy` whose
    ``proxy_context`` is that context.
I2. A proxy pointing into its own context is legal only over a live local
    export (the post-migration optimised state); a home-pointing proxy with
    no backing export is a leak.
I3. At most one proxy per (context, logical object): table keys are object
    keys and each proxy's current ref key matches its slot.
I4. Every exported entry's object is not itself a proxy (a group entry
    holds no object at all; its home's group proxy lives in the proxy
    table, over the live group entry, like any I2 home proxy).
I5. Cross-context aliasing: any object reachable from two contexts' tables
    is reachable only as (home object) + (proxies elsewhere) — never as the
    raw object in a foreign table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.system import System
from .proxy import Proxy


@dataclass
class AuditReport:
    """Outcome of a principle audit.

    Attributes:
        violations: human-readable invariant breaches (empty = clean).
        contexts_audited: number of contexts examined.
        proxies_seen: total proxies across all tables.
        exports_seen: total live exports across all tables.
    """

    violations: list[str] = field(default_factory=list)
    contexts_audited: int = 0
    proxies_seen: int = 0
    exports_seen: int = 0

    @property
    def clean(self) -> bool:
        """True when no invariant was breached."""
        return not self.violations


def audit(system: System) -> AuditReport:
    """Audit every context of ``system`` against invariants I1–I5."""
    report = AuditReport()
    home_of: dict[int, str] = {}
    for ctx in system.contexts():
        for entry in ctx.exports.values():
            if entry.revoked:
                continue
            report.exports_seen += 1
            if isinstance(entry.obj, Proxy):
                report.violations.append(
                    f"I4: {ctx.context_id} exports a proxy as "
                    f"{entry.ref.oid!r}")
            if entry.moved_to is None and entry.obj is not None:
                # (a group entry holds no object to alias)
                home_of[id(entry.obj)] = ctx.context_id
    for ctx in system.contexts():
        report.contexts_audited += 1
        for key, proxy in ctx.proxies.items():
            report.proxies_seen += 1
            if not isinstance(proxy, Proxy):
                report.violations.append(
                    f"I1: {ctx.context_id} table holds non-proxy "
                    f"{type(proxy).__name__!r} under {key!r}")
                continue
            if proxy.proxy_context is not ctx:
                report.violations.append(
                    f"I1: proxy under {key!r} in {ctx.context_id} belongs to "
                    f"{proxy.proxy_context.context_id}")
            if proxy.proxy_ref.context_id == ctx.context_id:
                entry = ctx.exports.get(proxy.proxy_ref.oid)
                if entry is None or entry.revoked:
                    report.violations.append(
                        f"I2: {ctx.context_id} holds a home proxy for "
                        f"{proxy.proxy_ref.oid!r} with no backing export")
            if proxy.proxy_ref.key != key:
                report.violations.append(
                    f"I3: proxy slot {key!r} in {ctx.context_id} holds a "
                    f"proxy bound to {proxy.proxy_ref.key!r}")
        for entry in ctx.exports.values():
            if entry.revoked or entry.moved_to is not None:
                continue
            home = home_of.get(id(entry.obj))
            if home is not None and home != ctx.context_id:
                report.violations.append(
                    f"I5: object {entry.ref.oid!r} is exported raw from both "
                    f"{home} and {ctx.context_id}")
    return report


def assert_principle(system: System) -> None:
    """Raise ``AssertionError`` with details unless the audit is clean."""
    report = audit(system)
    if not report.clean:
        raise AssertionError(
            "proxy principle violated:\n  " + "\n  ".join(report.violations))
