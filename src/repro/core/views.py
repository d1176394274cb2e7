"""Restricted views: exporting less than the whole interface.

Encapsulation cuts both ways: a service may want different *clients* to see
different facets of one object.  Because a proxy checks every invocation
against the interface carried by its reference, exporting the same object
under a **narrowed** interface yields a capability: holders of the narrow
reference simply cannot name the operations it omits — the server-side
dispatcher rejects them too, so the restriction is not merely cosmetic.

Helpers here build narrowed interfaces (arbitrary operation subsets, or the
common readonly facet) and export an object under one.  Conformance is
checked in the safe direction: the full interface must conform to the view
(it provides at least the view's behaviour).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..iface.conformance import check_conforms
from ..iface.interface import Interface
from ..kernel.errors import InterfaceError
from ..wire.refs import ObjectRef
from .export import ObjectSpace


def restrict(interface: Interface, operations: Iterable[str],
             name: str | None = None) -> Interface:
    """A narrowed interface exposing only the named operations."""
    wanted = list(operations)
    missing = [op for op in wanted if op not in interface]
    if missing:
        raise InterfaceError(
            f"cannot restrict {interface.name!r} to unknown operations "
            f"{missing}")
    view = Interface(name or f"{interface.name}View",
                     [interface.operation(op) for op in wanted])
    check_conforms(interface, view)
    return view


def readonly_view(interface: Interface, name: str | None = None) -> Interface:
    """The readonly facet: every ``readonly`` operation, nothing else."""
    readonly_ops = [op.name for op in interface.operations.values()
                    if op.readonly]
    if not readonly_ops:
        raise InterfaceError(
            f"interface {interface.name!r} has no readonly operations")
    return restrict(interface, readonly_ops,
                    name or f"{interface.name}Reader")


def export_view(space: ObjectSpace, obj: Any, view: Interface,
                policy: str | None = None,
                config: dict | None = None) -> ObjectRef:
    """Export ``obj`` under a narrowed interface as a *separate* export.

    The object may already be exported under its full interface; the view
    gets its own oid, so revoking the view does not revoke the full access
    path (and vice versa).  Holders of the view's reference get a proxy
    that exposes only the view's operations, and the dispatcher refuses
    anything else by construction.  The view's policy installs its server
    half like any export's (a caching view gets its invalidation control).
    An object exported *only* through a view travels as that view's
    reference, so shipping it never widens the capability.
    """
    check_conforms(Interface.of(type(obj)), view)
    return space.export(obj, interface=view, policy=policy or "stub",
                        config=dict(config or {}))
