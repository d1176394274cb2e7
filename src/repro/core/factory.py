"""The codebase: registries for proxy factories, interfaces, and classes.

The paper's proxies are *supplied by the service*: when a client acquires a
reference, the service's chosen proxy implementation is instantiated in the
client's context.  In SOS this meant shipping code; here the equivalent is a
system-wide :class:`Codebase` in which

* **proxy factories** are registered by policy name (the name travels in
  every :class:`~repro.wire.refs.ObjectRef`),
* **interfaces** are registered by name (type definitions are global
  knowledge — both ends of a connection compile against them), and
* **migratable classes** are registered by name so a migrated object can be
  re-instantiated at its destination.

Each :class:`~repro.kernel.system.System` gets its own codebase, pre-seeded
from the global defaults, so tests can register custom factories without
leaking across systems.
"""

from __future__ import annotations

from typing import Type

from ..iface.interface import Interface
from ..kernel.context import Context
from ..kernel.errors import BindError, ConfigurationError
from ..wire.refs import ObjectRef
from .proxy import Proxy

#: Factories registered at import time by the policy modules.
_GLOBAL_FACTORIES: dict[str, Type[Proxy]] = {}


def register_policy(cls: Type[Proxy]) -> Type[Proxy]:
    """Class decorator: register a proxy policy in the global codebase."""
    name = cls.proxy_policy_name
    if not name:
        raise ConfigurationError(f"{cls.__name__} has no proxy_policy_name")
    _GLOBAL_FACTORIES[name] = cls
    return cls


def global_policies() -> dict[str, Type[Proxy]]:
    """Snapshot of the globally registered proxy factories."""
    return dict(_GLOBAL_FACTORIES)


class Codebase:
    """Per-system registry of factories, interfaces, and migratable classes."""

    def __init__(self, system):
        self.system = system
        self.factories: dict[str, Type[Proxy]] = dict(_GLOBAL_FACTORIES)
        self.interfaces: dict[str, Interface] = {}
        self.classes: dict[str, type] = {}
        system.codebase = self

    # -- proxy factories -------------------------------------------------------

    def register_factory(self, cls: Type[Proxy]) -> Type[Proxy]:
        """Register a proxy policy for this system only."""
        self.factories[cls.proxy_policy_name] = cls
        return cls

    def instantiate(self, context: Context, ref: ObjectRef,
                    config: dict | None = None) -> Proxy:
        """Create the proxy the exporter chose for ``ref``, in ``context``.

        This is the moment the paper calls *proxy installation*: the
        factory named by the reference runs in the client's context.
        """
        factory = self.factories.get(ref.policy)
        if factory is None:
            raise BindError(
                f"no proxy factory {ref.policy!r} registered "
                f"(known: {sorted(self.factories)})")
        interface = self.interface(ref.interface)
        proxy = factory(context, ref, interface, config)
        return proxy

    # -- interfaces ---------------------------------------------------------------

    def register_interface(self, interface: Interface) -> Interface:
        """Publish an interface definition system-wide."""
        existing = self.interfaces.get(interface.name)
        if existing is not None and existing is not interface:
            if existing.names() != interface.names():
                raise ConfigurationError(
                    f"conflicting definitions of interface {interface.name!r}")
        self.interfaces[interface.name] = interface
        return interface

    def interface(self, name: str) -> Interface:
        """Look up a published interface by name."""
        iface = self.interfaces.get(name)
        if iface is None:
            raise BindError(
                f"interface {name!r} is not published in the codebase; "
                "export an object under it first")
        return iface

    # -- migratable classes ----------------------------------------------------------

    def register_class(self, cls: type, name: str | None = None) -> type:
        """Register a class so instances can be re-created after migration."""
        self.classes[name or cls.__name__] = cls
        return cls

    def resolve_class(self, name: str) -> type:
        """Look up a migratable class by name."""
        cls = self.classes.get(name)
        if cls is None:
            raise BindError(
                f"class {name!r} is not registered for migration "
                f"(known: {sorted(self.classes)})")
        return cls
