"""The proxy: a service's local representative in a client context.

This is the paper's central object.  A proxy

* lives in the client's context and exports exactly the service's interface
  (``__getattr__`` dispatch checked against the interface signature),
* is the *only* access path from that context to the service,
* is implemented by code the **service** chose (the factory named in the
  reference's ``policy`` field), so the client↔service protocol is
  encapsulated inside the service's own code, and
* may contain intelligence beyond forwarding: caching, batching, migration,
  replica selection — see :mod:`repro.core.policies`.

Naming convention: everything local to the proxy is prefixed ``proxy_`` so
that ``__getattr__`` can treat all other names as remote operations.
"""

from __future__ import annotations

from typing import Any

from ..iface.interface import Interface
from ..kernel.context import Context
from ..kernel.errors import InterfaceError, ObjectMoved, RpcTimeout
from ..wire.refs import ObjectRef

#: Migration redirects one call follows before giving up.
MAX_FORWARDS = 4


class Proxy:
    """Base proxy: transparent forwarding with migration rebinding.

    Subclasses (policies) customise behaviour by overriding :meth:`invoke`
    and the lifecycle hooks; client code never sees the difference — that is
    the encapsulation claim (experiment E5).

    Attributes:
        proxy_context: the context this proxy lives in.
        proxy_ref: current reference to the service object (rebinds on
            migration).
        proxy_interface: the interface the proxy exports.
        proxy_config: marshallable configuration shipped by the exporter.
        proxy_stats: per-proxy counters (invocations, remote calls, hits…).
    """

    #: Name under which this class registers in the factory codebase.
    proxy_policy_name = "stub"

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Server-side setup hook, run when an object is exported under this
        policy (e.g. the caching policy installs its invalidation control
        here).  The base policy needs none."""

    def __init__(self, context: Context, ref: ObjectRef, interface: Interface,
                 config: dict | None = None):
        self.proxy_context = context
        self.proxy_ref = ref
        #: Resolved-``Operation`` cache (verb → Operation), filled lazily by
        #: :meth:`proxy_operation`; cleared with the bound-operation cache.
        self.proxy_opcache = {}
        # Not through the setter: a new proxy has no operations to drop.
        self._proxy_interface = interface
        self.proxy_config = dict(config or {})
        self.proxy_protocol = context.system.rpc
        self.proxy_stats = {"invocations": 0, "remote_calls": 0, "rebinds": 0}
        self.proxy_last_used = context.clock.now
        self.proxy_handshaken = False
        #: When set, this proxy is stacked on another (its next layer),
        #: whose ``invoke`` is then this proxy's ``proxy_remote`` — see
        #: policies.composite.
        self.proxy_next: "Proxy | None" = None

    # -- lifecycle hooks ------------------------------------------------------

    def proxy_install(self) -> None:
        """Called once, after the proxy is placed in its context's table.

        Policies use this to set up client-side machinery (e.g. export a
        cache-invalidation callback object).
        """

    def proxy_discard(self) -> None:
        """Called when the proxy is dropped from its context's table."""

    def proxy_release(self) -> None:
        """Called when the proxy's system closes: drop what points back at
        the proxy (its bound operations) so reference counting frees it.
        Nothing may be sent.  A policy holding another such cycle releases
        it here too."""
        self.proxy_invalidate_ops()

    def proxy_upgrade(self, config: dict) -> None:
        """Fold in configuration from a late installation handshake.

        Called by :meth:`ObjectSpace.upgrade` on proxies that were first
        materialised without a handshake (e.g. from a reference embedded in
        a reply).  Shipped values do not override local ones already set.
        An upgrade may change operation-relevant configuration, so the
        operation caches are dropped.
        """
        self.proxy_config = {**config, **self.proxy_config}
        self.proxy_invalidate_ops()
        self.proxy_install()

    def proxy_shipped(self, key: str) -> Any:
        """A configuration value the exporter ships (``None`` if it ships
        none), completing the installation handshake first when the proxy
        was bound without one and the value has not arrived yet."""
        value = self.proxy_config.get(key)
        if value is None and not self.proxy_handshaken:
            self.proxy_context.space.upgrade(self)
            value = self.proxy_config.get(key)
        return value

    # -- invocation ------------------------------------------------------------

    def __getattr__(self, verb: str) -> Any:
        if verb.startswith("proxy_") or verb.startswith("_"):
            raise AttributeError(verb)
        if verb not in self.proxy_interface:
            raise InterfaceError(
                f"interface {self.proxy_interface.name!r} declares no "
                f"operation {verb!r}")
        bound = _BoundProxyOperation(self, verb)
        # Memoise on the instance: the next ``proxy.verb`` is a plain
        # attribute hit that never re-enters ``__getattr__`` (verbs can never
        # start with ``proxy_`` or ``_``, so no internal name is shadowed).
        # Dropped by :meth:`proxy_invalidate_ops` on rebinds and upgrades.
        self.__dict__[verb] = bound
        return bound

    def proxy_operation(self, verb: str):
        """The resolved :class:`Operation` for ``verb``, cached per proxy.

        Saves the interface signature lookup on every repeated invocation;
        the cache is dropped whenever the interface or binding changes.
        """
        op = self.proxy_opcache.get(verb)
        if op is None:
            op = self.proxy_interface.operation(verb)
            self.proxy_opcache[verb] = op
        return op

    def proxy_invalidate_ops(self) -> None:
        """Drop every cached bound operation and resolved signature.

        Called on rebind, upgrade, and interface replacement, so a stale
        cache can never answer for an operation the current interface no
        longer declares (or route to a superseded binding).
        """
        instance = self.__dict__
        stale = [name for name, value in instance.items()
                 if value.__class__ is _BoundProxyOperation]
        for name in stale:
            del instance[name]
        cache = instance.get("proxy_opcache")
        if cache:
            cache.clear()

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        """Perform one operation.  Policies override this.

        The base behaviour is transparent forwarding, following at most
        :data:`MAX_FORWARDS` migration redirects.
        """
        self.proxy_stats["invocations"] += 1
        return self.proxy_remote(verb, args, kwargs)

    def proxy_remote(self, verb: str, args: tuple, kwargs: dict,
                     retry=None, deadline=None) -> Any:
        """Forward to the current binding, rebinding on ``ObjectMoved``.

        A stacked layer (``proxy_next`` set) never runs it: the composite
        sets the layer's ``proxy_remote`` to the next layer's ``invoke``.

        ``retry`` and ``deadline`` (:mod:`repro.resilience`) override the
        protocol's retransmission schedule and cap the call's total wait;
        both pass straight through to :meth:`RpcProtocol.call` (they do not
        apply to one-way sends or stacked layers, which pace themselves).
        """
        op = self.proxy_opcache.get(verb)
        if op is None:
            op = self.proxy_operation(verb)
        # The redirect budget only matters once an ObjectMoved actually
        # arrives, so it is set then, off the no-migration path.
        forwards_left = None
        while True:
            self.proxy_stats["remote_calls"] += 1
            try:
                if op.oneway:
                    self.proxy_protocol.send_oneway(
                        self.proxy_context, self.proxy_ref, verb, args, kwargs)
                    return None
                return self.proxy_protocol.call(
                    self.proxy_context, self.proxy_ref, verb, args, kwargs,
                    retry=retry, deadline=deadline)
            except ObjectMoved as moved:
                if moved.forward is None:
                    raise
                self.proxy_rebind(moved.forward)
            if forwards_left is None:
                forwards_left = MAX_FORWARDS
            if forwards_left == 0:
                raise RpcTimeout(
                    f"{verb!r} on {self.proxy_ref}: too many migration "
                    "redirects")
            forwards_left -= 1

    def proxy_rebind(self, ref: ObjectRef) -> None:
        """Point this proxy at a new location of the same object."""
        self.proxy_stats["rebinds"] += 1
        old = self.proxy_ref
        self.proxy_ref = ref
        self.proxy_invalidate_ops()
        table = self.proxy_context.proxies
        if table.get(old.key) is self:
            del table[old.key]
            table[ref.key] = self

    # -- interface (operation caches track replacement) -------------------------

    @property
    def proxy_interface(self) -> Interface:
        """The interface this proxy exports.

        Replacing it (an interface upgrade) drops the operation caches, so
        stale bound operations cannot outlive the signature that admitted
        them.
        """
        return self._proxy_interface

    @proxy_interface.setter
    def proxy_interface(self, interface: Interface) -> None:
        self._proxy_interface = interface
        self.proxy_invalidate_ops()

    # -- introspection -----------------------------------------------------------

    @property
    def proxy_is_local(self) -> bool:
        """Whether the target currently lives in this proxy's own context."""
        return self.proxy_ref.context_id == self.proxy_context.context_id

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.proxy_ref} "
                f"in {self.proxy_context.context_id!r})")


class _BoundProxyOperation:
    """A callable bound to one proxy operation."""

    __slots__ = ("_proxy", "_verb")

    def __init__(self, proxy: Proxy, verb: str):
        self._proxy = proxy
        self._verb = verb

    def __call__(self, *args, **kwargs):
        proxy = self._proxy
        proxy.proxy_last_used = proxy.proxy_context.clock.now
        return proxy.invoke(self._verb, args, kwargs)

    def __repr__(self) -> str:
        return f"<proxied operation {self._verb!r} on {self._proxy.proxy_ref}>"


def is_proxy(value: Any) -> bool:
    """Whether ``value`` is a proxy (of any policy)."""
    return isinstance(value, Proxy)
