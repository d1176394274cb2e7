"""Export and bind: the object space of a context.

Every context that participates in the proxy regime gets an
:class:`ObjectSpace`, which owns:

* the **export table** (oid → :class:`~repro.rpc.dispatcher.ExportEntry`),
* the **proxy table** (object key → live proxy, at most one proxy per
  object per context): :meth:`ObjectSpace.bind_ref` is the application's
  way in (home access is the object itself — or, for a group, which has
  no object of its own, the same group proxy every other context gets),
  :meth:`ObjectSpace.proxy_for` the policies' (every member of a group is
  a bound proxy, a home one included),
* the **swizzle hooks** installed on the context's marshaller path — the
  single point where the proxy principle is *enforced*:

  - outbound: a proxy crossing the boundary is replaced by its target's
    reference; an exported object is replaced by its reference; an
    unexported service object is either auto-exported (default) or rejected
    (``strict`` mode) — a raw remote pointer can never leave,
  - inbound: a reference arriving home unswizzles to the real object; any
    other reference materialises as a proxy built by the factory the
    *exporter* named in the reference.

* the per-context **context-manager service** (oid ``"_ctxmgr"``), through
  which remote binders fetch the full proxy configuration (the *proxy
  installation handshake*) and liveness pings travel.
"""

from __future__ import annotations

from typing import Any

from ..iface.conformance import check_implements
from ..iface.interface import Interface, is_operation, operation
from ..kernel.context import Context
from ..kernel.errors import BindError, ConfigurationError, EncapsulationViolation
from ..rpc.dispatcher import ExportEntry, ensure_dispatcher
from ..wire.refs import ObjectRef, OidMinter
from .proxy import Proxy

#: Types that can never be (or contain) an exportable object; the encoder
#: hook returns immediately for them.
_PLAIN_TYPES = frozenset([type(None), bool, int, float, str, bytes, bytearray])

#: Well-known oid of the per-context manager object.
CTXMGR_OID = "_ctxmgr"


class ContextManager:
    """Per-context system service: handshakes, pings, and introspection."""

    def __init__(self, space: "ObjectSpace"):
        self._space = space

    @operation(readonly=True)
    def describe(self, oid: str) -> dict:
        """The proxy-installation handshake: full metadata for one export."""
        entry = self._space.context.exports.get(oid)
        if entry is None or entry.revoked:
            raise KeyError(f"no export {oid!r}")
        return {
            "policy": entry.policy_name,
            "config": entry.policy_config,
            "interface": entry.interface.name,
            "epoch": entry.ref.epoch,
            "moved_to": None if entry.moved_to is None else str(entry.moved_to),
        }

    @operation(readonly=True)
    def ping(self) -> str:
        """Liveness probe."""
        return "pong"

    @operation(readonly=True)
    def list_exports(self) -> list:
        """Oids of all live exports (diagnostics)."""
        return sorted(oid for oid, entry in self._space.context.exports.items()
                      if not entry.revoked)


class ObjectSpace:
    """Export/bind manager for one context (see module docstring)."""

    def __init__(self, context: Context, strict: bool = False):
        if context.space is not None:
            raise ConfigurationError(
                f"context {context.context_id!r} already has an object space")
        self.context = context
        self.system = context.system
        self.strict = strict
        self.minter = OidMinter(context.context_id)
        self._exported_ids: dict[int, str] = {}
        #: The verdicts of classes without their own derived interface.
        self._exportable_types: dict[type, bool] = {}
        self.stats = {"exports": 0, "auto_exports": 0, "binds": 0,
                      "handshakes": 0, "unswizzles": 0, "violations": 0}
        context.space = self
        context.encoder_hook = self._encode_value
        context.decoder_hook = self._decode_ref
        self.dispatcher = ensure_dispatcher(context, self.system.transport)
        self._ctxmgr_ref = self.export(ContextManager(self), oid=CTXMGR_OID)

    # -- export side -----------------------------------------------------------

    def export(self, obj: Any, interface: Interface | None = None,
               policy: str | None = None, config: dict | None = None,
               oid: str | None = None, epoch: int = 0) -> ObjectRef:
        """Make ``obj`` invocable from other contexts; returns its reference.

        The interface defaults to the one derived from ``obj``'s
        ``@operation`` methods; the proxy policy defaults to the class's
        ``default_policy`` attribute (``"stub"`` if absent).  The returned
        reference carries the policy name, so every holder of the reference
        gets the representative this exporter chose.
        """
        if isinstance(obj, Proxy):
            raise EncapsulationViolation(
                "cannot export a proxy; pass the proxy around instead — it "
                "travels as a reference to its target")
        if interface is None:
            interface = Interface.of(type(obj))
        check_implements(obj, interface)
        if policy is None:
            policy = getattr(type(obj), "default_policy", "stub")
        if config is None:
            config = dict(getattr(type(obj), "default_config", {}) or {})
        return self._install(obj, interface, policy, config, oid, epoch).ref

    def export_group(self, interface: Interface, policy: str, config: dict,
                     extra_layers: list[str] | None,
                     members: list) -> ExportEntry:
        """Export a group's client-facing entry from this context and
        return it (the step :func:`~repro.core.policies.replicating.
        replicate` and :func:`~repro.core.policies.sharding.shard` share).

        A group entry is a reference, a policy and a configuration with
        **no object behind it**: every context — this one included —
        reaches the group through the proxy the reference names, and the
        entry itself serves only that proxy's control calls and the
        installation handshake.  ``extra_layers`` stack in front of
        ``policy`` (outermost first) under the ``composite`` policy.

        Server-side layer components (e.g. the caching layer's invalidation
        hook) install on the *group* entry, but operations are dispatched to
        the ``members``' stub entries — so every member entry shares the
        group's hook list: mutations observed at any copy fire the same
        machinery, and later installs propagate too (hooks are idempotent per
        write, so the duplication across replicas is harmless).
        """
        if extra_layers:
            config["layers"] = list(extra_layers) + [policy]
            policy = "composite"
        entry = self._install(None, interface, policy, config)
        if entry.mutation_hooks:
            for member in members:
                member.mutation_hooks = entry.mutation_hooks
        return entry

    def _install(self, obj: Any, interface: Interface, policy: str,
                 config: dict, oid: str | None = None,
                 epoch: int = 0) -> ExportEntry:
        """Mint the reference and table entry of one export, then run the
        policy's server-side installation.  An installation that refuses
        the export takes the entry back out of the tables."""
        self.system.codebase.register_interface(interface)
        if policy not in self.system.codebase.factories:
            raise ConfigurationError(f"unknown proxy policy {policy!r}")
        if oid is None:
            oid = self.minter.mint()
        elif oid in self.context.exports and not self.context.exports[oid].revoked:
            raise ConfigurationError(
                f"oid {oid!r} already exported in {self.context.context_id!r}")
        ref = ObjectRef(self.context.context_id, oid, interface.name,
                        epoch, policy)
        entry = ExportEntry(obj=obj, interface=interface, ref=ref,
                            policy_name=policy, policy_config=config)
        exports = self.context.exports
        revoked = exports.get(oid)
        exports[oid] = entry
        hook = getattr(self.system.codebase.factories[policy],
                       "proxy_on_export", None)
        if hook is not None:
            try:
                hook(self, entry)
            except Exception:
                if revoked is None:
                    del exports[oid]
                else:
                    exports[oid] = revoked
                raise
        if obj is not None:
            self._exported_ids.setdefault(id(obj), oid)
        self.stats["exports"] += 1
        return entry

    def unexport(self, ref_or_obj: Any) -> None:
        """Withdraw an export; outstanding references become dangling."""
        entry = self._entry_for(ref_or_obj)
        entry.revoked = True
        if self._exported_ids.get(id(entry.obj)) == entry.ref.oid:
            del self._exported_ids[id(entry.obj)]

    def mark_migrated(self, oid: str, new_ref: ObjectRef) -> None:
        """Record that export ``oid`` moved away: keep a forwarding pointer,
        release the object (it now lives at ``new_ref``).

        The stale local copy stays pinned in the entry (and its identity
        mapping kept), so that any lingering local alias — e.g. a registry
        that stored the object before it moved — marshals as the forwarding
        reference, never as a fresh auto-export of the zombie.  (Pinning also
        keeps ``id()``-based identity sound: the id cannot be reused while
        the entry holds the object.)"""
        entry = self.entry(oid)
        entry.moved_to = new_ref

    def entry(self, oid: str) -> ExportEntry:
        """Look up an export entry by oid."""
        entry = self.context.exports.get(oid)
        if entry is None:
            raise BindError(
                f"context {self.context.context_id!r} exports no {oid!r}")
        return entry

    def ref_of(self, obj: Any) -> ObjectRef:
        """The reference under which a (previously exported) object travels."""
        return self._entry_for(obj).ref

    def _entry_for(self, ref_or_obj: Any) -> ExportEntry:
        if isinstance(ref_or_obj, ObjectRef):
            return self.entry(ref_or_obj.oid)
        oid = self._exported_ids.get(id(ref_or_obj))
        if oid is None:
            raise BindError(
                f"object {ref_or_obj!r} is not exported from "
                f"{self.context.context_id!r}")
        return self.entry(oid)

    # -- bind side ----------------------------------------------------------------

    def bind_ref(self, ref: ObjectRef, handshake: bool = True,
                 config: dict | None = None) -> Any:
        """Obtain this context's access path for ``ref`` — what application
        code (and the decoder hook) gets.  One of three:

        * the real object, when ``ref`` names an object of this very
          context (no proxy is interposed between an application and its
          own objects);
        * the group proxy, when ``ref`` names a group entry of this
          context — a group has no object here to hand out, so its home
          reaches it the way every other context does;
        * otherwise the proxy of :meth:`proxy_for`.  With
          ``handshake=True`` the full policy configuration is fetched from
          the exporter first (one extra RPC — the installation
          handshake); without it, the factory starts from the defaults
          encoded in the reference.
        """
        if ref.context_id == self.context.context_id:
            entry = self.context.exports.get(ref.oid)
            if entry is not None and entry.obj is not None \
                    and not entry.revoked and entry.moved_to is None:
                self.stats["unswizzles"] += 1
                return entry.obj
        return self.proxy_for(ref, handshake, config)

    def proxy_for(self, member: Any, handshake: bool = False,
                  config: dict | None = None) -> Proxy:
        """The (single, table-cached) proxy for ``member`` — what a *policy*
        holds for each object it routes to, home or remote alike.

        ``member`` is a reference, or whatever a shipped reference became
        on its way here: a proxy, or (unswizzled by the decoder hook) the
        home object, whose export reference is recovered
        (:class:`BindError` if this context no longer exports it).  The
        exporter-chosen factory is instantiated on first bind.  A proxy
        for an export of this very context is an ordinary stub: its calls
        take the protocol's same-context arm, through the export entry's
        guards, interface check, compute charge and mutation hooks.  A
        proxy for a *group entry* of this very context is configured from
        the entry itself — the handshake's answer is already here, so
        nothing is sent, charged or traced to build it.
        """
        if isinstance(member, Proxy):
            return member
        ref = member if isinstance(member, ObjectRef) else self.ref_of(member)
        existing = self.context.proxies.get(ref.key)
        if existing is not None:
            return existing
        merged = dict(config or {})
        entry = self.context.exports.get(ref.oid) \
            if ref.context_id == self.context.context_id else None
        if entry is not None and entry.obj is None:
            merged = {**entry.policy_config, **merged}
            handshake = True
        elif handshake:
            merged = {**self._handshake(ref), **merged}
        proxy = self.system.codebase.instantiate(self.context, ref, merged)
        self.context.proxies[ref.key] = proxy
        self.stats["binds"] += 1
        proxy.proxy_handshaken = handshake
        proxy.proxy_install()
        return proxy

    def upgrade(self, proxy: Proxy) -> Proxy:
        """Complete the installation handshake for a proxy bound without one.

        Proxies materialised by the decoder hook start from the defaults the
        reference carries; a deliberate ``bind`` upgrades them with the full
        exporter-side configuration (one ``describe`` RPC).  Idempotent.
        """
        if isinstance(proxy, Proxy) and not proxy.proxy_handshaken:
            config = self._handshake(proxy.proxy_ref)
            proxy.proxy_handshaken = True
            proxy.proxy_upgrade(config)
        return proxy

    def discard(self, proxy: Proxy) -> None:
        """Drop a proxy from the table (it must not be used afterwards)."""
        table = self.context.proxies
        if table.get(proxy.proxy_ref.key) is proxy:
            del table[proxy.proxy_ref.key]
        proxy.proxy_discard()

    def close(self) -> None:
        """Release this space when its system closes (:meth:`Context.close
        <repro.kernel.context.Context.close>` calls it): every proxy in the
        table releases what it holds (:meth:`Proxy.proxy_release`) and the
        dispatcher drops its marshallers.  Unlike :meth:`discard`, nothing
        is sent: the system is over, so no server is told."""
        for proxy in self.context.proxies.values():
            proxy.proxy_release()
        self.dispatcher.close()

    def sweep(self, unused_for: float) -> int:
        """Garbage-collect proxies idle for at least ``unused_for`` seconds.

        Returns the number of proxies discarded.  No context-manager proxy
        is ever collected, whichever context it reaches: one is the
        bootstrap path to the name service, and every other one the path
        installation handshakes and pings take.
        """
        now = self.context.clock.now
        victims = [proxy for proxy in self.context.proxies.values()
                   if now - proxy.proxy_last_used >= unused_for
                   and proxy.proxy_ref.oid != CTXMGR_OID]
        for proxy in victims:
            self.discard(proxy)
        return len(victims)

    def ctxmgr_proxy(self, context_id: str):
        """A proxy for the context manager of a (remote) context."""
        ref = ObjectRef(context_id, CTXMGR_OID, "ContextManager", 0, "stub")
        return self.bind_ref(ref, handshake=False)

    def _handshake(self, ref: ObjectRef) -> dict:
        """Fetch the exporter's policy configuration for ``ref``."""
        self.stats["handshakes"] += 1
        mgr = self.ctxmgr_proxy(ref.context_id)
        description = mgr.describe(ref.oid)
        return dict(description.get("config") or {})

    # -- swizzle hooks ---------------------------------------------------------------

    def _encode_value(self, value: Any):
        """Outbound hook: no raw remote-capable object leaves this context."""
        if type(value) in _PLAIN_TYPES:
            return None
        if isinstance(value, Proxy):
            return value.proxy_ref
        if isinstance(value, ObjectRef):
            return None
        if not self._is_exportable_type(type(value)):
            return None
        oid = self._exported_ids.get(id(value))
        if oid is not None:
            entry = self.context.exports.get(oid)
            if entry is not None and not entry.revoked:
                return entry.moved_to if entry.moved_to is not None else entry.ref
        if self.strict:
            self.stats["violations"] += 1
            raise EncapsulationViolation(
                f"unexported service object {type(value).__name__!r} may not "
                f"cross the boundary of {self.context.context_id!r}; export "
                "it first (the object space is strict)")
        self.stats["auto_exports"] += 1
        return self.export(value)

    def _decode_ref(self, ref: ObjectRef) -> Any:
        """Inbound hook: every arriving reference surfaces as proxy or home object."""
        return self.bind_ref(ref, handshake=False)

    def _is_exportable_type(self, klass: type) -> bool:
        """Whether ``klass`` declares operations: a class that carries its
        own derived interface does; any other is scanned once per space."""
        if klass.__dict__.get("__repro_interface__") is not None:
            return True
        known = self._exportable_types.get(klass)
        if known is None:
            known = any(is_operation(getattr(klass, name, None))
                        for name in dir(klass))
            self._exportable_types[klass] = known
        return known

    def __repr__(self) -> str:
        return (f"ObjectSpace({self.context.context_id!r}, "
                f"exports={len(self.context.exports)}, "
                f"proxies={len(self.context.proxies)})")


def get_space(context: Context, strict: bool = False) -> ObjectSpace:
    """The context's object space, created on first use."""
    if context.space is None:
        ObjectSpace(context, strict=strict)
    return context.space
