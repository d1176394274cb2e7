"""Object migration: moving an object between contexts, keeping references valid.

Each participating context exports a :class:`MoverService` under the
well-known oid ``"_mover"``.  Migration is pull-style and runs entirely over
the ordinary proxy machinery (three messages):

1. the requester asks the *source* mover to ``migrate_to(oid, dst)``;
2. the source mover snapshots the object (``migrate_state``) and calls the
   *destination* mover's ``migrate_in`` with the class name, state, and
   export metadata — the state travels as an ordinary RPC payload, so its
   size is charged to the network like any message;
3. the destination re-instantiates the class from the codebase and
   re-exports it under the **same oid** with a bumped epoch; the source
   keeps a forwarding pointer.

Reference integrity: the oid embeds its minting context and never changes,
so every outstanding reference remains valid; stale bindings chase the
``ObjectMoved`` redirect (see :meth:`repro.core.proxy.Proxy.proxy_remote`)
and rebind exactly once per hop.
"""

from __future__ import annotations

from ..core.export import ObjectSpace, get_space
from ..iface.interface import operation
from ..kernel.context import Context
from ..kernel.errors import BindError, DistributionError
from ..wire.refs import ObjectRef

#: Well-known oid of the per-context mover.
MOVER_OID = "_mover"


class MoverService:
    """Per-context migration endpoint (exported as ``"_mover"``)."""

    def __init__(self, space: ObjectSpace):
        self._space = space

    @operation
    def migrate_to(self, oid: str, dst_context_id: str):
        """Move the object ``oid`` from this context to ``dst_context_id``.

        Returns the new reference as a plain field tuple
        ``(context_id, oid, interface, epoch, policy)`` — deliberately not an
        :class:`ObjectRef`, so it does not swizzle into a proxy in transit.
        Idempotent: if the object already moved, the existing forwarding
        reference is returned.  Returns ``None`` when the object does not
        support migration.
        """
        entry = self._space.entry(oid)
        if entry.moved_to is not None:
            return entry.moved_to.fields()
        if dst_context_id == self._space.context.context_id:
            return entry.ref.fields()
        snapshot = getattr(entry.obj, "migrate_state", None)
        if snapshot is None:
            return None
        self._space.context.charge(self._space.system.costs.migration_fixed)
        state = snapshot()
        dst_mover = mover_proxy(self._space.context, dst_context_id)
        dst_mover.migrate_in(type(entry.obj).__name__, state, oid,
                             entry.interface.name, entry.ref.epoch + 1,
                             entry.policy_name, entry.policy_config)
        new_ref = entry.ref.moved_to(dst_context_id)
        self._space.mark_migrated(oid, new_ref)
        self._space.system.trace.emit(
            self._space.context.clock.now, "migrate",
            self._space.context.context_id, dst_context_id, oid)
        return new_ref.fields()

    @operation
    def migrate_in(self, class_name: str, state, oid: str, interface_name: str,
                   epoch: int, policy: str, config: dict) -> bool:
        """Accept an inbound object: re-instantiate and re-export it."""
        codebase = self._space.system.codebase
        cls = codebase.resolve_class(class_name)
        rebuild = getattr(cls, "from_migration_state", None)
        if rebuild is None:
            raise BindError(f"class {class_name!r} has no from_migration_state")
        obj = rebuild(state)
        self._space.context.charge(self._space.system.costs.migration_fixed)
        self._space.export(obj, interface=codebase.interface(interface_name),
                           policy=policy, config=dict(config or {}),
                           oid=oid, epoch=epoch)
        return True


def ensure_mover(space: ObjectSpace) -> ObjectRef:
    """Install the mover service in a context (idempotent); returns its ref."""
    entry = space.context.exports.get(MOVER_OID)
    if entry is not None and not entry.revoked:
        return entry.ref
    return space.export(MoverService(space), oid=MOVER_OID)


def mover_proxy(context: Context, target_context_id: str):
    """A proxy for the mover of ``target_context_id``, bound in ``context``."""
    space = get_space(context)
    ref = ObjectRef(target_context_id, MOVER_OID, "MoverService", 0, "stub")
    return space.bind_ref(ref, handshake=False)


def migrate(context: Context, ref: ObjectRef,
            dst_context_id: str | None = None) -> ObjectRef | None:
    """Request migration of ``ref``'s object into ``dst_context_id``.

    ``dst_context_id`` defaults to the requesting context.  Returns the new
    reference, or ``None`` when the object is not migratable or the source
    is unreachable.  Both contexts must have movers installed
    (:func:`ensure_mover` — done automatically for objects exported under
    the ``migrating`` policy).
    """
    get_space(context)
    destination = dst_context_id or context.context_id
    ensure_mover(get_space(context.system.context(destination)))
    try:
        source_mover = mover_proxy(context, ref.context_id)
        fields = source_mover.migrate_to(ref.oid, destination)
    except DistributionError:
        return None
    if fields is None:
        return None
    return ObjectRef(*fields)
