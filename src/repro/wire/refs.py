"""Object references.

An :class:`ObjectRef` names an object exported by some context.  References
are what actually travel on the wire; the proxy principle says a reference
arriving in a context must surface to application code *only* as a proxy.

The ``epoch`` field supports migration: when an object moves, its new host
bumps the epoch, and the old host (if it kept a forwarding pointer) answers
stale-epoch requests with a redirect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, order=True)
class ObjectRef:
    """A location-dependent name for one exported object.

    Attributes:
        context_id: id of the hosting context (``"node/context"``).
        oid: object identifier, unique within the exporting context's history.
        interface: name of the interface the object exports.
        epoch: incarnation number, bumped on each migration.
        policy: name of the proxy factory the *exporter* chose.  This is the
            proxy principle on the wire: the service, not the client, decides
            what local representative a holder of this reference gets.
    """

    context_id: str
    oid: str
    interface: str = ""
    epoch: int = 0
    policy: str = "stub"

    @property
    def node_name(self) -> str:
        """Name of the node hosting the referenced object."""
        return self.context_id.split("/", 1)[0]

    @property
    def key(self) -> str:
        """Stable identity key for proxy tables.

        Minted oids embed their minting context, so they are globally unique
        and stay valid across migrations: location and epoch are ignored.
        Well-known oids (leading underscore: ``"_ctxmgr"``, ``"_mover"``,
        ``"_nameservice"``) deliberately repeat in every context and never
        migrate, so their identity *is* their location."""
        if self.oid.startswith("_"):
            return f"{self.context_id}#{self.oid}"
        return self.oid

    def fields(self) -> tuple:
        """The plain field tuple ``(context_id, oid, interface, epoch,
        policy)`` — what travels where a reference must *not* swizzle into
        a proxy (shard maps, migration replies, ``ObjectMoved`` details);
        ``ObjectRef(*fields)`` is the way back."""
        return (self.context_id, self.oid, self.interface, self.epoch,
                self.policy)

    def moved_to(self, context_id: str) -> "ObjectRef":
        """The ref after a migration to ``context_id`` (epoch bumped)."""
        return replace(self, context_id=context_id, epoch=self.epoch + 1)

    def __str__(self) -> str:
        return (f"{self.context_id}#{self.oid}@{self.epoch}"
                f":{self.interface}/{self.policy}")


class OidMinter:
    """Mints oids unique across the system.

    Each context owns a minter; oids embed the context id so that an object
    can migrate without its identity ever colliding with oids minted at the
    destination.
    """

    def __init__(self, context_id: str):
        self.context_id = context_id
        self._next = 0

    def mint(self) -> str:
        """Return a fresh oid."""
        oid = f"{self.context_id}:{self._next}"
        self._next += 1
        return oid
