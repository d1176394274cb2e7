"""The ``migrating`` policy: a proxy that pulls its object local.

The paper: "proxies can make use of local information and decide to migrate
the remote object it represents from its remote context to the local one."

The proxy counts remote invocations; once the count reaches the threshold
the exporter configured (``migrate_after``), it asks the migration substrate
to move the object into its own context and rebinds.  From then on every
invocation takes the same-context fast path — the crossover economics of
experiment E3.

Migration is an *optimisation*, never a correctness requirement: if the
object is not migratable, the movers are unreachable, or another proxy beat
us to it, the proxy silently keeps forwarding.
"""

from __future__ import annotations

from typing import Any

from ..factory import register_policy
from ..proxy import Proxy

#: Default number of remote calls after which the proxy migrates the object.
DEFAULT_MIGRATE_AFTER = 4


@register_policy
class MigratingProxy(Proxy):
    """Forwarding proxy that relocates a hot object into its own context."""

    proxy_policy_name = "migrating"

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._remote_count = 0
        self._attempted = False
        self.proxy_stats.update(migrations=0, migration_failures=0)

    def proxy_install(self) -> None:
        """Make sure this context can *receive* objects."""
        from ...migration.mover import ensure_mover
        ensure_mover(self.proxy_context.space)

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        if not self.proxy_is_local:
            self._remote_count += 1
            if not self._attempted and self._remote_count >= self._threshold():
                self._pull_local()
        return self.proxy_remote(verb, args, kwargs)

    def _threshold(self) -> int:
        return int(self.proxy_config.get("migrate_after", DEFAULT_MIGRATE_AFTER))

    def _pull_local(self) -> None:
        from ...migration.mover import migrate
        self._attempted = True
        new_ref = migrate(self.proxy_context, self.proxy_ref)
        if new_ref is None:
            self.proxy_stats["migration_failures"] += 1
            return
        if new_ref.key == self.proxy_ref.key:
            self.proxy_rebind(new_ref)
        self.proxy_stats["migrations"] += 1

    @classmethod
    def proxy_on_export(cls, space, entry) -> None:
        """Server-side setup: install the mover and register the class so the
        object can be re-instantiated wherever it lands."""
        from ...migration.mover import ensure_mover
        ensure_mover(space)
        space.system.codebase.register_class(type(entry.obj))
