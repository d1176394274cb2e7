"""The ``regional`` policy: geo-aware reads over a replica group.

A :class:`RegionalProxy` is a :class:`~repro.core.policies.replicating.
ReplicatedProxy` whose read ordering knows about *regions*
(``node.region``, stamped by :func:`repro.kernel.topology.build_regions`):

* **reads** prefer replicas in the caller's own region — same-region
  replicas rank ahead of cross-region ones, with open circuit breakers
  demoted (a replica the breaker registry currently refuses to dial is
  not "admitted", however near), ties broken by measured transit time and
  then replica index for determinism — one rule for every replica: a
  copy hosted by the caller's own context wins on transit time, not on a
  special case;
* **writes** are untouched: they run the inherited replicated machinery,
  and because the deployment helper puts the *home region's* replica
  first, primary-sequenced writes land home — the caller pays the WAN
  price exactly when it mutates, never when it reads locally.

The caller stays oblivious (the paper's point): the same client code binds
a ``stub``, a ``replicated``, or a ``regional`` reference and only the
latencies differ.  Quorum settings are orthogonal — a W=2/R=2 versioned
regional group is linearizable and merely *prefers* the near replica for
first contact, while an unversioned read-one regional group trades
staleness for fully local reads (E21 measures both sides of that trade).
"""

from __future__ import annotations

from ..factory import register_policy
from .replicating import ReplicatedProxy, _context_id


@register_policy
class RegionalProxy(ReplicatedProxy):
    """Replicated proxy with region-aware, breaker-admitted read ordering."""

    proxy_policy_name = "regional"
    proxy_read_policies = ReplicatedProxy.proxy_read_policies + ("regional",)

    def _read_order_indices(self, count: int) -> list[int]:
        config = self.proxy_config
        if config.get("read_policy", "regional") != "regional":
            return super()._read_order_indices(count)
        context = self.proxy_context
        replicas = self._replicas or self._resolve_replicas()
        regions = config.get("regions") or ()
        my_region = context.node.region
        registry = self.proxy_protocol.system.breakers
        now = context.clock.now
        ranks = []
        for index, replica in enumerate(replicas):
            # Surveyed in index order: a breaker is created on first use.
            refused = registry is not None and not registry.between(
                context.context_id,
                replica.proxy_ref.context_id).would_allow(now)
            region = regions[index] if index < len(regions) else ""
            ranks.append((refused, not (region and region == my_region)))
        # Nearest first, ties by index (one ranking call), then stably by
        # ``(refused, foreign)``: the order of ``(refused, foreign,
        # transit, index)``.
        return sorted(self._network.rank(context.node.name,
                                         map(_context_id, replicas), 64),
                      key=ranks.__getitem__)
