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
from .replicating import ReplicatedProxy


@register_policy
class RegionalProxy(ReplicatedProxy):
    """Replicated proxy with region-aware, breaker-admitted read ordering."""

    proxy_policy_name = "regional"
    proxy_read_policies = ReplicatedProxy.proxy_read_policies + ("regional",)

    def _read_order_indices(self, count: int) -> list[int]:
        if self.proxy_config.get("read_policy", "regional") != "regional":
            return super()._read_order_indices(count)
        self._resolve_replicas()
        regions = self.proxy_config.get("regions") or []
        context = self.proxy_context
        my_region = context.node.region
        network = context.system.network
        my_node = context.node.name
        registry = getattr(context.system, "breakers", None)
        now = context.clock.now

        def rank(index: int) -> tuple:
            region = regions[index] if index < len(regions) else ""
            foreign = 0 if (region and region == my_region) else 1
            ref = self._replicas[index].proxy_ref
            refused = 0
            if registry is not None:
                breaker = registry.between(context.context_id,
                                           ref.context_id)
                refused = 0 if breaker.would_allow(now) else 1
            transit = network.transit_time(my_node, ref.node_name, 64)
            return (refused, foreign, transit, index)

        return sorted(range(count), key=rank)
