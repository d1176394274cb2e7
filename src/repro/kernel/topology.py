"""Topology builders: a multi-region WAN in one call.

Most experiments hand-build their topologies; :func:`build_regions` tags
nodes with regions and sets the WAN links between them without
link-spec loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import Context
from .network import LinkSpec
from .system import System


@dataclass
class Region:
    """One geographic region created by :func:`build_regions`.

    Attributes:
        name: region label (also stamped on every member node's
            ``node.region``).
        contexts: one context per node, in creation order.
    """

    name: str
    contexts: list[Context] = field(default_factory=list)


def build_regions(system: System, region_names: list[str],
                  nodes_per_region: int, wan_factor: float = 20.0,
                  context_name: str = "main") -> list[Region]:
    """Multi-region WAN: LAN inside a region, WAN between regions.

    Every node is *tagged* with its region (``node.region``), which
    geo-aware proxy policies read to prefer same-region replicas (see the
    ``regional`` policy).  Intra-region links keep the default (LAN) cost
    model; every inter-region link gets ``wan_factor`` × the default
    latency (bandwidth unchanged — mid-80s WANs were latency-bound).
    """
    regions = []
    for region_name in region_names:
        region = Region(region_name)
        for index in range(nodes_per_region):
            node = system.add_node(f"{region_name}-{index}")
            node.region = region_name
            region.contexts.append(node.create_context(context_name))
        regions.append(region)
    costs = system.costs
    wan = LinkSpec(latency=costs.remote_latency * wan_factor,
                   byte_cost=costs.byte_cost)
    for i, region_a in enumerate(regions):
        for region_b in regions[i + 1:]:
            for ctx_a in region_a.contexts:
                for ctx_b in region_b.contexts:
                    system.network.set_link(ctx_a.node.name,
                                            ctx_b.node.name, wan)
    return regions
