"""Topology builders: common network shapes in one call.

The experiments mostly hand-build their topologies; these helpers are for
library users modelling something bigger — multi-region WANs, rings,
uniform clusters — without writing link-spec loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import Context
from .network import LinkSpec
from .system import System


def build_star(system: System, hub_name: str, leaf_names: list[str],
               context_name: str = "main") -> tuple[Context, list[Context]]:
    """A hub node plus leaves; returns ``(hub_context, leaf_contexts)``."""
    hub = system.add_node(hub_name).create_context(context_name)
    leaves = [system.add_node(name).create_context(context_name)
              for name in leaf_names]
    return hub, leaves


def build_ring(system: System, count: int, context_name: str = "main",
               neighbour_latency: float | None = None) -> list[Context]:
    """``count`` nodes in a ring: adjacent pairs get a fast link.

    Non-adjacent pairs keep the default (slower) cost model, approximating
    multi-hop forwarding without modelling routing.
    """
    contexts = [system.add_node(f"ring{i}").create_context(context_name)
                for i in range(count)]
    costs = system.costs
    fast = LinkSpec(
        latency=(neighbour_latency if neighbour_latency is not None
                 else costs.remote_latency / 4),
        byte_cost=costs.byte_cost)
    for index, ctx in enumerate(contexts):
        neighbour = contexts[(index + 1) % count]
        system.network.set_link(ctx.node.name, neighbour.node.name, fast)
    return contexts


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
