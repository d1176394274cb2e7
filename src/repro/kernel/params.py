"""Cost-model parameters.

The virtual-time costs below are calibrated to the mid-1980s hardware the
paper's contemporaries report (Birrell & Nelson 1984 measure ~1.1 ms for a
null RPC on Dorados over 3 Mbit Ethernet; 10 Mbit Ethernet was current at
ICDCS '86).  Absolute values matter less than their *ratios* — local call ≪
same-node IPC ≪ remote message — because the reproduction targets the shape
of the comparisons, not testbed-specific numbers.

All times are seconds of virtual time; all sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs charged by the kernel and the layers above it.

    Attributes:
        local_call: one intra-context procedure call (proxy dispatch floor).
        ipc_latency: one-way message between contexts on the same node.
        remote_latency: one-way propagation between distinct nodes.
        byte_cost: per-byte transmission cost on the inter-node network
            (8e-7 s/B ≈ 10 Mbit/s Ethernet).
        ipc_byte_cost: per-byte cost for same-node IPC (memory copy).
        marshal_byte_cost: CPU cost of (un)marshalling one byte.
        marshal_fixed: fixed CPU cost of building one message.
        dispatch_cost: server-side demultiplex + upcall cost per request.
        page_size: DSM page size in bytes.
        page_fault_overhead: trap + handler cost for one DSM fault.
        migration_fixed: fixed cost of packing/unpacking a migrating object.
        rpc_timeout: client retransmission timeout.
        rpc_max_retries: retransmissions before the call fails.
        disk_latency: seek + rotational latency of one stable-store access
            (~20 ms: a mid-1980s winchester disk).
        disk_byte_cost: per-byte transfer cost of the stable store
            (1e-6 s/B ≈ 1 MB/s).

    Every term is a number ``>= 0``, checked when the model is built
    (:meth:`with_overrides` builds one too): the layers that charge a cost
    write the clock without :meth:`Clock.advance <repro.kernel.clock.
    Clock.advance>`'s check, so a negative charge is refused here.
    """

    local_call: float = 2e-6
    ipc_latency: float = 1e-4
    remote_latency: float = 1e-3
    byte_cost: float = 8e-7
    ipc_byte_cost: float = 5e-8
    marshal_byte_cost: float = 2e-8
    marshal_fixed: float = 2e-5
    dispatch_cost: float = 3e-5
    page_size: int = 4096
    page_fault_overhead: float = 2e-4
    migration_fixed: float = 2e-3
    rpc_timeout: float = 2e-2
    rpc_max_retries: int = 8
    disk_latency: float = 2e-2
    disk_byte_cost: float = 1e-6

    def __post_init__(self):
        for term in fields(self):
            value = getattr(self, term.name)
            if value.__class__ not in (int, float) or not value >= 0:
                raise ConfigurationError(
                    f"cost {term.name!r} must be a number >= 0, not "
                    f"{value!r}")

    def with_overrides(self, **kwargs) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Default cost model used when a :class:`~repro.kernel.system.System` is
#: created without an explicit one.
DEFAULT_COSTS = CostModel()
