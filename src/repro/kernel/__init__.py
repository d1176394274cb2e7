"""Simulation kernel: virtual time, nodes, contexts, and the network.

This package is the substrate everything else runs on.  It knows nothing
about proxies, RPC, or marshalling — only machines, address spaces, virtual
time, and unreliable message transmission.
"""

from .clock import BusyLine, Clock
from .context import Context
from .errors import (
    BindError,
    ConfigurationError,
    ConformanceError,
    DanglingReference,
    DistributionError,
    EncapsulationViolation,
    InterfaceError,
    MarshalError,
    ObjectMoved,
    ProtocolError,
    ReproError,
    RpcTimeout,
    SimulationError,
)
from .network import Delivery, LinkSpec, Network
from .node import Node
from .params import DEFAULT_COSTS, CostModel
from .randomness import SeedSequence
from .system import System
from .topology import Region, build_regions
from .trace import Trace, TraceEvent, TraceSummary

__all__ = [
    "BindError", "BusyLine", "Clock", "ConfigurationError", "ConformanceError",
    "Context", "CostModel", "DEFAULT_COSTS", "DanglingReference", "Delivery",
    "DistributionError", "EncapsulationViolation", "InterfaceError", "LinkSpec",
    "MarshalError", "Network", "Node", "ObjectMoved", "ProtocolError",
    "Region", "ReproError", "RpcTimeout", "SeedSequence", "SimulationError",
    "System", "Trace", "TraceEvent", "TraceSummary", "build_regions",
]
