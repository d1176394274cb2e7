"""repro — a reproduction of Shapiro's proxy principle (ICDCS 1986).

A complete, simulated distributed object system in which every remote
interaction goes through a *proxy*: a local representative whose
implementation the **service** chooses.  See ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for the evaluation.

Quickstart::

    import repro

    system = repro.make_system(seed=42)
    server = system.add_node("server").create_context("main")
    client = system.add_node("client").create_context("main")
    repro.install_name_service(server)

    class Greeter(repro.Service):
        @repro.operation(readonly=True)
        def greet(self, whom):
            return f"hello, {whom}"

    repro.register(server, "greeter", Greeter())
    greeter = repro.bind(client, "greeter")     # a proxy
    assert greeter.greet("world") == "hello, world"
"""

from __future__ import annotations

from . import core  # noqa: F401  (re-exported below)
from .core import policies as _policies  # noqa: F401  registers built-ins
from .core.export import ObjectSpace, get_space
from .core.factory import Codebase, register_policy
from .core.policies import replicate
from .core.principle import assert_principle, audit
from .core.proxy import Proxy, is_proxy
from .core.service import Service
from .core.views import export_view, readonly_view, restrict
from .iface.interface import Interface, Operation, operation
from .kernel.context import Context
from .kernel.node import Node
from .kernel.params import DEFAULT_COSTS, CostModel
from .kernel.system import System
from .migration.mover import ensure_mover, migrate
from .persistence.manager import (
    PersistenceManager,
    crash_node,
    recover_context,
)
from .persistence.store import stable_store
from .naming.bootstrap import (
    bind,
    install_name_service,
    register,
    resolve,
    unregister,
)
from .rpc.promises import Promise, call_async, gather, pipeline_calls
from .rpc.protocol import RpcProtocol
from .rpc.transport import Transport
from .wire.refs import ObjectRef

__version__ = "1.0.0"

__all__ = [
    "Codebase", "Context", "CostModel", "DEFAULT_COSTS", "Interface", "Node",
    "ObjectRef", "ObjectSpace", "Operation", "PersistenceManager", "Promise",
    "Proxy", "RpcProtocol", "Service", "System", "Transport",
    "assert_principle", "audit", "bind", "call_async", "crash_node",
    "ensure_mover", "export", "export_view", "gather", "get_space",
    "install_name_service", "is_proxy", "make_system", "migrate",
    "operation", "pipeline_calls", "readonly_view", "recover_context",
    "register", "register_policy", "replicate", "resolve", "restrict",
    "stable_store", "unregister",
]


def make_system(seed: int = 0, costs: CostModel | None = None) -> System:
    """Create a fully wired simulated distributed system.

    Wires the kernel, the transport, the RPC protocol, and the codebase
    (with every built-in proxy policy registered).  Add nodes and contexts,
    install a name service, and go.
    """
    system = System(seed=seed, costs=costs)
    transport = Transport(system)
    RpcProtocol(system, transport)
    Codebase(system)
    return system


def export(context: Context, obj, **kwargs) -> ObjectRef:
    """Export ``obj`` from ``context``; see :meth:`ObjectSpace.export`."""
    return get_space(context).export(obj, **kwargs)
