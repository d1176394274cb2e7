"""A finished case is freed by reference counting, not by the collector.

``run_case`` closes its system once the report is built, and closing cuts
every back-edge that made the system one large reference cycle.  These
tests run cases with the cyclic collector off, then collect once with
``gc.DEBUG_SAVEALL``: what the collector finds is what a case left behind
for it.
"""

import gc

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import ObjectSpace
from repro.core.proxy import Proxy
from repro.kernel.context import Context
from repro.kernel.errors import ConfigurationError
from repro.kernel.node import Node
from repro.kernel.system import System
from repro.kernel.trace import Trace, TraceEvent
from repro.rpc.dispatcher import Dispatcher
from repro.simtest import build_case, run_case
from repro.simtest.workload import SHIPPED_POLICIES
from repro.wire import WireMessage

#: Nothing of a closed system may be left for the collector.
SYSTEM_PARTS = (System, Node, Context, Trace, TraceEvent, ObjectSpace,
                Dispatcher, WireMessage, Proxy)

#: Mean unreachable objects per case a policy may leave (784 before
#: ``System.close`` existed).
MEAN_BOUND = 100


def _left_behind(case) -> tuple:
    """``(count, {type names of system parts})`` that running ``case``
    left for the cyclic collector; none is collected early."""
    gc.collect()
    gc.disable()
    try:
        run_case(case, minimize=False)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return len(gc.garbage), {type(obj).__name__ for obj in gc.garbage
                                 if isinstance(obj, SYSTEM_PARTS)}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("policy", SHIPPED_POLICIES)
def test_a_finished_case_leaves_no_system_for_the_collector(policy):
    counts = []
    for seed in range(3):
        count, parts = _left_behind(build_case(seed, policy, ops=24))
        assert not parts, f"seed {seed} left {sorted(parts)} behind"
        counts.append(count)
    assert sum(counts) / len(counts) <= MEAN_BOUND, counts


def _small_system():
    system = repro.make_system(seed=5)
    server = system.add_node("s").create_context("main")
    client = system.add_node("c").create_context("main")
    repro.install_name_service(server)
    repro.register(server, "kv", repro.export(server, KVStore()))
    proxy = repro.bind(client, "kv")
    proxy.put("k", 1)
    return system, server, client


def test_close_is_terminal_and_idempotent():
    system, server, client = _small_system()
    events = len(system.trace)
    now = client.clock.now
    system.close()
    system.close()
    assert system.closed
    assert len(system.trace) == events      # closing traces nothing
    assert client.clock.now == now          # ... and charges nothing
    for context_id in ("s/main", "c/main"):
        with pytest.raises(ConfigurationError):
            system.context(context_id)
    with pytest.raises(ConfigurationError):
        system.node("s")
    with pytest.raises(ConfigurationError):
        system.add_node("late")
    assert client.space is None and client.handler is None
    assert not client.proxies and not server.exports


def test_a_closed_system_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        system, server, client = _small_system()
        system.close()
        del system, server, client
        assert gc.collect() == 0
    finally:
        gc.enable()
