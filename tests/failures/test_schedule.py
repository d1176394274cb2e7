"""Crash timelines on the one op-tick fault schedule (``ChaosSchedule``)."""

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.failures.schedule import ChaosSchedule, Fault
from repro.kernel.errors import RpcTimeout


def _alive_per_tick(system, schedule, nodes, ticks):
    """Tick ``schedule`` ``ticks`` times; after each, every node's state."""
    states = []
    for _ in range(ticks):
        schedule.tick(system)
        states.append(tuple(node.alive for node in nodes))
    return states


def _crashes(*specs):
    return ChaosSchedule(faults=tuple(
        Fault("crash", start, duration, node=node)
        for node, start, duration in specs))


class TestCrashTimeline:
    def test_outage_window(self, system):
        node = system.add_node("server")
        states = _alive_per_tick(system, _crashes(("server", 2, 3)), [node], 8)
        assert [alive for (alive,) in states] == \
            [True, True, False, False, False, True, True, True]

    def test_outage_at_tick_zero(self, system):
        node = system.add_node("server")
        states = _alive_per_tick(system, _crashes(("server", 0, 2)), [node], 3)
        assert [alive for (alive,) in states] == [False, False, True], \
            "the very first tick can crash a node; it restarts 2 ticks later"

    def test_overlapping_outages_on_the_same_node(self, system):
        """A second outage begun while the node is already down does not
        crash a dead node twice; the earlier restart still applies, and the
        later one finds the node alive (no-op)."""
        node = system.add_node("server")
        schedule = _crashes(("server", 0, 5), ("server", 2, 5))
        states = _alive_per_tick(system, schedule, [node], 8)
        assert [alive for (alive,) in states] == \
            [False, False, False, False, False, True, True, True]

    def test_restart_tick_coinciding_with_another_crash_tick(self, system):
        """When a restart and a crash land on the same tick, the restart is
        processed first and the crash wins the tick."""
        node = system.add_node("server")
        schedule = _crashes(("server", 0, 3), ("server", 3, 2))
        states = [alive for (alive,) in
                  _alive_per_tick(system, schedule, [node], 6)]
        assert states[:3] == [False, False, False]
        assert states[3] is False, "restarted and immediately re-crashed"
        assert states[5] is True, "the second outage's restart applies"

    def test_outages_of_two_nodes_ending_on_one_tick_both_restart(
            self, system):
        a, b = system.add_node("a"), system.add_node("b")
        schedule = _crashes(("a", 0, 5), ("b", 3, 2))
        states = _alive_per_tick(system, schedule, [a, b], 6)
        assert states[4] == (False, False)
        assert states[5] == (True, True)

    def test_periodic_layout(self):
        schedule = ChaosSchedule.periodic(["a", "b"], every=10, duration=2,
                                          total_ops=40)
        assert schedule.faults == (Fault("crash", 10, 2, node="a"),
                                   Fault("crash", 20, 2, node="b"),
                                   Fault("crash", 30, 2, node="a"))

    def test_periodic_round_robins_the_victims(self, system):
        a, b = system.add_node("a"), system.add_node("b")
        schedule = ChaosSchedule.periodic(["a", "b"], every=2, duration=1,
                                          total_ops=8)
        assert schedule.faults == (Fault("crash", 2, 1, node="a"),
                                   Fault("crash", 4, 1, node="b"),
                                   Fault("crash", 6, 1, node="a"))
        states = _alive_per_tick(system, schedule, [a, b], 8)
        down = [index for index, (a_alive, b_alive) in enumerate(states)
                if not (a_alive and b_alive)]
        assert down == [2, 4, 6]
        assert [states[i] for i in down] == \
            [(False, True), (True, False), (False, True)]


class TestScheduleDrivesRpc:
    @pytest.fixture
    def wired(self, pair):
        system, server, client = pair
        ref = get_space(server).export(KVStore())
        return system, server, get_space(client).bind_ref(ref)

    def test_schedule_drives_real_failures(self, wired):
        system, server, proxy = wired
        schedule = _crashes((server.node.name, 1, 2))
        outcomes = []
        for index in range(5):
            schedule.tick(system)
            try:
                proxy.put(f"k{index}", index)
                outcomes.append("ok")
            except RpcTimeout:
                outcomes.append("fail")
        assert outcomes == ["ok", "fail", "fail", "ok", "ok"]
