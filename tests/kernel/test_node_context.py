"""Unit tests for nodes and contexts."""

import pytest

from repro.kernel.errors import ConfigurationError, SimulationError


@pytest.fixture
def node(system):
    return system.add_node("host")


class TestNode:
    def test_create_context(self, node):
        ctx = node.create_context("svc")
        assert ctx.context_id == "host/svc"
        assert node.context("svc") is ctx

    def test_duplicate_context_rejected(self, node):
        node.create_context("svc")
        with pytest.raises(ConfigurationError):
            node.create_context("svc")

    def test_unknown_context_rejected(self, node):
        with pytest.raises(ConfigurationError):
            node.context("missing")

    def test_crash_and_restart(self, node):
        assert node.alive
        node.crash()
        assert not node.alive
        assert node.crash_count == 1
        node.restart()
        assert node.alive

    def test_contexts_reflect_liveness(self, node):
        ctx = node.create_context("svc")
        node.crash()
        assert not ctx.alive
        node.restart()
        assert ctx.alive


class TestContext:
    def test_identity(self, node):
        ctx = node.create_context("main")
        assert ctx.node is node
        assert ctx.system is node.system
        assert ctx.context_id == "host/main"

    def test_charge_advances_clock(self, node):
        ctx = node.create_context("main")
        ctx.charge(0.5)
        assert ctx.now == 0.5

    def test_charge_is_the_clocks_advance(self, node):
        # Fixed at construction, one call per charge (the identity fails
        # at the parent of the PR that made it a slot); the clock's
        # monotonicity check is the charge's, which nothing covered.
        ctx = node.create_context("main")
        assert ctx.charge == ctx.clock.advance
        assert ctx.charge(0.25) == 0.25
        with pytest.raises(SimulationError):
            ctx.charge(-1e-9)
        assert ctx.now == 0.25

    def test_registered_in_system(self, node):
        ctx = node.create_context("main")
        assert node.system.context("host/main") is ctx

    def test_unknown_context_id_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.context("no/where")

    def test_fresh_context_has_no_space(self, node):
        ctx = node.create_context("main")
        assert ctx.space is None
        assert ctx.handler is None
        assert ctx.exports == {}
        assert ctx.proxies == {}


class TestSystem:
    def test_max_time_over_contexts(self, system):
        a = system.add_node("a").create_context("m")
        b = system.add_node("b").create_context("m")
        a.charge(1.0)
        b.charge(3.0)
        assert system.max_time() == 3.0

    def test_max_time_empty(self, system):
        assert system.max_time() == 0.0

    def test_contexts_listing(self, system):
        system.add_node("a").create_context("m")
        system.add_node("b").create_context("m")
        assert len(system.contexts()) == 2
