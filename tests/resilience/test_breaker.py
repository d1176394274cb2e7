"""Tests for circuit breakers and their registry (repro.resilience.breaker)."""

import pytest

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerRegistry,
    CircuitBreaker,
    ensure_breakers,
)


def make_breaker(**kwargs):
    params = {"failure_threshold": 3, "reset_timeout": 1.0}
    params.update(kwargs)
    return CircuitBreaker(caller="a/main", target="b/main", **params)


class TestStateMachine:
    def test_stays_closed_below_the_threshold(self):
        breaker = make_breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state(0.2) == CLOSED
        assert breaker.allow(0.2)

    def test_success_resets_the_failure_count(self):
        breaker = make_breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state(0.5) == CLOSED

    def test_trips_open_at_the_threshold(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(step * 0.1)
        assert breaker.state(0.3) == OPEN
        assert not breaker.allow(0.3)
        assert breaker.stats["fast_fails"] == 1
        assert breaker.stats["trips"] == 1

    def test_half_open_after_the_cooldown(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(float(step))
        assert breaker.state(2.9) == OPEN
        assert breaker.state(3.1) == HALF_OPEN

    def test_half_open_admits_a_bounded_number_of_probes(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(float(step))
        assert breaker.allow(3.5)          # the probe
        assert not breaker.allow(3.5)      # second caller is refused
        assert breaker.stats["fast_fails"] == 1

    def test_probe_success_closes(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(float(step))
        assert breaker.allow(3.5)
        breaker.record_success(3.6)
        assert breaker.state(3.7) == CLOSED
        assert breaker.allow(3.7)
        assert breaker.stats["resets"] == 1

    def test_probe_failure_reopens_and_restarts_the_cooldown(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(float(step))
        assert breaker.allow(3.5)
        breaker.record_failure(3.6)
        assert breaker.state(3.7) == OPEN
        assert breaker.state(4.5) == OPEN, "cooldown restarted at 3.6"
        assert breaker.state(4.7) == HALF_OPEN

    def test_straggler_failure_while_open_restarts_the_cooldown(self):
        breaker = make_breaker()
        for step in range(3):
            breaker.record_failure(float(step))
        breaker.record_failure(2.9)   # an in-flight call fails late
        assert breaker.state(3.5) == OPEN, "cooldown now runs from 2.9"
        assert breaker.state(4.0) == HALF_OPEN

    def test_forced_trip_and_reset(self):
        breaker = make_breaker()
        breaker.trip(0.0)
        assert breaker.state(0.1) == OPEN
        breaker.reset(0.2)
        assert breaker.state(0.3) == CLOSED
        assert breaker.consecutive_failures == 0


class TestRegistry:
    def test_between_creates_once_and_keeps_configuration(self, system):
        registry = BreakerRegistry(system, failure_threshold=4)
        first = registry.between("a/main", "b/main")
        again = registry.between("a/main", "b/main")
        assert first is again
        assert first.failure_threshold == 4, "the registry default applies"
        assert len(registry) == 1

    def test_configure_overrides_an_existing_breaker(self, system):
        registry = BreakerRegistry(system)
        registry.between("a/main", "b/main")   # created with defaults
        breaker = registry.configure("a/main", "b/main",
                                     failure_threshold=2, reset_timeout=0.5)
        assert breaker.failure_threshold == 2
        assert breaker.reset_timeout == 0.5

    @pytest.mark.parametrize("name, value", [
        ("_state", OPEN), ("caller", 7), ("half_open_probes", 2)])
    def test_configure_sets_only_knobs(self, system, name, value):
        # Regression: configure() set any attribute a shipped config named,
        # so {"_state": "open"} pinned a client's breaker open.
        registry = BreakerRegistry(system)
        breaker = registry.between("a/main", "b/main")
        with pytest.raises(TypeError, match=name):
            registry.configure("a/main", "b/main", **{name: value})
        assert breaker.state(0.0) == CLOSED
        assert breaker.caller == "a/main"
        assert not hasattr(breaker, "half_open_probes")

    def test_outcome_feed_counts_and_trips(self, system):
        registry = BreakerRegistry(system, failure_threshold=2)
        registry.record_success("a/main", "b/main", 0.0)
        registry.record_failure("a/main", "b/main", 0.1)
        registry.record_failure("a/main", "b/main", 0.2)
        assert registry.counters.get("rpc.successes") == 1
        assert registry.counters.get("rpc.failures") == 2
        assert registry.between("a/main", "b/main").state(0.3) == OPEN

    def test_transitions_reach_trace_and_counters(self, system):
        registry = BreakerRegistry(system, failure_threshold=1)
        registry.record_failure("a/main", "b/main", 0.5)
        events = [ev for ev in system.trace.events if ev.kind == "breaker"]
        assert len(events) == 1
        assert events[0].label == "closed->open"
        assert registry.counters.get("breaker.transitions") == 1
        assert registry.counters.get("breaker.open") == 1

    def test_detector_exchange_trips_and_resets_per_target(self, system):
        registry = BreakerRegistry(system)
        registry.between("a/main", "t/main")
        registry.between("b/main", "t/main")
        registry.between("a/main", "other/main")
        assert registry.trip_target("t/main", 0.0) == 2
        assert registry.snapshot(0.1) == {("a/main", "t/main"): OPEN,
                                          ("b/main", "t/main"): OPEN,
                                          ("a/main", "other/main"): CLOSED}
        assert registry.reset_target("t/main", 0.2) == 2
        assert set(registry.snapshot(0.3).values()) == {CLOSED}

    def test_snapshot_reports_every_pair(self, system):
        registry = BreakerRegistry(system, failure_threshold=1)
        registry.record_failure("a/main", "b/main", 0.0)
        registry.record_success("a/main", "c/main", 0.0)
        snap = registry.snapshot(0.1)
        assert snap[("a/main", "b/main")] == OPEN
        assert snap[("a/main", "c/main")] == CLOSED

    def test_ensure_breakers_is_idempotent(self, system):
        first = ensure_breakers(system, failure_threshold=2)
        second = ensure_breakers(system, failure_threshold=9)
        assert first is second
        assert system.breakers is first
        assert first.defaults["failure_threshold"] == 2
