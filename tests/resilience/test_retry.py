"""Tests for the retry-policy engine (repro.resilience.retry)."""

import random

import pytest

from repro.kernel.params import DEFAULT_COSTS
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy


class TestFixed:
    def test_every_interval_is_the_base_patience(self):
        policy = RetryPolicy()
        for attempt in range(9):
            assert policy.interval(attempt, 0.02) == pytest.approx(0.02)

    def test_budget_defers_to_the_cost_model(self):
        assert DEFAULT_RETRY.budget(DEFAULT_COSTS) == \
            1 + DEFAULT_COSTS.rpc_max_retries

    def test_explicit_attempts_win(self):
        assert RetryPolicy(attempts=3).budget(DEFAULT_COSTS) == 3

    def test_no_rng_draw_when_jitter_is_zero(self):
        """The default policy must not touch the stream — the legacy retry
        loop drew nothing, and determinism of old seeds depends on it."""
        class Explosive(random.Random):
            def random(self):
                raise AssertionError("jitter-free policy drew from the rng")
        assert DEFAULT_RETRY.interval(2, 0.02, Explosive()) == pytest.approx(0.02)


class TestExponential:
    def test_intervals_grow_by_the_multiplier(self):
        policy = RetryPolicy(attempts=4, multiplier=2.0)
        waits = [policy.interval(a, 0.01) for a in range(4)]
        assert waits == pytest.approx([0.01, 0.02, 0.04, 0.08])

    def test_jitter_stays_within_its_band(self):
        policy = RetryPolicy(attempts=4, multiplier=2.0, jitter=0.1)
        rng = random.Random(7)
        for attempt in range(4):
            base = 0.01 * 2.0 ** attempt
            wait = policy.interval(attempt, 0.01, rng)
            assert base * 0.9 <= wait <= base * 1.1

    def test_jitter_is_deterministic_under_a_seeded_stream(self):
        policy = RetryPolicy.exponential()
        first = [policy.interval(a, 0.01, random.Random(42)) for a in range(4)]
        second = [policy.interval(a, 0.01, random.Random(42)) for a in range(4)]
        assert first == second

    def test_total_wait_sums_the_schedule(self):
        policy = RetryPolicy(attempts=3, multiplier=2.0)
        assert policy.total_wait(0.01) == pytest.approx(0.01 + 0.02 + 0.04)


class TestValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)

    def test_rejects_shrinking_multiplier(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_rejects_out_of_band_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestFromConfig:
    def test_none_yields_the_exponential_default(self):
        policy = RetryPolicy.from_config(None)
        assert policy.multiplier == 2.0
        assert policy.attempts == 4

    def test_dict_overrides_field_by_field(self):
        policy = RetryPolicy.from_config(
            {"attempts": 6, "multiplier": 3.0, "jitter": 0.0})
        assert (policy.attempts, policy.multiplier) == (6, 3.0)
        assert policy.jitter == 0.0

    def test_adaptive_defaults_off(self):
        assert RetryPolicy.from_config(None).adaptive is False
        assert RetryPolicy.exponential().adaptive is False

    def test_adaptive_from_config_and_constructor(self):
        assert RetryPolicy.from_config({"adaptive": True}).adaptive is True
        assert RetryPolicy.exponential(adaptive=True).adaptive is True
