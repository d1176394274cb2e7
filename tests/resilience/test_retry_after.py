"""Tests: the client RetryPolicy honors server retry-after hints.

A shed call carries the absolute virtual time at which the server expects
to have room (``K_OVERLOAD`` header).  An honoring client waits *exactly*
that long — not its backoff schedule — and retransmits; the hint composes
with deadlines (no point waiting past one) and with the attempts budget.
"""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.kernel.admission import install_admission
from repro.kernel.errors import Overloaded, ProtocolError
from repro.naming.bootstrap import bind, install_name_service, register
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy


def _shedding_system(seed=11, rate=1.0, burst=1.0):
    """One server whose bucket admits exactly one call, then sheds for
    ``1/rate`` seconds; alice spends the token, bob gets the hint."""
    system = repro.make_system(seed=seed)
    server = system.add_node("server").create_context("main")
    alice = system.add_node("alice").create_context("main")
    bob = system.add_node("bob").create_context("main")
    install_name_service(server)
    register(server, "kv", KVStore())
    kv_a, kv_b = bind(alice, "kv"), bind(bob, "kv")
    install_admission(server.node, rate=rate, burst=burst)
    return system, alice, bob, kv_a, kv_b


def _hint_for(seed=11):
    """The hint bob's first call is shed with (read via a no-wait run)."""
    system, alice, bob, kv_a, kv_b = _shedding_system(seed=seed)
    system.rpc.retry_policy = RetryPolicy(attempts=1)
    kv_a.put("x", 1)
    with pytest.raises(Overloaded) as err:
        kv_b.put("x", 2)
    return err.value.retry_after


class TestRetryAfter:
    def test_hint_is_waited_exactly_not_backoff(self):
        # Same seed twice: first run reads the hint the server will give,
        # second run lets the client honor it.
        hint = _hint_for(seed=11)
        assert hint is not None and hint > 0.5, \
            "a 1-token/s bucket hints roughly one second out"
        system, alice, bob, kv_a, kv_b = _shedding_system(seed=11)
        kv_a.put("x", 1)
        kv_b.put("x", 2)    # shed once, then honored and retransmitted
        assert system.rpc.stats["overload_sheds"] == 1
        assert system.rpc.stats["retry_after_waits"] == 1
        # The client resumed at the hint, then paid one more round trip —
        # nowhere near the backoff schedule's sub-hint pacing.
        assert bob.clock.now >= hint
        assert bob.clock.now - hint < 0.05, \
            "the wait is the hinted virtual duration, not backoff"
        assert kv_a.get("x") == 2, "the honored retransmission executed"

    def test_hint_beyond_deadline_abandons_immediately(self):
        system, alice, bob, kv_a, kv_b = _shedding_system(seed=11)
        kv_a.put("x", 1)
        invoke = bob.clock.now
        deadline = Deadline.after(invoke, 0.05)   # expires before the hint
        with pytest.raises(Overloaded) as err:
            kv_b.proxy_remote("put", ("x", 2), {},
                              retry=RetryPolicy(attempts=4),
                              deadline=deadline)
        assert err.value.retry_after is not None
        assert err.value.retry_after >= deadline.expires_at
        assert bob.clock.now < err.value.retry_after, \
            "no waiting toward a hint the deadline forbids"
        assert system.rpc.stats["retry_after_waits"] == 0

    def test_attempts_budget_caps_honored_waits(self):
        # burst=1, rate=1: every other call sheds.  attempts=2 allows one
        # honored wait per call, so every call eventually lands.
        system, alice, bob, kv_a, kv_b = _shedding_system(seed=11)
        system.rpc.retry_policy = RetryPolicy(attempts=2)
        for value in range(4):
            kv_b.put("k", value)
        assert kv_b.get("k") == 3

    @pytest.mark.parametrize("hint", ["soon", True, float("nan"), [1.0]],
                             ids=["text", "bool", "nan", "list"])
    def test_a_forged_hint_is_a_protocol_error(self, monkeypatch, hint):
        # Regression: "soon" escaped as a TypeError from the clock, and
        # True was waited as virtual time 1.0.
        system, alice, bob, kv_a, kv_b = _shedding_system(seed=11)
        admission = system.context(kv_b.proxy_ref.context_id).node.admission
        monkeypatch.setattr(admission, "admit", lambda target, now: hint)
        with pytest.raises(ProtocolError, match="o.ra"):
            kv_b.put("x", 2)
        assert system.rpc.stats["retry_after_waits"] == 0
