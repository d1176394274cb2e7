"""The call budget: Python-level calls one warm ``get`` makes, counted
exactly (``sys.setprofile`` ``"call"`` events; C calls are not counted).

Fails at the parent of the PR that added it (stub 89, replicated 255,
sharded 119): a property, a forwarding method or a generated constructor
in front of a value fixed at construction is a call that does no work.
"""

import sys

import pytest

from repro.simtest.runner import SimCase
from repro.simtest.workload import deploy

# Lower a budget when the count falls; never raise one without a line in
# DESIGN.md ("The shell ledger") saying what the extra calls bought.
# 3.12+ inlines comprehensions, so a count can only be lower there.
BUDGET = {"stub": 63, "replicated": 203, "sharded": 92}

#: Frames that stand in front of a value fixed at construction.
BANNED = {"context_id", "_feed_breaker", "_accept", "encoder_for",
          "decoder_for", "<lambda>"}


def _warm_get_calls(policy):
    """Eight readings of the code names called by one warm ``get``."""
    deployment = deploy(SimCase(seed=5, policy=policy, service="kv", ops=8,
                                clients=1, faults=()))
    (_, _, proxy), = deployment.clients
    proxy.put("k0", 0)
    proxy.get("k0")
    readings = []
    for _ in range(8):
        names = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            proxy.get("k0")
        finally:
            sys.setprofile(previous)
        readings.append(names)
    return readings


@pytest.mark.parametrize("policy", sorted(BUDGET))
def test_a_warm_get_stays_within_its_call_budget(policy):
    readings = _warm_get_calls(policy)
    counts = {len(names) for names in readings}
    assert len(counts) == 1, counts
    assert counts.pop() <= BUDGET[policy]


def test_the_plain_path_calls_nothing_that_computes_nothing():
    for names in _warm_get_calls("stub"):
        assert not BANNED.intersection(names), sorted(names)
