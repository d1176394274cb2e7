"""Steady-state traffic of every shipped policy is sized, never written.

The carry pays only while every envelope key and reply wrapper a policy
puts on the wire stays *plain data*.  This pins it: deploy each shipped
policy that serves the KV store (all but the two bank ones) fault-free,
exactly as the battery and the benchmark do, let the bind handshake and
the warm-up operations pass (``describe`` replies hold references — the
frames claim 5 is about), then drive 60 operations and require that
**no** frame is written (no message has a ``head``) and none is decoded
for real.
An envelope key that one day carries a set, a subclass or a reference is
noticed here, by tier-1, not by the next performance ledger.
"""

from __future__ import annotations

import pytest

from repro.simtest.runner import SimCase
from repro.simtest.workload import BANK_POLICIES, SHIPPED_POLICIES, deploy
from repro.wire.frames import Frame
from repro.wire.marshal import Marshaller, clear_memos, memo_stats

OPS = 60
KEYS = ("k0", "k1", "k2", "k3")

#: Policies whose every remote call carries a ``q.*``/``s.*`` envelope
#: (the others here send pure frames and plain-bodied ones only).
HEADERED = ("replicated", "regional", "sharded")


@pytest.fixture
def sent(monkeypatch):
    """Every outbound frame, with the message it was encoded into.  Every
    frame crosses the marshaller, a successful reply encoded from its
    fields included."""
    seen = []
    encode = Marshaller.encode_frame_message

    def watched(self, *fields):
        data = encode(self, *fields)
        seen.append((Frame(*fields), data))
        return data

    monkeypatch.setattr(Marshaller, "encode_frame_message", watched)
    return seen


@pytest.mark.parametrize(
    "policy", [p for p in SHIPPED_POLICIES if p not in BANK_POLICIES])
def test_no_steady_state_frame_is_decoded_for_real(policy, sent):
    clear_memos()
    deployment = deploy(SimCase(seed=5, policy=policy, service="kv",
                                ops=OPS, clients=2, faults=()))
    (_, _, proxy), (_, _, other) = deployment.clients
    proxy.put("k0", 0)
    proxy.get("k0")
    other.get("k0")
    before = memo_stats()
    del sent[:]
    model = {"k0": 0}
    for index in range(OPS):
        key = KEYS[index % len(KEYS)]
        client = other if index % 7 == 3 else proxy
        if index % 5 == 0:
            assert client.put(key, [index, {"n": index}]) is True
            model[key] = [index, {"n": index}]
        else:
            assert client.get(key) == model.get(key)
    after = memo_stats()
    moved = {key: after[key] - before[key]
             for key in ("frames_carried", "frames_decoded")}
    assert moved["frames_decoded"] == 0, moved
    assert moved["frames_carried"] > 0, moved
    # The fixture watched real traffic, not an empty set; none of it was
    # written.
    assert len(sent) > OPS
    assert [frame for frame, data in sent if data.head is not None] == []
    assert any(frame.headers for frame, _ in sent) is (policy in HEADERED)
