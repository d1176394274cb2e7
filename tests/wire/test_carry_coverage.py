"""Steady-state traffic of every shipped policy is carried, not decoded.

The carried decode pays only while every envelope key and reply wrapper a
policy puts on the wire stays *plain data*.  This pins it: deploy each
shipped policy that serves the KV store (all but the two bank ones)
fault-free, exactly as the battery and the benchmark do, let the bind
handshake and the warm-up operations pass
(``describe`` replies hold references — the frames claim 5 is about), then
drive 60 operations and require that **no** frame is decoded for real and
that no frame with headers or a mutable body ever minted a frame template
(no template is keyed on envelope values).
An envelope key that one day carries a set, a subclass or a reference is
noticed here, by tier-1, not by the next performance ledger.

New in this PR (``frames_carried`` / ``frames_decoded`` did not exist at
the parent, where every enveloped frame was decoded).
"""

from __future__ import annotations

import pytest

from repro.metrics import marshal_memo_stats
from repro.rpc.transport import Transport
from repro.simtest.runner import SimCase
from repro.simtest.workload import BANK_POLICIES, SHIPPED_POLICIES, deploy
from repro.wire.marshal import _typed_key, clear_memos

OPS = 60
KEYS = ("k0", "k1", "k2", "k3")

#: Policies whose every remote call carries a ``q.*``/``s.*`` envelope
#: (the others here send reply wrappers and mutable-bodied frames only).
HEADERED = ("replicated", "regional", "sharded")


def _is_pure(frame) -> bool:
    body = frame.body
    if frame.kind in ("req", "one") and body[1] == {}:
        body = body[0]
    return not frame.headers and _typed_key(body) is not None


@pytest.fixture
def impure_frames(monkeypatch):
    """Every outbound frame that is not pure, checked as it is encoded:
    it must leave the template memo as it found it."""
    seen = []
    encode_frame = Transport.encode_frame

    def watched(self, frame, src_ctx=None):
        pure = _is_pure(frame)
        size = marshal_memo_stats()["tmpl_size"]
        data = encode_frame(self, frame, src_ctx)
        if not pure:
            assert marshal_memo_stats()["tmpl_size"] == size, frame
            seen.append(frame)
        return data

    monkeypatch.setattr(Transport, "encode_frame", watched)
    return seen


@pytest.mark.parametrize(
    "policy", [p for p in SHIPPED_POLICIES if p not in BANK_POLICIES])
def test_no_steady_state_frame_is_decoded_for_real(policy, impure_frames):
    clear_memos()
    deployment = deploy(SimCase(seed=5, policy=policy, service="kv",
                                ops=OPS, clients=2, faults=()))
    (_, _, proxy), (_, _, other) = deployment.clients
    proxy.put("k0", 0)
    proxy.get("k0")
    other.get("k0")
    before = marshal_memo_stats()
    del impure_frames[:]
    model = {"k0": 0}
    for index in range(OPS):
        key = KEYS[index % len(KEYS)]
        client = other if index % 7 == 3 else proxy
        if index % 5 == 0:
            assert client.put(key, [index, {"n": index}]) is True
            model[key] = [index, {"n": index}]
        else:
            assert client.get(key) == model.get(key)
    after = marshal_memo_stats()
    moved = {key: after[key] - before[key]
             for key in ("frames_carried", "frames_decoded")}
    assert moved["frames_decoded"] == 0, moved
    assert moved["frames_carried"] > 0, moved
    # The fixture watched real enveloped traffic, not an empty set.
    assert len(impure_frames) > OPS // 2
    assert any(frame.headers for frame in impure_frames) \
        is (policy in HEADERED)
