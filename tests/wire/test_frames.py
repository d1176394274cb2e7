"""Unit tests for message frames."""

import pytest

from repro.kernel.errors import ProtocolError
from repro.wire.frames import (
    EXCEPTION,
    ONEWAY,
    REPLY,
    REQUEST,
    Frame,
)
from repro.wire.marshal import PLAIN, memo_stats


class TestFrame:
    def test_request_roundtrip(self):
        frame = Frame(REQUEST, 7, "a/m", "b/m", target="b/m:0", verb="get",
                      body=(("key",), {}), headers={"h": 1})
        back = Frame.decode(frame.encode(PLAIN), PLAIN)
        assert back.kind == REQUEST
        assert back.msg_id == 7
        assert back.src == "a/m"
        assert back.dst == "b/m"
        assert back.target == "b/m:0"
        assert back.verb == "get"
        assert back.body == (("key",), {})
        assert back.headers == {"h": 1}

    def test_oneway_roundtrip(self):
        frame = Frame(ONEWAY, 1, "a/m", "b/m", target="t", verb="notify",
                      body=((), {}))
        assert Frame.decode(frame.encode(PLAIN), PLAIN).kind == ONEWAY

    def test_bad_kind_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            Frame("bogus", 1, "a", "b").encode(PLAIN)

    def test_malformed_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            Frame.decode(PLAIN.encode([1, 2, 3]), PLAIN)

    def test_bad_kind_rejected_on_decode(self):
        data = PLAIN.encode(["nah", 1, "a", "b", "", "", None, {}])
        with pytest.raises(ProtocolError):
            Frame.decode(data, PLAIN)


class TestReplyValue:
    """A pure successful reply, and an envelope reply, reach their caller
    (``RpcProtocol.call``, which reads them) without a frame; every other
    message is delivered as one."""

    def test_a_pure_reply_is_its_value_and_is_counted_carried(
            self, caller_reads):
        msg = PLAIN.encode_frame_message(REPLY, 3, "b/m", "a/m", "", "",
                                         ("r", 1), {})
        before = memo_stats()["frames_carried"]
        assert caller_reads(msg) == (("r", 1), False)
        assert memo_stats()["frames_carried"] == before + 1

    def test_an_envelope_reply_reaches_the_caller_without_a_frame(
            self, caller_reads):
        wrapper = {"q.v": 2, "q.val": ("v", 1), "q.tl": (1, 0)}
        msg = PLAIN.encode_frame_message(REPLY, 3, "b/m", "a/m", "", "",
                                         wrapper, {})
        before = memo_stats()["frames_carried"]
        first, framed = caller_reads(msg)
        assert not framed
        assert first == wrapper and first.__class__ is dict
        assert first is not wrapper
        assert memo_stats()["frames_carried"] == before + 1
        # Each delivery is its own dict.
        assert caller_reads(msg)[0] is not first

    @pytest.mark.parametrize("kind, body", [
        (REPLY, ["plain", {"n": 1}]),             # plain: copied per delivery
        (REPLY, {"w": [1]}),                      # a dict, not pure
        (REPLY, ((1,), {})),                      # a pure pair
        (REPLY, bytearray(70000)),                # mutable bulk: written
        (EXCEPTION, ("KeyError", "k", None)),
        (REQUEST, (("k",), {})),
    ])
    def test_anything_else_is_framed(self, caller_reads, kind, body):
        msg = PLAIN.encode_frame_message(kind, 3, "b/m", "a/m", "", "",
                                         body, {})
        before = memo_stats()
        assert caller_reads(msg)[1]
        after = memo_stats()
        # Counted once, by the frame's reader: the caller's own read of a
        # reply it then has framed adds nothing.
        carried = msg.carried is not None
        assert after["frames_carried"] - before["frames_carried"] == carried
        assert after["frames_decoded"] - before["frames_decoded"] == (
            not carried)
