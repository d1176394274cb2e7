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
from repro.wire.marshal import PLAIN


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

    def test_reply_to_swaps_endpoints_and_keeps_id(self):
        request = Frame(REQUEST, 3, "a/m", "b/m", verb="op")
        reply = request.reply_to("result")
        assert reply.kind == REPLY
        assert reply.msg_id == 3
        assert reply.src == "b/m"
        assert reply.dst == "a/m"
        assert reply.body == "result"

    def test_exception_to(self):
        request = Frame(REQUEST, 3, "a/m", "b/m", verb="op")
        exc = request.exception_to("KeyError", "nope", detail=(1, 2))
        assert exc.kind == EXCEPTION
        assert exc.body == ("KeyError", "nope", (1, 2))

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
