"""Unit tests for wire messages (``repro.wire.marshal.WireMessage``).

A :class:`WireMessage` must be indistinguishable from the contiguous
byte stream it stands for: same honest length and same decodable image,
whether the frame was written or only sized.
"""

from __future__ import annotations

from repro.wire.frames import Frame, ONEWAY
from repro.wire.marshal import Marshaller, WireMessage

#: A bulk payload size: 4 KiB, where a ``bytes`` body is still carried.
BULK = 4096


def _bulk_frame(payload):
    return Frame(ONEWAY, 7, "c0/main", "s0/main", target="sink",
                 verb="accept", body=((payload,), {}))


class TestWireMessage:
    def test_len_reports_honest_wire_size(self):
        head = b"head"
        assert len(WireMessage(head, len(head))) == len(head)
        sized = _bulk_frame(b"x").encode_message(Marshaller())
        assert sized.head is None
        assert len(sized) == len(sized.to_bytes())

    def test_to_bytes_without_segments_is_the_head(self):
        msg = WireMessage(b"plain", 5)
        assert msg.to_bytes() is msg.head


class TestEncodedMessages:
    # A ``bytes`` payload in a pure frame is sized, not written; a
    # ``bytearray`` or ``memoryview`` one is written, inline in the image.

    def test_small_payloads_stay_inline(self):
        msg = _bulk_frame(bytearray(b"tiny")).encode_message(Marshaller())
        assert msg.carried is None
        assert msg.to_bytes() is msg.head
        assert len(msg) == len(msg.head)

    def test_memoryview_slice_is_written_inline(self):
        view = memoryview(bytes(range(256)) * 48)[BULK:BULK * 2]
        frame = _bulk_frame(view)
        msg = frame.encode_message(Marshaller())
        assert msg.carried is None
        assert msg.to_bytes() == frame.encode(Marshaller())
        decoded = Frame.decode_message(msg, Marshaller())
        assert decoded.body == ((bytes(view),), {})

    def test_nbytes_matches_the_legacy_inline_encoding(self):
        blob = b"\x42" * (BULK + 100)
        frame = _bulk_frame(blob)
        assert len(frame.encode_message(Marshaller())) \
            == len(frame.encode(Marshaller()))

    def test_contiguous_image_decodes_with_the_plain_decoder(self):
        blob = bytes(range(256)) * 64  # bulk, non-trivial content
        frame = _bulk_frame(blob)
        image = frame.encode_message(Marshaller()).to_bytes()
        decoded = Frame.decode(image, Marshaller())
        assert decoded.body == ((blob,), {})
        assert (decoded.kind, decoded.msg_id, decoded.verb) \
            == (frame.kind, frame.msg_id, frame.verb)
