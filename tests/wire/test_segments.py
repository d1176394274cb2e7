"""Unit tests for zero-copy wire messages (``repro.wire.segments``).

A :class:`WireMessage` must be indistinguishable from the contiguous
byte stream it stands for: same honest length, same decodable image,
and — because a remembered reply outlives the call that built it —
stable even when the caller later mutates a payload it handed in.
"""

from __future__ import annotations

from repro.wire.frames import Frame, ONEWAY
from repro.wire.marshal import Marshaller, RAW_THRESHOLD
from repro.wire.segments import WireMessage


def _bulk_frame(payload):
    return Frame(ONEWAY, 7, "c0/main", "s0/main", target="sink",
                 verb="accept", body=((payload,), {}))


class TestWireMessage:
    def test_len_reports_honest_wire_size(self):
        head = b"head-with-marker"
        msg = WireMessage(head, ((4, b"AAAA"), (9, b"BB")),
                          len(head) + 6)
        assert len(msg) == len(head) + 6

    def test_to_bytes_splices_segments_at_offsets(self):
        # Offsets name the splice point *after* each marker.
        head = b"ab<>cd"
        msg = WireMessage(head, ((2, b"XX"), (4, b"Y")), len(head) + 3)
        assert msg.to_bytes() == b"abXX<>Ycd"

    def test_to_bytes_without_segments_is_the_head(self):
        msg = WireMessage(b"plain", (), 5)
        assert msg.to_bytes() is msg.head

    def test_freeze_is_identity_for_immutable_segments(self):
        msg = WireMessage(b"h", ((1, b"pay"),), 4)
        assert msg.freeze() is msg

    def test_freeze_snapshots_mutable_segments(self):
        owned = bytearray(b"live")
        msg = WireMessage(b"h", ((1, owned),), 5)
        frozen = msg.freeze()
        assert frozen is not msg
        owned[:] = b"DEAD"  # the caller mutates after the snapshot
        assert frozen.to_bytes() == b"hlive"
        assert msg.to_bytes() == b"hDEAD"  # unfrozen view tracks the owner

    def test_freeze_preserves_carried_tuple(self):
        carried = ("one", 7, "a", "b", "t", "v", (), False)
        msg = WireMessage(b"h", ((1, bytearray(b"x")),), 2, carried)
        assert msg.freeze().carried is carried


class TestEncodedMessages:
    # A ``bytes`` payload in a pure frame is sized, not written; a
    # ``bytearray`` one is written, so it exercises the segment path.

    def test_bulk_payload_rides_as_uncopied_segment(self):
        blob = bytearray(b"\x5a" * (RAW_THRESHOLD * 2))
        msg = _bulk_frame(blob).encode_message(Marshaller())
        payloads = [payload for _, payload in msg.segments]
        assert any(payload is blob for payload in payloads)

    def test_nbytes_matches_the_legacy_inline_encoding(self):
        blob = b"\x42" * (RAW_THRESHOLD + 100)
        frame = _bulk_frame(blob)
        assert len(frame.encode_message(Marshaller())) \
            == len(frame.encode(Marshaller()))

    def test_contiguous_image_decodes_with_the_plain_decoder(self):
        blob = bytes(range(256)) * 64  # ≥ threshold, non-trivial content
        frame = _bulk_frame(blob)
        image = frame.encode_message(Marshaller()).to_bytes()
        decoded = Frame.decode(image, Marshaller())
        assert decoded.body == ((blob,), {})
        assert (decoded.kind, decoded.msg_id, decoded.verb) \
            == (frame.kind, frame.msg_id, frame.verb)

    def test_small_payloads_stay_inline(self):
        msg = _bulk_frame(bytearray(b"tiny")).encode_message(Marshaller())
        assert msg.segments == ()
        assert msg.to_bytes() == msg.head

    def test_memoryview_slice_flows_without_copy(self):
        backing = bytes(RAW_THRESHOLD * 3)
        view = memoryview(backing)[RAW_THRESHOLD:RAW_THRESHOLD * 2]
        msg = _bulk_frame(view).encode_message(Marshaller())
        assert any(payload is view for _, payload in msg.segments)
        decoded = Frame.decode_message(msg, Marshaller())
        assert bytes(decoded.body[0][0]) == bytes(view)
