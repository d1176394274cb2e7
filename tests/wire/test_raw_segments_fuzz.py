"""Hypothesis round-trip fuzz: bulk payloads and multi-reply frames.

The naive reference encoder (``test_marshal_fastpath.naive_encode``) is
the executable wire specification.  The message path must relate to it
exactly as designed:

* payload bytes of any size, below and above 4 KiB — the message's
  contiguous image is byte-identical to the reference encoding, and the
  frame round-trips losslessly through both decode paths;
* swizzle hooks keep falling through: exact-built-in payloads are hook
  exempt on both paths, marker classes swizzle identically on both.

Multi-reply (``mrp``) frames are plain frames whose body is a tuple of
``(wire_image, arrive)`` pairs; they must round-trip through both codecs
and match the reference encoder byte for byte on the legacy path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire.frames import Frame, MREPLY, ONEWAY, REQUEST
from repro.wire.marshal import Marshaller

from test_marshal_fastpath import (
    Exportable,
    _object_space_hook,
    naive_encode,
)

#: A bulk payload size (4 KiB).
BULK = 4096

# Small sizes, sizes straddling 4 KiB, and bulk ones.
_SMALL = st.integers(min_value=0, max_value=64)
_NEAR = st.integers(min_value=BULK - 2, max_value=BULK + 2)
_BULK = st.integers(min_value=BULK, max_value=BULK * 4)
_ANY_SIZE = st.one_of(_SMALL, _NEAR, _BULK)

_payload_bytes = _ANY_SIZE.flatmap(
    lambda n: st.binary(min_size=n, max_size=n))

_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False), st.text(max_size=12), _payload_bytes)

_body_value = st.recursive(
    _scalar,
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=3),
        st.tuples(leaf, leaf),
        st.dictionaries(st.text(max_size=6), leaf, max_size=3)),
    max_leaves=8)


def _fields(frame: Frame) -> list:
    return [frame.kind, frame.msg_id, frame.src, frame.dst,
            frame.target, frame.verb, frame.body, frame.headers]


def _image(msg) -> bytes:
    """Contiguous wire image of an ``encode_message`` result — which is
    plain bytes already whenever the fast path had nothing to add."""
    return msg if msg.__class__ is bytes else msg.to_bytes()


@settings(max_examples=150, deadline=None)
@given(args=st.lists(_body_value, max_size=3), msg_id=st.integers(0, 2**31))
def test_message_path_vs_reference_encoder(args, msg_id):
    frame = Frame(REQUEST, msg_id, "c0/main", "s0/main", target="svc",
                  verb="op", body=(tuple(args), {}))
    reference = naive_encode(_fields(frame))
    msg = frame.encode_message(Marshaller())
    image = _image(msg)
    # The honest length always matches the reference encoding.
    assert len(msg) == len(reference)
    assert image == reference
    # Lossless through the message decoder…
    direct = Frame.decode_message(msg, Marshaller())
    assert direct.body == frame.body
    assert _fields(direct)[:6] == _fields(frame)[:6]
    # …and through the plain byte-stream decoder on the image.
    assert Frame.decode(image, Marshaller()).body == frame.body


@settings(max_examples=60, deadline=None)
@given(size=st.one_of(_NEAR, _BULK), oid=st.integers(0, 8))
def test_hook_fall_through_straddles_the_threshold(size, oid):
    # A swizzled export next to a bulk payload: the hook must fire for
    # the marker class and stay exempt for the exact-bytes payload on
    # both the reference and the carried path.  The body is carried with
    # its reference, so the blob arrives as the same object and the
    # image the message writes is the reference encoding at any size.
    blob = b"\xa5" * size
    body = ((blob, Exportable(f"oid{oid}")), {})
    frame = Frame(ONEWAY, 5, "c0/main", "s0/main", target="svc",
                  verb="op", body=body)
    hooked = Marshaller(encoder_hook=_object_space_hook)
    swizzled = ((blob, _object_space_hook(Exportable(f"oid{oid}"))), {})
    reference = naive_encode(
        [frame.kind, frame.msg_id, frame.src, frame.dst, frame.target,
         frame.verb, swizzled, {}])
    msg = frame.encode_message(hooked)
    assert len(msg) == len(reference)
    decoded = Frame.decode_message(msg, Marshaller())
    assert decoded.body == swizzled
    assert decoded.body[0][0] is blob
    assert _image(msg) == reference
    assert Frame.decode(_image(msg), Marshaller()).body == swizzled


@settings(max_examples=80, deadline=None)
@given(subs=st.lists(
    st.tuples(st.binary(max_size=200),
              st.floats(min_value=0, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=5))
def test_multi_reply_frames_round_trip(subs):
    subs = tuple(subs)
    frame = Frame(MREPLY, 0, "s0/main", "c0", body=subs)
    legacy = frame.encode(Marshaller())
    assert legacy == naive_encode(_fields(frame))
    back = Frame.decode(legacy, Marshaller())
    assert back.kind == MREPLY
    assert back.body == subs
    # The message path agrees with itself and with the legacy length.
    msg = frame.encode_message(Marshaller())
    assert len(msg) == len(legacy)
    again = Frame.decode_message(msg, Marshaller())
    assert again.body == subs


@settings(max_examples=40, deadline=None)
@given(inner_size=st.one_of(_SMALL, _BULK),
       arrive=st.floats(min_value=0, max_value=100, allow_nan=False))
def test_multi_reply_carrying_bulk_sub_images(inner_size, arrive):
    # A batched sub-frame's contiguous image, bulk or small, must
    # survive the batch round-trip untouched, so the receiver replays
    # the exact bytes.
    inner = Frame(ONEWAY, 3, "s0/main", "c0/main", target="cb",
                  verb="notify", body=((b"\x7e" * inner_size,), {}))
    image = _image(inner.encode_message(Marshaller()))
    batch = Frame(MREPLY, 0, "s0/main", "c0", body=((image, arrive),))
    back = Frame.decode(batch.encode(Marshaller()), Marshaller())
    (carried_image, carried_arrive), = back.body
    assert carried_image == image
    assert carried_arrive == arrive
    replayed = Frame.decode(carried_image, Marshaller())
    assert replayed.body == inner.body
