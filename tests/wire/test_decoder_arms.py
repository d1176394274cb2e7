"""The decoder, arm by arm: every tag decodes whole and refuses every cut.

The decoder is one recursive walk with one arm per tag.  Generated values
reach each arm — ``None``/``bool``, i64 and big ints, floats, non-ASCII
strings, bytes, ``ObjectRef``, lists, tuples, dicts, sets and frozensets,
nested — and frames carry bulk ``bytes`` leaves of 4 KiB, written
inline in the contiguous image.  For each:

* the whole image decodes to the value, **exact types at every depth**;
* every proper prefix, and the image plus one byte, is refused with
  :class:`MarshalError` or :class:`ProtocolError` through ``PLAIN.decode``,
  ``Frame.decode`` and ``Frame.decode_message`` — nothing else escapes
  (no ``IndexError``, ``struct.error`` or ``RecursionError``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import MarshalError, ProtocolError
from repro.wire.frames import REPLY, Frame
from repro.wire.marshal import PLAIN, Marshaller
from repro.wire.refs import ObjectRef

from test_carried_equivalence import typed, typed_frame

_text = st.one_of(st.text(max_size=6),
                  st.text(st.characters(min_codepoint=0x80, codec="utf-8"),
                          max_size=4))
_ints = st.one_of(st.integers(-2**40, 2**40),
                  st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1]),
                  st.integers(-2**200, 2**200))
_refs = st.builds(ObjectRef, _text, _text, _text,
                  st.integers(-2**63, 2**63 - 1), _text)
_hashable = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(), _text,
              st.binary(max_size=6), _refs),
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3)),
    max_leaves=6)
_values = st.recursive(
    _hashable,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_hashable, inner, max_size=3),
        st.sets(_hashable, max_size=3),
        st.frozensets(_hashable, max_size=3)),
    max_leaves=12)


def _refused(decode, data) -> None:
    try:
        decode(data)
    except (MarshalError, ProtocolError):
        return
    raise AssertionError(f"{len(data)}-byte cut was accepted")


def _cuts(image: bytes):
    """Every proper prefix, and the image plus one byte."""
    yield from (image[:n] for n in range(len(image)))
    yield image + b"\x00"


@settings(max_examples=200, deadline=None)
@given(value=_values)
def test_a_value_decodes_whole_and_refuses_every_cut(value):
    image = PLAIN.encode(value)
    assert typed(PLAIN.decode(image)) == typed(value)
    for cut in _cuts(image):
        _refused(PLAIN.decode, cut)


def _check_frame(body, headers) -> None:
    m = Marshaller()
    frame = Frame(REPLY, 7, "s0/main", "c0/main", "", "", body, headers)
    expected = typed_frame(frame)
    msg = frame.encode_message(m)
    image = msg.to_bytes()      # a sized message's image is written now
    assert len(image) == msg.nbytes
    assert typed_frame(Frame.decode_message(msg, m)) == expected
    assert typed_frame(Frame.decode(image, m)) == expected
    assert typed_frame(Frame.decode_message(image, m)) == expected
    for cut in _cuts(image):
        _refused(lambda data: Frame.decode(data, m), cut)
        _refused(lambda data: Frame.decode_message(data, m), cut)
        _refused(PLAIN.decode, cut)


@settings(max_examples=60, deadline=None)
@given(body=_values, headers=st.dictionaries(_text, _values, max_size=2))
def test_a_frame_decodes_whole_and_refuses_every_cut(body, headers):
    _check_frame(body, headers)


# Fewer examples: a bulk image has over 4096 prefixes to refuse (the bulk
# leaf goes first, so a cut inside it is refused before the value).
@settings(max_examples=10, deadline=None)
@given(value=_values, in_headers=st.booleans())
def test_a_raw_segment_decodes_whole_and_refuses_every_cut(value,
                                                            in_headers):
    bulk = b"\x5a" * 4096
    # A set is not plain data, so the frame is written, its bulk leaf
    # inline (a plain frame is sized, not written).
    odd = frozenset({1})
    if in_headers:
        _check_frame(None, {"s.k": [bulk, value], "n": odd})
    else:
        _check_frame((bulk, value, odd), {})
