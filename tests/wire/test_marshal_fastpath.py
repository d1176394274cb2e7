"""Byte-identity fuzz: the Marshaller's encoder vs the naive reference.

The Marshaller's encoder (hook exemption, the string memo, the 8-field
frame encoder) must not change the format: its output must be
byte-for-byte what the original naive encoder produced.  This test keeps
that naive encoder alive — a hook-first ``isinstance`` chain, transcribed
from the original implementation — and fuzzes both over the full
supported type space, with and without swizzle hooks.

The one deliberate semantic refinement is hook exemption: the encoder
never consults the encoder hook for values of an exact built-in type,
because the object-space hook declines plain data by definition.  The fuzz
therefore uses hooks with that shape (swizzle a marker class, decline
everything else), which is the only shape the system installs.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.wire.marshal import PLAIN, Marshaller
from repro.wire.refs import ObjectRef

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class Exportable:
    """Stands in for an object-space export: hooks swizzle it to a ref."""

    def __init__(self, oid: str):
        self.oid = oid


def _object_space_hook(value):
    """The realistic hook shape: swizzle exports, decline plain data."""
    if isinstance(value, Exportable):
        return ObjectRef("n0/main", value.oid, "IThing", 0, "stub")
    return None


def naive_encode(value, hook=None) -> bytes:
    """The reference encoder: hook first, then the isinstance chain.

    A transcription of the original (pre-fast-path) ``_encode_into``; kept
    here so the wire format has an executable specification independent of
    the optimised implementation.
    """
    out = bytearray()
    _naive_into(value, out, hook)
    return bytes(out)


def _naive_into(value, out: bytearray, hook) -> None:
    if hook is not None:
        replacement = hook(value)
        if replacement is not None and replacement is not value:
            value = replacement
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            out += b"i" + _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                                 "big", signed=True)
            out += b"I" + _U32.pack(len(raw)) + raw
    elif isinstance(value, float):
        out += b"f" + _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _U32.pack(len(raw)) + raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += b"b" + _U32.pack(len(raw)) + raw
    elif isinstance(value, ObjectRef):
        out += b"R"
        for field in (value.context_id, value.oid, value.interface,
                      value.policy):
            raw = field.encode("utf-8")
            out += _U32.pack(len(raw)) + raw
        out += _I64.pack(value.epoch)
    elif isinstance(value, list):
        out += b"l" + _U32.pack(len(value))
        for item in value:
            _naive_into(item, out, hook)
    elif isinstance(value, tuple):
        out += b"t" + _U32.pack(len(value))
        for item in value:
            _naive_into(item, out, hook)
    elif isinstance(value, dict):
        out += b"d" + _U32.pack(len(value))
        for key, val in value.items():
            _naive_into(key, out, hook)
            _naive_into(val, out, hook)
    elif isinstance(value, frozenset):
        out += b"Z" + _U32.pack(len(value))
        for item in sorted(value, key=repr):
            _naive_into(item, out, hook)
    elif isinstance(value, set):
        out += b"S" + _U32.pack(len(value))
        for item in sorted(value, key=repr):
            _naive_into(item, out, hook)
    else:
        raise AssertionError(f"naive encoder got {type(value).__name__}")


# -- fuzz value generator ------------------------------------------------------

_WORDS = ("get", "put", "kv", "n0/main", "k0", "", "motd",
          "über-schlüssel", "x" * 63, "y" * 64, "z" * 200)


def _scalar(rng: random.Random):
    pick = rng.randrange(9)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randrange(-100, 100)
    if pick == 3:  # i64 boundary and bigint territory
        return rng.choice((2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
                           2**200 + rng.randrange(1000)))
    if pick == 4:
        return rng.choice((0.0, -0.0, 1.5, -2.25e300, 1e-300,
                           float("inf"), float("-inf")))
    if pick == 5:
        return rng.choice(_WORDS)
    if pick == 6:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    if pick == 7:
        return ObjectRef(f"n{rng.randrange(3)}/main", f"oid{rng.randrange(9)}",
                         "IThing", rng.randrange(4), "caching")
    return rng.randrange(-100, 100)


def _value(rng: random.Random, depth: int, with_exports: bool):
    if depth <= 0 or rng.random() < 0.5:
        if with_exports and rng.random() < 0.15:
            return Exportable(f"oid{rng.randrange(9)}")
        return _scalar(rng)
    pick = rng.randrange(5)
    size = rng.randrange(4)
    if pick == 0:
        return [_value(rng, depth - 1, with_exports) for _ in range(size)]
    if pick == 1:
        return tuple(_value(rng, depth - 1, with_exports)
                     for _ in range(size))
    if pick == 2:
        return {rng.choice(_WORDS) if rng.random() < 0.8
                else rng.randrange(100): _value(rng, depth - 1, with_exports)
                for _ in range(size)}
    # Set elements must be hashable: scalars only.
    items = [_scalar(rng) for _ in range(size)]
    return (set(items) if pick == 3 else frozenset(items))


def test_fuzz_byte_identity_hook_free():
    rng = random.Random(0xE18)
    fast = Marshaller()
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=False)
        assert fast.encode(value) == naive_encode(value)


def test_fuzz_byte_identity_with_swizzle_hook():
    rng = random.Random(0xE18 + 1)
    fast = Marshaller(encoder_hook=_object_space_hook)
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=True)
        assert fast.encode(value) == naive_encode(value,
                                                  hook=_object_space_hook)


def test_fuzz_round_trip():
    rng = random.Random(0xE18 + 2)
    for _ in range(400):
        value = _value(rng, depth=3, with_exports=False)
        assert PLAIN.decode(PLAIN.encode(value)) == value


def test_long_strings_bypass_memo_but_stay_identical():
    # 64 chars is the memo ceiling; 65+ must take the uncached path and
    # still produce the same bytes (and round-trip).
    for text in ("a" * 64, "b" * 65, "ü" * 64, "c" * 5000):
        assert PLAIN.encode(text) == naive_encode(text)
        assert PLAIN.decode(PLAIN.encode(text)) == text


def test_subclasses_fall_through_to_hooks():
    # An int subclass is NOT hook-exempt: the fast table claims exact types
    # only, so the hook still sees it and may swizzle it.
    class TaggedInt(int):
        pass

    def hook(value):
        if type(value) is TaggedInt:
            return ObjectRef("n0/main", "swizzled", "IThing", 0, "stub")
        return None

    fast = Marshaller(encoder_hook=hook)
    assert fast.encode(TaggedInt(7)) == naive_encode(
        ObjectRef("n0/main", "swizzled", "IThing", 0, "stub"))
    # Inside a container too.
    assert fast.encode([TaggedInt(7)]) == naive_encode(
        [ObjectRef("n0/main", "swizzled", "IThing", 0, "stub")])
    # And a plain int is untouched even with the hook installed.
    assert fast.encode(7) == naive_encode(7)


def test_frame_codec_matches_generic_encoding():
    fields = ["req", 41, "n0/main", "n1/kv", "oid7", "get",
              ["k0", 12, None, {"nested": True}], {}]
    fast = PLAIN.encode_frame_fields(*fields)
    assert fast == naive_encode(fields)
    assert PLAIN.decode_frame_fields(fast) == fields
    # Non-empty headers take the generic path but stay identical.
    fields[7] = {"hop": 3}
    fast = PLAIN.encode_frame_fields(*fields)
    assert fast == naive_encode(fields)
    assert PLAIN.decode_frame_fields(fast) == fields


def test_frame_decoder_rejects_non_frames_and_garbage():
    from repro.kernel.errors import MarshalError, ProtocolError
    from repro.wire.frames import Frame

    # Not an 8-element list: the frame layer refuses the decoded shape.
    for value in ([1, 2, 3], "req"):
        with pytest.raises(ProtocolError, match="malformed frame"):
            Frame.decode(PLAIN.encode(value), PLAIN)
    good = PLAIN.encode_frame_fields("req", 1, "a", "b", "t", "v", None, {})
    with pytest.raises(MarshalError):
        PLAIN.decode_frame_fields(good[:-3])
    with pytest.raises(MarshalError):
        PLAIN.decode_frame_fields(good + b"x")
