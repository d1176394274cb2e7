"""Unit and property tests for the wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import MarshalError
from repro.wire.marshal import PLAIN, Marshaller
from repro.wire.refs import ObjectRef


def roundtrip(value):
    return PLAIN.decode(PLAIN.encode(value))


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62), 2**100, -(2**100),
        0.0, 1.5, -2.25, 1e300, "", "hello", "unicode: æøå 中文 🎉",
        b"", b"raw bytes \x00\xff",
    ])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_bool_is_not_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1
        assert roundtrip(1) is not True

    def test_bytearray_becomes_bytes(self):
        assert roundtrip(bytearray(b"ab")) == b"ab"


class TestContainers:
    @pytest.mark.parametrize("value", [
        [], [1, 2, 3], [1, "two", 3.0, None, b"x"],
        (), (1, (2, (3,))),
        {}, {"a": 1, "b": [2, 3]}, {1: "x", (1, 2): "y"},
        set(), {1, 2, 3}, frozenset({1, 2}),
        [{"deep": [(1, {"er": {4}})]}],
    ])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_tuple_list_distinction_preserved(self):
        assert isinstance(roundtrip((1, 2)), tuple)
        assert isinstance(roundtrip([1, 2]), list)

    def test_set_frozenset_distinction_preserved(self):
        assert isinstance(roundtrip({1}), set)
        assert isinstance(roundtrip(frozenset({1})), frozenset)


class TestRefs:
    def test_ref_roundtrip(self):
        ref = ObjectRef("node/ctx", "node/ctx:5", "KVStore", 3, "caching")
        assert roundtrip(ref) == ref

    def test_ref_inside_containers(self):
        ref = ObjectRef("a/b", "a/b:0", "I", 0, "stub")
        value = {"refs": [ref, ref], "n": 1}
        assert roundtrip(value) == value


class TestErrors:
    def test_unmarshallable_object_rejected(self):
        class Arbitrary:
            pass
        with pytest.raises(MarshalError):
            PLAIN.encode(Arbitrary())

    def test_truncated_data_rejected(self):
        data = PLAIN.encode("hello world")
        with pytest.raises(MarshalError):
            PLAIN.decode(data[:-3])

    def test_trailing_garbage_rejected(self):
        data = PLAIN.encode(42)
        with pytest.raises(MarshalError):
            PLAIN.decode(data + b"x")

    def test_unknown_tag_rejected(self):
        with pytest.raises(MarshalError):
            PLAIN.decode(b"\x99")

    def test_empty_input_rejected(self):
        with pytest.raises(MarshalError):
            PLAIN.decode(b"")


class TestHooks:
    def test_encoder_hook_replaces(self):
        class Marker:
            pass
        enc = Marshaller(encoder_hook=lambda v:
                         "REPLACED" if isinstance(v, Marker) else None)
        assert PLAIN.decode(enc.encode([Marker(), 1])) == ["REPLACED", 1]

    def test_decoder_hook_sees_refs(self):
        seen = []
        ref = ObjectRef("a/b", "a/b:0", "I")
        dec = Marshaller(decoder_hook=lambda r: seen.append(r) or "proxy!")
        assert dec.decode(PLAIN.encode([ref])) == ["proxy!"]
        assert seen == [ref]

    def test_hooks_do_not_touch_plain_values(self):
        enc = Marshaller(encoder_hook=lambda v: None)
        assert PLAIN.decode(enc.encode({"a": [1, 2]})) == {"a": [1, 2]}


# -- property-based round-trip ------------------------------------------------

wire_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False) | st.text(max_size=40) |
    st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(wire_values)
def test_roundtrip_property(value):
    assert roundtrip(value) == value


@settings(max_examples=100, deadline=None)
@given(wire_values)
def test_encoding_is_deterministic(value):
    assert PLAIN.encode(value) == PLAIN.encode(value)


@settings(max_examples=100, deadline=None)
@given(st.integers())
def test_any_integer_roundtrips(value):
    assert roundtrip(value) == value
