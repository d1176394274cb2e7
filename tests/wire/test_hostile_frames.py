"""Hostile wire input fails closed, with a typed error.

After the carried decode the real decoder serves only frames that hold
references, retransmissions — and whatever an attacker crafts, so its
whole job is to refuse cleanly: every input below raises
:class:`MarshalError` (the codec) or :class:`ProtocolError` (the frame
layer), through the byte-stream decoder and the message decoder alike.

Each case **fails at the parent commit** (`23d91a7`), where it escaped
as ``TypeError`` / ``UnicodeDecodeError``, was reported as a negative
count of trailing bytes, or — the list-typed ``headers`` — was accepted
and blew up later inside the dispatcher.  The nesting bomb and the
bytes-like images fail at `1dbf743`, before the decoder became one walk:
``RecursionError``; ``TypeError`` from the decode memo and ``memoryview``
leaves.
"""

from __future__ import annotations

import struct

import pytest

from repro.kernel.errors import MarshalError, ProtocolError
from repro.wire.frames import Frame
from repro.wire.marshal import _MAX_DEPTH, PLAIN, Marshaller, WireMessage

from test_carried_equivalence import typed, typed_frame


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _frame_with(field_index: int, encoded_field: bytes) -> bytes:
    """A well-formed request frame with one field's bytes replaced."""
    fields = ["req", 1, "a", "b", "t", "v", None, {}]
    parts = [PLAIN.encode(field) for field in fields]
    parts[field_index] = encoded_field
    return b"l" + _u32(8) + b"".join(parts)


_LIST_OF_ONE = PLAIN.encode([1])

# 5000 nested one-element lists around a None: RecursionError at the parent.
_NESTING_BOMB = (b"l" + _u32(1)) * 5000 + b"N"

HOSTILE = {
    # kind is a list: ``kind not in _KINDS`` hashed it -> TypeError
    "kind-is-a-list": (
        _frame_with(0, PLAIN.encode(["req"])), ProtocolError),
    # headers is a list: accepted, AttributeError later in the dispatcher
    "headers-is-a-list": (
        _frame_with(7, _LIST_OF_ONE), ProtocolError),
    # a dict keyed by a list: TypeError at the key insertion
    "dict-with-a-list-key": (
        _frame_with(6, b"d" + _u32(1) + _LIST_OF_ONE + b"N"), MarshalError),
    # a set holding a list: TypeError at set construction
    "set-with-a-list-member": (
        _frame_with(6, b"S" + _u32(1) + _LIST_OF_ONE), MarshalError),
    "frozenset-with-a-list-member": (
        _frame_with(6, b"Z" + _u32(1) + _LIST_OF_ONE), MarshalError),
    # not utf-8: UnicodeDecodeError, in a body and in a frame field
    "string-is-not-utf8": (
        _frame_with(6, b"s" + _u32(2) + b"\xff\xfe"), MarshalError),
    "verb-is-not-utf8": (
        _frame_with(5, b"s" + _u32(2) + b"\xff\xfe"), MarshalError),
    # big-int length 1000 over 2 bytes: decoded from the short slice and
    # reported as "trailing garbage: -998 bytes"
    "bigint-longer-than-the-data": (
        _frame_with(7, b"I" + _u32(1000) + b"\x01\x02"), MarshalError),
    # a body nested 5000 deep: RecursionError, through both decoders
    "nesting-bomb": (_frame_with(6, _NESTING_BOMB), MarshalError),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_frame_raises_a_typed_error(name):
    data, error = HOSTILE[name]
    with pytest.raises(error) as caught:
        Frame.decode(data, Marshaller())
    assert "garbage: -" not in str(caught.value)   # no negative counts
    # The message path (a written WireMessage, nothing carried)
    # runs the same decoder and must refuse the same way.
    with pytest.raises(error):
        Frame.decode_message(WireMessage(data, len(data)), Marshaller())


@pytest.mark.parametrize("data", [
    b"s\x00\x00\x00\x02\xff\xfe",                    # the issue's literal
    b"I" + _u32(1000) + b"\x01\x02",
    b"d" + _u32(1) + _LIST_OF_ONE + b"N",
    b"S" + _u32(1) + _LIST_OF_ONE,
    b"R" + _u32(1) + b"\xff" + _u32(0) * 3 + b"\x00" * 8,   # ref field
    pytest.param(_NESTING_BOMB, id="nesting-bomb"),
])
def test_hostile_values_raise_marshal_error(data):
    with pytest.raises(MarshalError) as caught:
        PLAIN.decode(data)
    assert "garbage: -" not in str(caught.value)


def test_well_formed_neighbours_still_decode():
    # The guards reject nothing legitimate: hashable members and keys,
    # a big integer of the stated length, non-ASCII utf-8.
    value = [{(1, 2): "ü", "k": -2**70}, {1, "a"}, frozenset({(3,)})]
    assert PLAIN.decode(PLAIN.encode(value)) == value


def test_nesting_at_the_bound_still_decodes():
    # The bound counts containers: _MAX_DEPTH of them round-trip, one
    # more is refused.  A frame's field list is its outermost level.
    value = "leaf"
    for level in range(_MAX_DEPTH - 1):
        value = ([value], (value,), {"k": value})[level % 3]
    assert PLAIN.decode(PLAIN.encode([value])) == [value]
    with pytest.raises(MarshalError, match="nesting deeper"):
        PLAIN.decode(PLAIN.encode([[value]]))
    frame = Frame("rep", 1, "a", "b", body=value)
    assert Frame.decode(frame.encode(PLAIN), PLAIN).body == value
    frame.body = [value]
    with pytest.raises(MarshalError, match="nesting deeper"):
        Frame.decode(frame.encode(PLAIN), PLAIN)


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_a_bytes_like_image_decodes_exactly_as_bytes_do(kind):
    # At the parent a bytearray image raised TypeError (unhashable, from
    # the decode memo) and a memoryview one handed back memoryview leaves.
    frame = Frame("req", 9, "a", "b", "t", "v",
                  ((b"payload", "ü", [b""]), {"k": {b"x"}}), {"q.t": [1]})
    image = frame.encode(PLAIN)
    expected = typed_frame(Frame.decode(image, Marshaller()))
    assert typed_frame(Frame.decode(kind(image), Marshaller())) == expected
    if kind is bytearray:       # the message decoder's other plain type
        assert typed_frame(
            Frame.decode_message(kind(image), Marshaller())) == expected
    assert typed(PLAIN.decode(kind(image))) == typed(PLAIN.decode(image))


# -- type-confused frames at a server's handler --------------------------------
#
# Well-formed wire images whose fields have the wrong type for what the
# layers above do with them.  At the parent of the frame gate's field
# checks, an id or a source that is a list escaped ``Dispatcher.handle``
# as ``TypeError`` (unhashable, from the dedup key), a three-field body
# and a textual deadline as ``ValueError``, and a list-typed target or
# verb was answered with a ``TypeError`` reply and remembered; an
# exception reply of two fields would have broken the caller's unpack.

def _put_fields(client, ref):
    return ["req", 1, client.context_id, ref.context_id, ref.oid, "put",
            (("k", "v"), {}), {}]


CONFUSED = {
    "msg-id-is-a-list": (1, [1]),
    "src-is-a-list": (2, ["client0/main"]),
    "dst-is-a-list": (3, ["server/main"]),
    "target-is-a-list": (4, None),          # [oid], filled in per test
    "verb-is-a-list": (5, ["put"]),
    "body-has-three-fields": (6, (1, 2, 3)),
    "body-args-are-a-dict": (6, ({"k": "v"}, {})),
    "deadline-is-text": (7, {"deadline": "x"}),
    "exc-body-has-two-fields": (6, ("ValueError", "boom")),
}


@pytest.mark.parametrize("name", sorted(CONFUSED))
def test_a_type_confused_frame_is_refused_at_the_handler(pair, name):
    from repro.apps.kv import KVStore
    from repro.core.export import get_space

    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    dispatcher = server.handler.__self__
    fields = _put_fields(client, ref)
    index, value = CONFUSED[name]
    fields[index] = [ref.oid] if value is None else value
    if name.startswith("exc-"):
        fields[0] = "exc"
    image = PLAIN.encode(fields)
    for data in (image, WireMessage(image, len(image))):
        with pytest.raises(ProtocolError):
            server.handler(data, client.now)
    assert store.size() == 0            # nothing executed
    assert not dispatcher._replay       # nothing remembered
    # The well-formed neighbour is served.
    good = PLAIN.encode(_put_fields(client, ref))
    reply, _ = server.handler(good, client.now)
    assert Frame.decode(reply.to_bytes(), PLAIN).body is True
    assert store.get("k") == "v"


def _retag_bytes(image: bytes) -> bytes:
    """``image`` with its one ``b"x"`` leaf tagged ``r``: the bulk tag
    the wire no longer has."""
    leaf = b"b" + _u32(1) + b"x"
    assert image.count(leaf) == 1
    return image.replace(leaf, b"r" + _u32(1) + b"x")


def test_the_retired_raw_tag_fails_closed(pair):
    # At the parent the decoder still read an ``r`` leaf inline, as the
    # bytes tag: the forged frame decoded with body b"x", and at the
    # handler it was served and remembered.
    from repro.apps.kv import KVStore
    from repro.core.export import get_space
    from repro.wire.frames import fields_of

    forged = _retag_bytes(Frame("rep", 1, "a", "b", body=b"x").encode(PLAIN))
    with pytest.raises(MarshalError, match="unknown wire tag"):
        Frame.decode(forged, Marshaller())
    with pytest.raises(MarshalError, match="unknown wire tag"):
        fields_of(forged, Marshaller())

    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    dispatcher = server.handler.__self__
    fields = ["req", 1, client.context_id, ref.context_id, ref.oid, "put",
              (("k", b"x"), {}), {}]
    image = PLAIN.encode(fields)
    with pytest.raises(MarshalError, match="unknown wire tag"):
        server.handler(_retag_bytes(image), client.now)
    assert store.size() == 0            # nothing executed
    assert not dispatcher._replay       # nothing remembered
    # The image with its ``b`` tag is served.
    reply, _ = server.handler(image, client.now)
    assert Frame.decode(reply.to_bytes(), PLAIN).body is True
    assert store.get("k") == b"x"


@pytest.mark.parametrize(
    "value", ["x", [1.0], {"t": 1}, 10**400, "5", True, float("nan")],
    ids=["text", "list", "dict", "huge-int", "digits", "bool", "nan"])
def test_a_malformed_deadline_header_is_a_protocol_error(value):
    from repro.resilience.deadline import Deadline

    with pytest.raises(ProtocolError):
        Deadline.from_headers({"deadline": value})
