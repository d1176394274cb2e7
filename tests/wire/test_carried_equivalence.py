"""Carried ≡ decoded, for everything.

A frame of *plain data* is not written: it is sized, and rides with a
snapshot of its fields (a pure frame: the fields themselves), and every
delivery gets its own copy of every container instead of running the
decoder (``wire/marshal.py``: :func:`_plain_sized`, :func:`_pure_size`).  The decoder and the naive reference encoder of
``test_marshal_fastpath`` stay the only definition of the bytes, so the
property is stated against them:

* **equivalence** — whatever a message's receiver reads from an
  ``encode_message`` result (:func:`_receive`: ``Dispatcher.handle`` for
  an envelope request, ``RpcProtocol.call`` for an envelope reply,
  ``Frame.decode_message`` for the rest) equals what ``Frame.decode``
  builds from the contiguous image, *exact types at every depth* (``True``/``1``/``1.0``,
  ``-0.0``, NaN, list against tuple, a subclass decoded to its base), and
  ``len()`` of the message equals ``len(frame.encode(m))``;
* **the sized image is the encoder's** — a plain or pure frame's size is
  the length of the bytes ``encode_frame_fields`` writes, and the image
  its message writes when asked is those bytes;
* **isolation** — the sender mutating what it sent, or a receiver
  mutating what it got, changes neither the other side, nor a later
  delivery of the same message object (a retransmission, a duplicate
  from the replay cache), nor the image.

An envelope — a ``str``-keyed dict of pure values as the headers of an
``(args, {})`` request, or as a reply's body — is pure too: sized
without a snapshot and carried as the dict's shallow copy, each delivery
getting its own dict; an envelope request is read by the server's
``Dispatcher.handle`` and an envelope reply reaches its caller as that
dict (read by ``RpcProtocol.call``), equal to what the image decodes to.
Handed to any other reader, an envelope is decoded from its image.  A
dict anywhere below the top of a frame is not pure.

New in this PR: at the parent the carried arm stopped at the first
``dict``, so none of this was reachable; the isolation half fails on a
carried arm that shares a container with the sender (checked on a scratch
copy twice: ``_plain_copy`` sharing a flat list it should slice, and the
encoder carrying the live ``headers`` dict).
"""

from __future__ import annotations

import struct
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.export import get_space
from repro.core.service import Service
from repro.iface.interface import operation
from repro.wire import shards
from repro.wire.frames import EXCEPTION, ONEWAY, REPLY, REQUEST, Frame
from repro.wire.marshal import (
    PLAIN,
    Marshaller,
    _NotPlain,
    _plain_copy,
    _plain_sized,
    memo_stats,
)
from repro.wire.refs import ObjectRef

from test_marshal_fastpath import Exportable, _object_space_hook


class Text(str):
    pass


class Count(int):
    pass


class Level(IntEnum):
    LOW = 1


class Bag(dict):
    pass


Point = namedtuple("Point", "x y")


class SubRef(ObjectRef):
    pass


def _marshaller() -> Marshaller:
    """Both swizzle hooks installed, as in a live context."""
    return Marshaller(encoder_hook=_object_space_hook,
                      decoder_hook=lambda ref: ("proxy-for", ref.oid))


def typed(value):
    """``value`` with the exact class of every node made explicit (floats
    by bit pattern, so ``-0.0`` and NaN compare as what they are)."""
    cls = value.__class__
    if cls is float:
        return (cls, struct.pack(">d", value))
    if cls in (list, tuple):
        return (cls, [typed(item) for item in value])
    if cls is dict:
        return (cls, [(typed(k), typed(v)) for k, v in value.items()])
    if cls in (set, frozenset):
        return (cls, sorted((typed(item) for item in value), key=repr))
    return (cls, value)


def _receive(msg, m, caller_reads, server_reads) -> Frame:
    """``msg`` as the frame its receiver in a live call reads: a carried
    envelope request's or one-way's fields as ``Dispatcher.handle`` hands
    them to the service (``server_reads``), an envelope reply's value as
    ``RpcProtocol.call`` returns it (``caller_reads``; no headers) — the
    kind, id and names as the message carries them — and any other
    message as ``Frame.decode_message`` builds it."""
    carried = msg.carried
    if carried is not None and carried[7].__class__ is tuple:
        kind, msg_id, src, dst, target, verb = carried[:6]
        pair = carried[7][1]
        if pair and kind in (REQUEST, ONEWAY):
            return Frame(kind, msg_id, src, dst, *server_reads(msg))
        if not pair and kind == REPLY:
            value, framed = caller_reads(msg)
            assert not framed
            return Frame(kind, msg_id, src, dst, target, verb, value, {})
    return Frame.decode_message(msg, m)


#: The receivers' fixtures are read afresh per delivery, so a
#: function-scoped one serves every example.
_RECEIVERS = [HealthCheck.function_scoped_fixture]


def typed_frame(frame: Frame):
    return typed([frame.kind, frame.msg_id, frame.src, frame.dst,
                  frame.target, frame.verb, frame.body, frame.headers])


def scramble(value) -> None:
    """Mutate every mutable container reachable from ``value`` in place."""
    if value.__class__ is list:
        for item in value:
            scramble(item)
        value.append("scrambled")
    elif value.__class__ is dict:
        for item in value.values():
            scramble(item)
        value["scrambled"] = True
    elif value.__class__ is tuple:
        for item in value:
            scramble(item)


# -- generated frames ---------------------------------------------------------

#: A bulk payload size (4 KiB).
BULK = 4096

_sizes = st.one_of(st.integers(0, 12), st.integers(BULK - 1, BULK + 1))
_plain_leaf = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([0, 1, -1, 2**70, -2**70, 2**63, -2**63 - 1]),
    st.integers(-2**40, 2**40),
    st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf")]),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    _sizes.map(lambda n: b"\x5a" * n))
_hashable_leaf = st.one_of(st.integers(-5, 5), st.text(max_size=3),
                           st.booleans(), st.none())
_odd_leaf = st.one_of(
    st.builds(ObjectRef, st.just("n0/main"), st.text(max_size=4),
              st.just("IThing"), st.integers(0, 3), st.just("stub")),
    st.text(max_size=4).map(Exportable),
    st.text(max_size=4).map(Text),
    st.integers(-9, 9).map(Count),
    st.just(Level.LOW),
    st.just(Point(1, [2])),
    _sizes.map(lambda n: bytearray(b"\xa5" * n)),
    st.sets(_hashable_leaf, max_size=3),
    st.frozensets(_hashable_leaf, max_size=3),
    st.dictionaries(_hashable_leaf, st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3),
                    max_size=2).map(Bag),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3),
                    max_size=2).map(OrderedDict))


def _nested(leaf):
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=10)


_plain_value = _nested(_plain_leaf)
_any_value = _nested(st.one_of(_plain_leaf, _odd_leaf))


def _frames(value):
    """Requests (``(args, kwargs)`` bodies) and replies (any body), with
    envelope-shaped headers, over the given value strategy."""
    headers = st.dictionaries(st.sampled_from(["q.r", "q.t", "s.k", "d"]),
                              value, max_size=3)
    request = st.tuples(st.lists(value, max_size=3).map(tuple),
                        st.dictionaries(st.text(max_size=3), value,
                                        max_size=2))
    return st.one_of(
        st.builds(Frame, st.just(REQUEST), st.integers(0, 2**40),
                  st.just("c0/main"), st.just("s0/main"), st.just("oid1"),
                  st.sampled_from(["get", "put", ""]), request, headers),
        st.builds(Frame, st.just(REPLY), st.integers(-3, 2**64),
                  st.just("s0/main"), st.just("c0/main"), st.just(""),
                  st.just(""), value, headers))


_pure_value = st.recursive(
    _plain_leaf, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=10)

#: Frames with empty headers and a deeply-immutable body: requests and
#: one-ways with an ``(args, {})`` body, and replies.
_pure_frames = st.one_of(
    st.builds(Frame, st.sampled_from([REQUEST, ONEWAY]),
              st.integers(0, 2**40), st.just("c0/main"), st.just("s0/main"),
              st.just("oid1"), st.sampled_from(["get", "put", ""]),
              st.tuples(st.lists(_pure_value, max_size=3).map(tuple),
                        st.builds(dict)),
              st.builds(dict)),
    st.builds(Frame, st.just(REPLY), st.integers(-3, 2**64),
              st.just("s0/main"), st.just("c0/main"), st.just(""),
              st.just(""), _pure_value, st.builds(dict)))


_pure_dict = st.dictionaries(st.text(max_size=4), _pure_value, max_size=4)

#: Envelopes — a dict of pure values at the top of a frame: requests and
#: one-ways with an ``(args, {})`` body and such headers, and replies whose
#: body is such a dict (a wrapper) with empty headers.
_envelope_frames = st.one_of(
    st.builds(Frame, st.sampled_from([REQUEST, ONEWAY]),
              st.integers(0, 2**40), st.just("c0/main"), st.just("s0/main"),
              st.just("oid1"), st.sampled_from(["get", "put", ""]),
              st.tuples(st.lists(_pure_value, max_size=3).map(tuple),
                        st.builds(dict)),
              _pure_dict.filter(bool)),
    st.builds(Frame, st.just(REPLY), st.integers(-3, 2**64),
              st.just("s0/main"), st.just("c0/main"), st.just(""),
              st.just(""), _pure_dict, st.builds(dict)))


@settings(max_examples=400, deadline=None, suppress_health_check=_RECEIVERS)
@given(frame=st.one_of(_frames(_plain_value), _frames(_any_value)))
def test_carried_frame_equals_decoded_frame(frame, caller_reads,
                                           server_reads):
    m = _marshaller()
    msg = frame.encode_message(m)
    image = msg if msg.__class__ is bytes else msg.to_bytes()
    assert len(msg) == len(frame.encode(m)) == len(image)
    expected = typed_frame(Frame.decode(image, m))
    assert typed_frame(_receive(msg, m, caller_reads, server_reads)) \
        == expected
    # A second delivery of the same message object (a retransmission):
    # the frame is the same.
    assert typed_frame(_receive(msg, m, caller_reads, server_reads)) \
        == expected


@settings(max_examples=300, deadline=None, suppress_health_check=_RECEIVERS)
@given(frame=st.one_of(_envelope_frames, _frames(_plain_value)))
def test_sender_receiver_and_retransmission_are_isolated(frame, caller_reads,
                                                         server_reads):
    m = Marshaller()
    sent = typed_frame(frame)
    decoded = memo_stats()["frames_decoded"]
    msg = frame.encode_message(m)
    image = msg.to_bytes()
    # The sender mutates its arguments after the send (a retry loop
    # re-sends the same encoded message, never re-reads the arguments).
    scramble(frame.body)
    scramble(frame.headers)
    first = _receive(msg, m, caller_reads, server_reads)
    assert typed_frame(first) == sent
    # The first receiver owns what it got, and uses it.
    scramble(first.body)
    scramble(first.headers)
    again = _receive(msg, m, caller_reads, server_reads)
    assert typed_frame(again) == sent
    assert msg.to_bytes() == image
    # Plain data is never decoded: each delivery was a copy.
    assert memo_stats()["frames_decoded"] == decoded


@settings(max_examples=300, deadline=None, suppress_health_check=_RECEIVERS)
@given(frame=st.one_of(_pure_frames, _envelope_frames, _frames(_plain_value)))
def test_the_sized_image_is_the_encoders_image(frame, caller_reads,
                                              server_reads):
    m = Marshaller()
    fields = (frame.kind, frame.msg_id, frame.src, frame.dst, frame.target,
              frame.verb, frame.body, frame.headers)
    written = PLAIN.encode_frame_fields(*fields)
    msg = frame.encode_message(m)
    assert msg.head is None
    image = msg.to_bytes()
    assert msg.nbytes == len(image) == len(written)
    assert image == written
    expected = typed_frame(Frame.decode(image, m))
    first = _receive(msg, m, caller_reads, server_reads)
    assert typed_frame(first) == expected
    scramble(first.body)
    scramble(first.headers)
    assert typed_frame(_receive(msg, m, caller_reads, server_reads)) \
        == expected
    assert msg.to_bytes() == image


class Mirror(Service):
    def __init__(self):
        self.seen = []

    @operation
    def same(self, value):
        self.seen.append(value)
        return value


def test_equal_values_of_different_types_are_never_confused():
    # Python equates True, 1 and 1.0, and 0.0 with -0.0: anything keyed on
    # a pure body would serve one for another.  Sent back to back, each
    # arrives as exactly what it was, in a request and in a reply.
    bodies = [(True,), (1,), (1.0,), (0.0,), (-0.0,)]
    m = Marshaller()
    for args in bodies * 2:
        for frame in (_request((args, {})),
                      Frame(REPLY, 5, "s0/main", "c0/main", body=args)):
            delivered = Frame.decode_message(frame.encode_message(m), m)
            assert typed(delivered.body) == typed(frame.body)
    system = repro.make_system(seed=7)
    server = system.add_node("s0").create_context("main")
    client = system.add_node("c0").create_context("main")
    mirror = Mirror()
    proxy = get_space(client).bind_ref(get_space(server).export(mirror))
    for (value,) in bodies * 2:
        assert typed(proxy.same(value)) == typed(value)
        assert typed(mirror.seen[-1]) == typed(value)


class Echo(Service):
    def __init__(self, value):
        self.value = value

    @operation
    def read(self):
        return self.value       # the live object: plain data


@settings(max_examples=100, deadline=None)
@given(value=_plain_value)
def test_a_duplicate_from_the_replay_cache_is_what_was_sent(value):
    system = repro.make_system(seed=7)
    server = system.add_node("s0").create_context("main")
    client = system.add_node("c0").create_context("main")
    echo = Echo(value)
    ref = get_space(server).export(echo)
    sent = typed(value)
    request = Frame(REQUEST, 1, client.context_id, server.context_id,
                    ref.oid, "read", ((), {}), {})
    data = request.encode_message(system.transport.encoder_for(client))
    decoder = system.transport.decoder_for(client)
    first, _ = server.handler(data, client.now)
    image = first.to_bytes()
    assert typed(Frame.decode(image, decoder).body) == sent
    # The service's object and the caller's copy both change afterwards.
    scramble(echo.value)
    delivered = Frame.decode_message(first, decoder)
    assert typed(delivered.body) == sent
    scramble(delivered.body)
    second, _ = server.handler(data, client.now)     # a retransmission
    assert server.handler.__self__.stats["duplicates"] == 1
    assert typed(Frame.decode_message(second, decoder).body) == sent
    assert second.to_bytes() == image


# -- the walk, exit by exit ---------------------------------------------------

_BULK = b"\x42" * BULK


_PLAIN_SHAPES = [
    None, True, 7, 2**70, -0.0, "s", b"b",                    # a leaf
    {}, {"q.v": 1, "q.tl": [1, 2], "q.r": ("a",), "e": {}},   # dict, inline
    {"deep": {"k": [1, [2, (3, {"x": None})]]}},              # dict, recursing
    {"mixed": [1, []], "pair": (1, [2])},     # flat scan meets a container
    [], (), [1, "a", None], (1, "a"),                         # flat sequence
    [[1], (2,), {}, {"k": [3]}, [[4]], ([5],)],              # sequence, nested
    (("k",), {}), ((["k"],), {}), ((_BULK, [_BULK]), {}),
    ["x" * 65, -2**63 - 1, 2**63, 2**63 - 1, -2**63],   # unmemoised, big ints
]


@pytest.mark.parametrize("value", _PLAIN_SHAPES)
def test_plain_copy_equals_its_argument(value):
    copy = _plain_copy(value)
    assert typed(copy) == typed(value)
    before = typed(copy)
    scramble(value)
    assert typed(copy) == before


def test_plain_copy_shares_what_cannot_change():
    flat = (1, "a", _BULK)
    args = [flat, _BULK, "text"]
    copy = _plain_copy(args)
    assert copy is not args
    assert copy[0] is flat and copy[1] is _BULK and copy[2] is args[2]


_NOT_PLAIN = [
    {1: "int key"}, {"k": {("t",): 1}}, [{None: 1}],          # non-str key
    {1, 2}, frozenset({1}), bytearray(b"x"), memoryview(b"x"),
    Text("s"), Count(1), Level.LOW, Bag(), OrderedDict(), Point(1, 2),
    ObjectRef("n0/main", "o", "I", 0, "stub"), Exportable("o"), object(),
    [1, {2}], {"k": [1, bytearray(b"x")]}, ([Text("s")],), {"k": Bag()},
    {"k": (1, Count(2))}, [[1, [Level.LOW]]],
]


@pytest.mark.parametrize("value", _NOT_PLAIN)
def test_plain_copy_refuses_what_a_hook_could_see(value):
    with pytest.raises(_NotPlain):
        _plain_copy(value)


@pytest.mark.parametrize("value", _PLAIN_SHAPES)
def test_the_sizing_walk_counts_what_the_encoder_writes(value):
    snapshot, size, refs = _plain_sized(value)
    assert size == len(PLAIN.encode(value)) and refs == 0
    assert typed(snapshot) == typed(value)
    before = typed(snapshot)
    scramble(value)
    assert typed(snapshot) == before


@pytest.mark.parametrize("value", _NOT_PLAIN)
def test_the_sizing_walk_refuses_what_a_hook_could_see(value):
    if value.__class__ is ObjectRef:
        # An exact reference is carried: shared, and sized as the writer
        # writes it.
        snapshot, size, refs = _plain_sized(value)
        assert snapshot is value and refs == 1
        assert size == len(PLAIN.encode(value))
        return
    with pytest.raises(_NotPlain):
        _plain_sized(value)


# -- who is carried, who is decoded, who gets a template ----------------------

def _request(body, headers=None, msg_id=5):
    return Frame(REQUEST, msg_id, "c0/main", "s0/main", "oid1", "get",
                 body, headers if headers is not None else {})


@pytest.mark.parametrize("body,headers,carried", [
    ((("k",), {}), {}, True),                                   # pure
    ((("k",), {}), {"q.r": ["c0/main"], "q.t": [3, 7]}, True),  # enveloped
    (((["k"],), {}), {}, True),                       # the invalidation
    ((("k",), {"kw": [1]}), {"s.e": [4], "s.k": 99}, True),
    (((SubRef("n0/main", "o", "I", 0, "stub"),), {}), {}, False),
    ((("k",), {}), {"q.r": [Text("c0/main")]}, False),
    ((("k",), {}), {1: 2}, False),
    (((bytearray(_BULK),), {}), {}, False),
    (((ObjectRef("n0/main", "o", "I", 0, "stub"),), {}), {}, True),
    ((("k",), {}), {"q.r": ("c0/main",), "q.t": (3, 7)}, True),  # envelope
])
def test_only_plain_frames_are_carried(body, headers, carried, caller_reads,
                                      server_reads):
    frame = _request(body, headers)
    msg = frame.encode_message(Marshaller())
    before = memo_stats()
    delivered = _receive(msg, Marshaller(), caller_reads, server_reads)
    after = memo_stats()
    assert after["frames_carried"] - before["frames_carried"] == carried
    assert after["frames_decoded"] - before["frames_decoded"] == (
        not carried)
    # Carried or not, the receiver gets what the image decodes to.
    assert msg.nbytes == len(frame.encode(Marshaller()))
    assert typed_frame(delivered) \
        == typed_frame(Frame.decode(msg.to_bytes(), Marshaller()))


def test_headers_that_are_not_a_dict_are_never_carried():
    # A plain list where the headers dict belongs: the receiver must run
    # the decoder and refuse the frame, not be handed the list.
    from repro.kernel.errors import ProtocolError
    msg = _request((("k",), {}), headers=[1]).encode_message(Marshaller())
    with pytest.raises(ProtocolError):
        Frame.decode_message(msg, Marshaller())


def test_no_template_is_keyed_on_envelope_values_or_mutable_bodies():
    # No frame is memoised at all: pure, enveloped and mutable-bodied
    # frames are each sized afresh, and only strings enter the memo.
    m = Marshaller()
    frames = [_request((("k",), {}))]
    for msg_id in range(3):
        frames += [
            _request((("k",), {}), {"q.t": [msg_id, 1]}, msg_id),
            _request(((["k"],), {}), {}, msg_id),
            Frame(REPLY, msg_id, "s0/main", "c0/main", body={"q.v": msg_id}),
        ]
    assert all(frame.encode_message(m).head is None for frame in frames)
    assert [key for key in memo_stats() if key.endswith("_size")] \
        == ["str_enc_size"]


def test_a_bulk_leaf_is_sized_and_shared_by_the_snapshot():
    frame = _request((([_BULK, "tag"],), {}), {"s.k": 1})
    msg = frame.encode_message(Marshaller())
    assert msg.nbytes == len(frame.encode(Marshaller())) > len(_BULK)
    for _ in range(2):
        delivered = Frame.decode_message(msg, Marshaller())
        assert delivered.body[0][0][0] is _BULK


def test_empty_shells_are_fresh_per_message():
    m = Marshaller()
    kwargs, headers = {}, {}
    frames = [Frame.decode_message(
        _request((("k",), kwargs), headers, msg_id).encode_message(m), m)
        for msg_id in (1, 2)]
    shells = [frames[0].headers, frames[1].headers,
              frames[0].body[1], frames[1].body[1], kwargs, headers]
    assert len({id(shell) for shell in shells}) == len(shells)


def test_counters_tell_carried_from_decoded(server_reads):
    m = Marshaller()
    before = memo_stats()
    msg = _request((("k",), {}), {"q.t": [1, 2]}).encode_message(m)
    Frame.decode_message(msg, m)        # a copy of the snapshot
    Frame.decode_message(msg, m)        # a retransmission: another copy
    Frame.decode(msg.to_bytes(), m)     # plain bytes: decoded
    after = memo_stats()
    assert after["frames_carried"] - before["frames_carried"] == 2
    assert after["frames_decoded"] - before["frames_decoded"] == 1
    # An envelope is read once per delivery by its server; any other
    # reader decodes it from its image.
    msg = _request((("k",), {}), {"q.t": (1, 2)}).encode_message(m)
    server_reads(msg)
    server_reads(msg)
    Frame.decode_message(msg, m)
    before, after = after, memo_stats()
    assert after["frames_carried"] - before["frames_carried"] == 2
    assert after["frames_decoded"] - before["frames_decoded"] == 1


# -- envelopes: a dict is pure at the top of a frame --------------------------

def _is_envelope(msg) -> bool:
    """Carried the envelope way: a dict's shallow copy and the pair flag."""
    return msg.carried is not None and msg.carried[-1].__class__ is tuple


_ENVELOPES = [
    _request((("k",), {}), {"q.r": ("k",), "q.t": (3, 7)}),   # a quorum read
    _request((("k", 2), {}), {"s.e": (4,), "s.k": 2**64 - 1}),
    _request((("k",), {}), {"deadline": 1.25}),                 # a deadline
    _request(((), {}), {"q.c": ("renew", 2, 0)}, msg_id=2**70),
    Frame(REPLY, 5, "s0/main", "c0/main",
          body={"q.v": 3, "q.val": ("a", None, -0.0), "q.tl": (2, 0)}),
    Frame(REPLY, 5, "s0/main", "c0/main",
          body={"q.v": 0, "q.exc": ("KeyError", "'k'")}),
    Frame(REPLY, 5, "s0/main", "c0/main", body={}),
]


@pytest.mark.parametrize("frame", _ENVELOPES)
def test_an_envelope_is_carried_as_its_image_decodes(frame, caller_reads,
                                                     server_reads):
    m = _marshaller()
    msg = frame.encode_message(m)
    assert _is_envelope(msg)
    image = msg.to_bytes()
    assert msg.nbytes == len(image) == len(frame.encode(m))
    assert image == frame.encode(m)
    # Exact types: the decoder rebuilds tuples as tuples, and so does the
    # carry — what the receiver sees is what was sent.
    sent = typed_frame(frame)
    assert typed_frame(Frame.decode(image, m)) == sent
    assert typed_frame(_receive(msg, m, caller_reads, server_reads)) == sent


@pytest.mark.parametrize("frame", _ENVELOPES)
def test_an_envelope_is_isolated_from_sender_and_receiver(frame,
                                                          caller_reads,
                                                          server_reads):
    m = Marshaller()
    sent = typed_frame(frame)
    msg = frame.encode_message(m)
    image = msg.to_bytes()
    # The sender reuses its header dict, or its wrapper, after the send.
    scramble(frame.headers)
    scramble(frame.body)
    first = _receive(msg, m, caller_reads, server_reads)
    assert typed_frame(first) == sent
    scramble(first.headers)
    scramble(first.body)
    assert typed_frame(_receive(msg, m, caller_reads, server_reads)) == sent
    assert msg.to_bytes() == image


def test_an_envelope_duplicate_from_the_replay_cache_is_what_was_sent(
        caller_reads, server_reads):
    system = repro.make_system(seed=7)
    server = system.add_node("s0").create_context("main")
    client = system.add_node("c0").create_context("main")
    wrapper = {"q.v": 1, "q.val": ("a", 2), "q.tl": (1, 0)}
    ref = get_space(server).export(Echo(wrapper))
    headers = {"deadline": 10.0}
    request = Frame(REQUEST, 1, client.context_id, server.context_id,
                    ref.oid, "read", ((), {}), headers)
    sent_request = typed_frame(request)
    data = request.encode_message(system.transport.encoder_for(client))
    assert _is_envelope(data)
    scramble(headers)               # the caller reuses its header dict
    decoder = system.transport.decoder_for(client)
    first, _ = server.handler(data, client.now)
    assert _is_envelope(first)
    sent = typed(wrapper)
    scramble(wrapper)               # the service's object changes
    delivered = _receive(first, decoder, caller_reads, server_reads)
    assert typed(delivered.body) == sent
    scramble(delivered.body)        # the caller uses what it got
    second, _ = server.handler(data, client.now)     # a retransmission
    assert server.handler.__self__.stats["duplicates"] == 1
    assert typed(_receive(second, decoder, caller_reads,
                          server_reads).body) == sent
    assert second.to_bytes() == first.to_bytes()
    assert typed_frame(_receive(data, decoder, caller_reads,
                                server_reads)) == sent_request


@pytest.mark.parametrize("frame,carried", [
    (_request((("k",), {}), {"q.r": ({"k": 1},)}), True),   # dict in a tuple
    (_request((("k",), {}), {"q.r": ["k"]}), True),          # a list value
    (_request((("k",), {}), {"q.r": ("k",), "e": {}}), True),  # a dict value
    (_request((("k",), {}), {1: ("k",)}), False),            # a non-str key
    (_request((("k",), {}), OrderedDict({"q.r": ("k",)})), False),
    (Frame(REPLY, 5, "s0/main", "c0/main", body={"q.v": 1, "q.log": [[1]]}),
     True),
    (Frame(REPLY, 5, "s0/main", "c0/main", body={"q.r": ({"k": 1},)}), True),
    (Frame(REPLY, 5, "s0/main", "c0/main", body={2: "x"}), False),
    (Frame(REPLY, 5, "s0/main", "c0/main", body=Bag({"q.v": 1})), False),
    (Frame(REPLY, 5, "s0/main", "c0/main", body={"q.v": 1},
           headers={"o.ra": 2.5}), True),          # a wrapper with headers
])
def test_a_dict_is_pure_only_at_the_top_of_a_frame(frame, carried):
    m = _marshaller()
    msg = frame.encode_message(m)
    assert not _is_envelope(msg)
    assert (msg.carried is not None) == carried     # plain, or written
    image = msg.to_bytes()
    assert msg.nbytes == len(image) == len(frame.encode(m))
    assert typed_frame(Frame.decode_message(msg, m)) \
        == typed_frame(Frame.decode(image, m))


@pytest.mark.parametrize("body", [
    {"q.v": 3, "q.val": ("a", None, -0.0), "q.tl": (2, 0)},
    {"q.v": 0, "q.exc": ("KeyError", "'k'")},
    {"s.v": 1.0, "s.m": (3, True, b"r")},
    {},
])
def test_an_envelope_reply_is_the_body_its_image_decodes(body,
                                                         caller_reads):
    m = _marshaller()
    frame = Frame(REPLY, 5, "s0/main", "c0/main", body=dict(body))
    msg = frame.encode_message(m)
    sent = typed(frame.body)
    assert typed(Frame.decode(msg.to_bytes(), m).body) == sent
    scramble(frame.body)            # the service's wrapper changes
    first, framed = caller_reads(msg)
    assert typed(first) == sent and not framed
    scramble(first)                 # the caller uses what it got
    again, _ = caller_reads(msg)    # a retransmission
    assert typed(again) == sent and again is not first


def test_an_envelope_reply_is_a_fresh_dict_per_delivery(caller_reads):
    system = repro.make_system(seed=7)
    server = system.add_node("s0").create_context("main")
    client = system.add_node("c0").create_context("main")
    wrapper = {"q.v": 1, "q.val": ("a", 2.0, True), "q.tl": (1, 0)}
    ref = get_space(server).export(Echo(wrapper))
    request = Frame(REQUEST, 1, client.context_id, server.context_id,
                    ref.oid, "read", ((), {}))
    data = request.encode_message(system.transport.encoder_for(client))
    first, _ = server.handler(data, client.now)
    sent = typed(Frame.decode(first.to_bytes(),
                              system.transport.decoder_for(client)).body)
    assert sent == typed(wrapper)
    scramble(wrapper)               # the service's object changes
    delivered = []
    for message in (first, first):  # the first delivery, a retransmission
        delivered.append(caller_reads(message)[0])
        assert typed(delivered[-1]) == sent
        scramble(delivered[-1])     # the caller uses what it got
    second, _ = server.handler(data, client.now)     # a duplicate
    assert server.handler.__self__.stats["duplicates"] == 1
    delivered.append(caller_reads(second)[0])
    assert typed(delivered[-1]) == sent
    assert len({id(value) for value in delivered}) == 3


# -- shard maps: pure, so shared with the sender ------------------------------

def _map_bearing(kind, ring_map):
    """A frame carrying ``ring_map`` as the sharded policy's peers send
    one, and where the map sits in what its receiver is handed."""
    if kind == "s.map":
        return (Frame(REPLY, 5, "s0/main", "c0/main",
                      body={shards.K_MAP: ring_map}),
                lambda body: body[shards.K_MAP])
    if kind == "s.f":
        return (Frame(REPLY, 5, "s0/main", "c0/main",
                      body={shards.K_FENCED: ring_map}),
                lambda body: body[shards.K_FENCED])
    if kind == "StaleShardRing":
        return (Frame(EXCEPTION, 5, "s0/main", "c0/main",
                      body=("StaleShardRing", "re-route", ring_map)),
                lambda frame: frame.body[2])
    return (_request(((ring_map,), {}), {shards.H_CONTROL: ("commit",)}),
            lambda frame: frame.body[0][0])


@pytest.mark.parametrize("kind", ["s.map", "s.f", "StaleShardRing",
                                  "commit"])
def test_a_shard_map_is_carried_as_its_image_decodes(kind, caller_reads,
                                                     server_reads):
    m = _marshaller()
    ring_map = shards.ShardState(-1, 3, shards.default_ring(2), [
        ("s0/main", "o0", "KVStore", 0, "stub"),
        ("s1/main", "o1", "KVStore", 1, "stub")]).map()
    frame, where = _map_bearing(kind, ring_map)
    msg = frame.encode_message(m)
    image = msg.to_bytes()
    assert msg.nbytes == len(image) == len(frame.encode(m))
    decoded = Frame.decode(image, m)
    if frame.kind == REPLY:
        # A map-bearing reply reaches the caller as its dict, no frame.
        delivered, framed = caller_reads(msg)
        assert not framed
        assert typed(delivered) == typed(decoded.body)
    else:
        delivered = _receive(msg, m, caller_reads, server_reads)
        assert typed_frame(delivered) == typed_frame(decoded)
    assert where(delivered) is ring_map


# -- references: carried as the writer writes them ----------------------------

class Widget(Service):
    @operation(readonly=True)
    def ping(self):
        return "pong"


_REF_TOKENS = ("ref", "proxy", "export", "subref", "textref", "boolepoch")

_ref_token = st.tuples(st.sampled_from(_REF_TOKENS), st.integers(0, 2))
#: Half the leaves are tokens, so a body and its headers often both hold
#: references (the decoder hook's order across them is checked).
_ref_body = _nested(st.booleans().flatmap(
    lambda token: _ref_token if token else _plain_leaf))


class _RefWorld:
    """A sender context holding proxies for a peer's exports, and a fresh
    set of unexported service objects per example."""

    def __init__(self):
        self.system = repro.make_system(seed=3)
        self.sender = self.system.add_node("n0").create_context("main")
        peer = self.system.add_node("n1").create_context("main")
        self.space = get_space(self.sender)
        remote = [get_space(peer).export(Widget()) for _ in range(3)]
        self.proxies = [self.space.bind_ref(ref, handshake=False)
                        for ref in remote]
        self.fresh = [Widget() for _ in range(3)]

    def build(self, value):
        """``value`` with every token made the object it names."""
        if value.__class__ is tuple and len(value) == 2 \
                and value[0] in _REF_TOKENS and value[1].__class__ is int:
            token, i = value
            if token == "ref":
                return ObjectRef(f"n{i}/main", f"oid{i}", "IThing", i)
            if token == "proxy":
                return self.proxies[i]
            if token == "export":
                return self.fresh[i]
            if token == "subref":
                return SubRef("n0/main", f"oid{i}", "IThing", i)
            if token == "textref":
                return ObjectRef(Text("n0/main"), f"oid{i}", "IThing", i)
            return ObjectRef("n0/main", f"oid{i}", "IThing", bool(i % 2))
        if value.__class__ in (list, tuple):
            return value.__class__(self.build(item) for item in value)
        if value.__class__ is dict:
            return {key: self.build(item) for key, item in value.items()}
        return value


def _tokens(value):
    """The tokens :meth:`_RefWorld.build` will replace in ``value``."""
    if value.__class__ is tuple and len(value) == 2 \
            and value[0] in _REF_TOKENS and value[1].__class__ is int:
        yield value[0]
    elif value.__class__ in (list, tuple):
        for item in value:
            yield from _tokens(item)
    elif value.__class__ is dict:
        for item in value.values():
            yield from _tokens(item)


def _recording():
    seen = []

    def hook(ref):
        seen.append(ref)
        return ("proxy-for", ref.oid)
    return Marshaller(decoder_hook=hook), seen


@settings(max_examples=200, deadline=None)
@given(args=st.lists(_ref_body, max_size=3), headers=st.dictionaries(
    st.sampled_from(["q.r", "d"]), _ref_body, max_size=2),
    reply=st.booleans(), written=st.booleans())
def test_a_frame_with_references_is_carried_as_it_is_written(
        args, headers, reply, written):
    world = _RefWorld()
    body = world.build(tuple(args))
    if written:
        body += ({1, 2},)   # a set: the walk falls back to the writer
    frame = Frame(REPLY, 5, "n0/main", "n1/main", body=body,
                  headers=world.build(headers)) if reply \
        else _request((body, {}), world.build(headers))
    encoder = world.system.transport.encoder_for(world.sender)
    exports = world.space.stats["auto_exports"]
    msg = frame.encode_message(encoder)
    # Each fresh object is exported once, however often the hook saw it.
    fresh = {id(obj) for obj in world.fresh
             if id(obj) in world.space._exported_ids}
    assert world.space.stats["auto_exports"] - exports == len(fresh)
    image = frame.encode(encoder)
    assert world.space.stats["auto_exports"] - exports == len(fresh)
    assert len(msg.to_bytes()) == len(image)
    assert msg.carried is None or msg.to_bytes() == image
    # The size is the written image's: the swizzled fields, re-encoded.
    swizzled = Frame.decode(image, PLAIN)
    assert msg.nbytes == len(PLAIN.encode([
        swizzled.kind, swizzled.msg_id, swizzled.src, swizzled.dst,
        swizzled.target, swizzled.verb, swizzled.body, swizzled.headers]))
    carried_m, carried_seen = _recording()
    decoded_m, decoded_seen = _recording()
    delivered = Frame.decode_message(msg, carried_m)
    expected = Frame.decode(image, decoded_m)
    assert typed_frame(delivered) == typed_frame(expected)
    assert carried_seen == decoded_seen
    # A second delivery (a retransmission) meets the same refs again.
    assert typed_frame(Frame.decode_message(msg, carried_m)) \
        == typed_frame(expected)
    assert carried_seen == decoded_seen * 2
    # Carried unless the writer must see it: a set, or a ref it would
    # not write as sent (a subclass, a str subclass name, a bool epoch).
    odd = {"subref", "textref", "boolepoch"}.intersection(
        _tokens((args, headers)))
    assert (msg.carried is None) == bool(written or odd)
