"""The wire format: a self-describing tagged binary encoding.

Hand-rolled (no ``pickle``) for three reasons: the byte count must be an
honest input to the network cost model; unmarshalling must never execute
arbitrary code; and the encoder needs *swizzle hooks* — the mechanism by
which the proxy principle is enforced.  When an exported object is about to
cross a context boundary, the encoder hook replaces it with an
:class:`~repro.wire.refs.ObjectRef`; the decoder hook on the far side turns
that ref into a proxy.  Application data passes by value.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision),
``float``, ``str``, ``bytes``, ``list``, ``tuple``, ``dict``, ``set``,
``frozenset``, :class:`ObjectRef`, plus anything the hooks translate.

Performance model (see DESIGN.md): no hot path writes a frame (the
carry, below), so the encoder is the reference walk — one arm per type.
Values of a built-in primitive or container type, and :class:`ObjectRef`,
are **hook-exempt**: the swizzle hook cannot replace a plain int or list
(the object-space hook declines them by definition), so it is consulted
only for a value of any other type — including elements nested inside
containers, so reference swizzling is unaffected.  Encodings are
byte-for-byte what the naive encoder of
``tests/wire/test_marshal_fastpath.py`` writes.  A string's wire form —
verbs, context ids, hot keys — hits a bounded encode memo, which is safe
precisely because it is a pure function of the value; the memo evicts
FIFO at capacity and exports hit/size counters (:func:`memo_stats`,
surfaced via :mod:`repro.metrics`).  Nothing on the decode side is
memoised.

The decoder is the reference path, not a fast one.  Since the carry
(below) a receiver unmarshals only a frame holding a set, a subclass or a
``bytearray``, and whatever a peer crafts — so it is one recursive walk
with one arm per tag, whose jobs are turning refs into proxies and
refusing hostile input:
truncation, non-utf-8 text, unhashable keys and set members, trailing
bytes, unknown tags and nesting deeper than :data:`_MAX_DEPTH` all raise
:class:`MarshalError`.

One message-level fast path sits on top, byte-transparent on the wire
(see DESIGN.md's carry table): **the carry** — a frame of *plain data*
is not written at all: one walk counts the bytes the encoder would
write, and the message (:class:`WireMessage`) carries the fields and
that size.  Plain data is the exact built-in leaves,
``list``/``tuple``/``str``-keyed ``dict`` of plain data, and references:
an exact :class:`ObjectRef`, or what the encoder hook makes of a proxy
or an export (called where the writer calls it).  A *pure* frame —
empty headers, a body of exact tuples of immutable leaves — carries its
fields as they are (:func:`_pure_size`); an *envelope* — a
``str``-keyed dict of pure values as an ``(args, {})`` request's headers
or a reply's body — carries the dict's shallow copy
(:func:`_pure_dict_size`); any other is snapshotted by
:func:`_plain_sized`, and every delivery gets its own copy, each ref
handed to the receiver's decoder hook in the decoder's order
(:func:`_ref_copy`).  No decoder runs; the bytes are written only if
someone asks for the image.  Anything else — a subclass, a set, a
``bytearray``, a non-``str`` key, a ref the writer would not write as
sent — is written contiguously and decoded at the receiver.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple

from ..kernel.errors import MarshalError, ProtocolError
from .refs import ObjectRef

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_BIGINT = b"I"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_SET = b"S"
_TAG_FROZENSET = b"Z"
_TAG_REF = b"R"

# Integer tag values for the decoder (indexing bytes yields ints).
_ORD_NONE = _TAG_NONE[0]
_ORD_TRUE = _TAG_TRUE[0]
_ORD_FALSE = _TAG_FALSE[0]
_ORD_INT = _TAG_INT[0]
_ORD_BIGINT = _TAG_BIGINT[0]
_ORD_FLOAT = _TAG_FLOAT[0]
_ORD_STR = _TAG_STR[0]
_ORD_BYTES = _TAG_BYTES[0]
_ORD_LIST = _TAG_LIST[0]
_ORD_TUPLE = _TAG_TUPLE[0]
_ORD_DICT = _TAG_DICT[0]
_ORD_SET = _TAG_SET[0]
_ORD_FROZENSET = _TAG_FROZENSET[0]
_ORD_REF = _TAG_REF[0]
_CONTAINER_TAGS = frozenset(
    {_ORD_LIST, _ORD_TUPLE, _ORD_DICT, _ORD_SET, _ORD_FROZENSET})

#: Deepest container nesting the decoder follows (the frame list is one
#: level).  Wire input comes from a peer: past this bound the walk raises
#: :class:`MarshalError` instead of exhausting the interpreter stack.  The
#: deepest frame any test, experiment, example, benchmark or simtest
#: battery encodes is 8 levels (6 outside the generated tests).
_MAX_DEPTH = 64

#: Frame kinds.  :meth:`Marshaller.encode_frame_message` sizes no other,
#: and :meth:`Marshaller.encode_frame_fields` refuses any other.
REQUEST = "req"      #: call expecting a reply
REPLY = "rep"        #: successful result
EXCEPTION = "exc"    #: error result (body: (class_name, message, detail))
ONEWAY = "one"       #: fire-and-forget notification (no reply)
# Dead: built only by Transport.encode_batch, which perf_spans.LAYER_MAP holds.
MREPLY = "mrp"       #: multi-reply frame: a tuple of (wire image, arrival)
FRAME_KINDS = frozenset({REQUEST, REPLY, EXCEPTION, ONEWAY, MREPLY})

#: Encoder hook: given a value the base encoder cannot handle (or any
#: hook-eligible value — see the module docstring for exemptions), return a
#: replacement value or ``None`` to decline.
EncoderHook = Callable[[Any], Any]

#: Decoder hook: given a decoded :class:`ObjectRef`, return what application
#: code should see (a proxy).  Returning the ref unchanged is allowed.
DecoderHook = Callable[[ObjectRef], Any]

# -- the string encode memo ----------------------------------------------------
#
# Verbs, context ids, frame kinds and hot application keys repeat endlessly;
# their encodings are pure functions of the value, so a bounded memo turns
# "utf-8 encode + length pack + concatenation" into one dict hit, for the
# encoder and the sizing walks alike.  Bounded so a pathological workload of
# unique strings cannot grow it without limit: at capacity the oldest entry
# is evicted FIFO (dicts iterate in insertion order), so a churning workload
# recycles slots instead of freezing the memo with its first 4096 values.

_MEMO_MAX_ENTRIES = 4096
_MEMO_MAX_STR = 64

_STR_ENC: dict[str, bytes] = {}


class MemoStats:
    """Hit/miss/eviction counters for the marshalling memo.

    Monotonic since process start (or the last :func:`reset_memo_stats`);
    surfaced through :func:`memo_stats` and re-exported by
    :mod:`repro.metrics`.  Counters live off the trace/cost model — they
    observe the simulator, they never feed it.
    """

    __slots__ = ("str_enc_hits", "str_enc_misses", "evictions",
                 "frames_carried", "frames_decoded")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.str_enc_hits = 0
        self.str_enc_misses = 0
        self.evictions = 0
        # Inbound frames by how they were rebuilt: from the fields the
        # message carried, or by the decoder.
        self.frames_carried = 0
        self.frames_decoded = 0


_MEMO_STATS = MemoStats()


def memo_stats() -> dict:
    """Counter snapshot plus the live size of the memo."""
    stats = _MEMO_STATS
    return {
        "str_enc_hits": stats.str_enc_hits,
        "str_enc_misses": stats.str_enc_misses,
        "evictions": stats.evictions,
        "frames_carried": stats.frames_carried,
        "frames_decoded": stats.frames_decoded,
        "str_enc_size": len(_STR_ENC),
        "max_entries": _MEMO_MAX_ENTRIES,
    }


def reset_memo_stats() -> None:
    """Zero the counters (test isolation; the memo itself persists)."""
    _MEMO_STATS.reset()


def clear_memos() -> None:
    """Empty the memo (tests that probe cold-cache behaviour)."""
    _STR_ENC.clear()


#: Leaf types whose values the swizzle hooks can never replace and whose
#: identity may be shared safely across context boundaries.
_IMMUTABLE_LEAVES = frozenset(
    {type(None), bool, int, float, str, bytes})

#: Types the encoder hook never sees: plain data, which the object-space
#: hook declines by definition, and :class:`ObjectRef`, which is already
#: the hook's output.  A subclass of any of them is not exempt.
_HOOK_EXEMPT = _IMMUTABLE_LEAVES | {
    bytearray, memoryview, list, tuple, dict, set, frozenset, ObjectRef}


def _utf8(raw: bytes) -> str:
    """A wire string's text; the peer may have sent anything."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"string is not utf-8: {exc}") from exc


def _chunk(data: bytes, offset: int, what: str) -> tuple[bytes, int]:
    """The length-prefixed run of bytes at ``offset``, and the offset
    past it; the length is the peer's claim, so it is checked."""
    (length,) = _U32.unpack_from(data, offset)
    offset += 4
    raw = data[offset:offset + length]
    if len(raw) != length:
        raise MarshalError(f"truncated {what}")
    return raw, offset + length


class _NotPlain(Exception):
    """Raised by the plain walks: the value is not plain data, so its frame
    is encoded and decoded for real."""


def _bigint_width(value: int) -> int:
    """Bytes in the two's-complement body of a big int's wire form."""
    return (value.bit_length() + 8) // 8 + 1


def _str_wire(value: str) -> bytes:
    """A string's wire form — the one definition the encoder and the
    sizing walks share: the memo's entry, or on a miss the encoding, which
    is memoised (evicting the oldest entry at capacity) when the string is
    short."""
    cached = _STR_ENC.get(value)
    if cached is None:
        _MEMO_STATS.str_enc_misses += 1
        raw = value.encode("utf-8")
        cached = _TAG_STR + _U32.pack(len(raw)) + raw
        if len(value) <= _MEMO_MAX_STR:
            if len(_STR_ENC) >= _MEMO_MAX_ENTRIES:
                del _STR_ENC[next(iter(_STR_ENC))]
                _MEMO_STATS.evictions += 1
            _STR_ENC[value] = cached
    else:
        _MEMO_STATS.str_enc_hits += 1
    return cached


def _plain_sized(value, encoder_hook=None):
    """``(snapshot, wire size, refs)`` of a *plain* value, ``refs`` the
    number of references in it; raises :class:`_NotPlain` otherwise.

    Plain data is the immutable leaves and ``list``/``tuple``/``str``-
    keyed ``dict`` of plain data, all of exact built-in type, and refs:
    an exact :class:`ObjectRef`, or a value outside :data:`_HOOK_EXEMPT`
    that ``encoder_hook``, called where and in the order the writer
    calls it, replaces with one.  One walk proves, copies and sizes:
    leaves, refs and flat tuples of leaves are shared, every other
    container is fresh, so the snapshot equals — types included — what
    the decoder would build from the bytes; the size is the byte count
    the encoder would write, by its layout: ``None``/``bool`` 1,
    ``int``/``float`` 9 (a big int 5 plus :func:`_bigint_width`),
    ``bytes`` 5 plus its length, a string its memoised wire form
    (:func:`_str_wire`), a ref 25 plus its names, a container 5 plus its
    items.  An empty dict, and a flat run of strings and small ints (an
    args tuple, a list of keys), are sized and copied where they sit;
    any other container is one call.
    """
    str_enc = _STR_ENC
    hits = refs = 0
    cls = value.__class__
    keyed = cls is dict
    if keyed:
        size = 5
        snapshot = {}
    elif cls is list or cls is tuple:
        size = 5
        snapshot = []
    else:
        size = 0
        snapshot = []
        value = (value,)        # a leaf, sized as the one item it is
    for val in value:
        if keyed:
            key = val
            if key.__class__ is not str:
                raise _NotPlain
            enc = str_enc.get(key)
            if enc is None:
                enc = _str_wire(key)
            else:
                hits += 1
            size += len(enc)
            val = value[key]
        vcls = val.__class__
        if vcls is str:
            enc = str_enc.get(val)
            if enc is None:
                enc = _str_wire(val)
            else:
                hits += 1
            size += len(enc)
        elif vcls is int:
            size += 9 if -(2**63) <= val < 2**63 \
                else 5 + _bigint_width(val)
        elif vcls is float:
            size += 9
        elif vcls is bytes:
            size += 5 + len(val)
        elif val is None or vcls is bool:
            size += 1
        elif vcls is list or vcls is tuple:
            inner = 5
            run_hits = 0
            for item in val:
                icls = item.__class__
                if icls is str:
                    enc = str_enc.get(item)
                    if enc is None:
                        enc = _str_wire(item)
                    else:
                        run_hits += 1
                    inner += len(enc)
                elif icls is int and -(2**63) <= item < 2**63:
                    inner += 9
                else:
                    val, inner, more = _plain_sized(val, encoder_hook)
                    refs += more
                    break
            else:
                hits += run_hits
                if vcls is list:
                    val = val[:]
            size += inner
        elif vcls is dict:
            if val:
                val, inner, more = _plain_sized(val, encoder_hook)
                size += inner
                refs += more
            else:
                val = {}
                size += 5
        else:
            if vcls is not ObjectRef:
                if encoder_hook is None or vcls in _HOOK_EXEMPT:
                    raise _NotPlain
                val = encoder_hook(val)
                if val.__class__ is not ObjectRef:
                    raise _NotPlain
            # A ref is 25 bytes and its names' UTF-8.  One the writer would
            # not write as sent (a name not str, an epoch no i64) is written.
            epoch = val.epoch
            if epoch.__class__ is not int or not -(2**63) <= epoch < 2**63:
                raise _NotPlain
            size += 25
            for name in (val.context_id, val.oid, val.interface, val.policy):
                if name.__class__ is not str:
                    raise _NotPlain
                size += len(name) if name.isascii() \
                    else len(name.encode("utf-8"))
            refs += 1
        if keyed:
            snapshot[key] = val
        else:
            snapshot.append(val)
    _MEMO_STATS.str_enc_hits += hits
    if cls is tuple:
        return tuple(snapshot), size, refs
    if keyed or cls is list:
        return snapshot, size, refs
    return snapshot[0], size, refs


def _pure_size(value) -> int | None:
    """Wire size of a *pure* value — an immutable leaf, or an exact
    ``tuple`` of pure values — or ``None`` for anything else.

    Nothing in a pure value can change, so the walk takes no snapshot:
    the message shares the value itself.  It sizes by the layout
    :func:`_plain_sized` reads, strings through the same memo.  Nothing
    is keyed on the value, so ``True``, ``1`` and ``1.0`` (or ``0.0`` and
    ``-0.0``) can never stand in for one another.
    """
    hits = 0
    if value.__class__ is tuple:
        size = 5
    else:
        size = 0
        value = (value,)        # a leaf, sized as the one item it is
    for item in value:
        cls = item.__class__
        if cls is str:
            enc = _STR_ENC.get(item)
            if enc is None:
                enc = _str_wire(item)
            else:
                hits += 1
            size += len(enc)
        elif cls is int:
            size += 9 if -(2**63) <= item < 2**63 \
                else 5 + _bigint_width(item)
        elif cls is float:
            size += 9
        elif cls is bytes:
            size += 5 + len(item)
        elif item is None or cls is bool:
            size += 1
        elif cls is tuple:
            inner = _pure_size(item)
            if inner is None:
                return None
            size += inner
        else:
            return None
    _MEMO_STATS.str_enc_hits += hits
    return size


def _pure_dict_size(value) -> int | None:
    """Wire size of an envelope — an exact ``dict`` (the caller checks
    the type) of ``str`` keys and pure values — or ``None`` for anything
    else.

    A dict is pure only at the top of a frame: a value that is a list or
    a dict, or a tuple holding one, is not pure.  The walk takes no
    snapshot; the message carries the dict's shallow copy, which is a
    full one because every value in it is immutable.  It sizes as
    :func:`_pure_size` does, keys and values in the encoder's order.  A
    string is its memo entry or, on a miss, :func:`_str_wire`'s, which
    counts the miss; every other lookup is a hit, counted once at the end.
    """
    str_enc = _STR_ENC
    stats = _MEMO_STATS
    missed = stats.str_enc_misses
    looked = len(value)         # every key is a string's lookup
    size = 5
    for key, item in value.items():
        if key.__class__ is not str:
            return None
        size += len(str_enc.get(key) or _str_wire(key))
        cls = item.__class__
        if cls is str:
            size += len(str_enc.get(item) or _str_wire(item))
            looked += 1
        elif cls is int:
            size += 9 if -(2**63) <= item < 2**63 \
                else 5 + _bigint_width(item)
        elif cls is tuple:
            # A spec — a key, a term and leader — is a flat run of strings
            # and small ints, sized where it sits; anything else is a call,
            # which counts its own lookups.
            inner = 5
            for part in item:
                pcls = part.__class__
                if pcls is str:
                    inner += len(str_enc.get(part) or _str_wire(part))
                    looked += 1
                elif pcls is int and -(2**63) <= part < 2**63:
                    inner += 9
                else:
                    before = stats.str_enc_misses
                    inner = _pure_size(item)
                    if inner is None:
                        return None
                    missed += stats.str_enc_misses - before
                    break
            size += inner
        elif cls is float:
            size += 9
        elif item is None or cls is bool:
            size += 1
        elif cls is bytes:
            size += 5 + len(item)
        else:
            return None
    stats.str_enc_hits += looked - (stats.str_enc_misses - missed)
    return size


def _plain_copy(value):
    """A fresh copy of a plain value (a delivery of a carried snapshot).

    Leaves and flat tuples of leaves are shared, every other container
    is fresh, so the copy equals — types included — what the decoder
    would build from the bytes.  A flat sequence and an empty dict are
    copied inline where they sit, because frames are a few tiny
    containers and a call per container costs more than the copy.
    Raises :class:`_NotPlain` on anything that is not plain data.
    """
    leaves = _IMMUTABLE_LEAVES
    cls = value.__class__
    if cls in leaves:
        return value
    if cls is dict:
        copy = {}
        for key, val in value.items():
            if key.__class__ is not str:
                raise _NotPlain
            vcls = val.__class__
            if vcls not in leaves:
                if vcls is list or vcls is tuple:
                    for item in val:
                        if item.__class__ not in leaves:
                            val = _plain_copy(val)
                            break
                    else:
                        val = val[:]    # a tuple slices to itself
                elif vcls is dict and not val:
                    val = {}
                else:
                    val = _plain_copy(val)
            copy[key] = val
        return copy
    if cls is list or cls is tuple:
        items = []
        for val in value:
            vcls = val.__class__
            if vcls not in leaves:
                if vcls is list or vcls is tuple:
                    for item in val:
                        if item.__class__ not in leaves:
                            val = _plain_copy(val)
                            break
                    else:
                        val = val[:]
                elif vcls is dict and not val:
                    val = {}
                else:
                    val = _plain_copy(val)
            items.append(val)
        return items if cls is list else tuple(items)
    raise _NotPlain


def _ref_copy(value, decoder_hook):
    """A delivery of a snapshot that holds references: every container
    fresh, leaves shared, and each ref handed to ``decoder_hook`` (when
    there is one) in the order the decoder would meet it."""
    leaves = _IMMUTABLE_LEAVES
    cls = value.__class__
    if cls is ObjectRef:
        return value if decoder_hook is None else decoder_hook(value)
    if cls in leaves:
        return value
    items = []
    for val in value.values() if cls is dict else value:
        if val.__class__ not in leaves:
            val = _ref_copy(val, decoder_hook)
        items.append(val)
    if cls is dict:
        return dict(zip(value, items))
    return items if cls is list else tuple(items)


class WireMessage(NamedTuple):
    """One frame in transit, immutable: its honest wire size, and the
    fields it carries or its contiguous image (the carry's choice,
    :meth:`Marshaller.encode_frame_message`).  A named tuple, built in C
    (``tuple.__new__``) once per frame sent.

    Attributes:
        head: the frame's wire image, as :meth:`Marshaller.
            encode_frame_fields` writes it; ``None`` for a sized message.
        nbytes: honest wire size — ``len(head)``, or for a sized message
            the byte count the encoder would write.  Marshal charges and
            network transit times read it, counted once, when the frame
            is encoded.
        carried: the frame's fields when they are *plain data* (and
            ``head`` is ``None``), never handed out.  A pure message's are
            ``(kind, msg_id, src, dst, target, verb, body, pair)``, shared
            with the sender because they are deeply immutable: its headers
            are empty, and when ``pair`` is true ``body`` is the args
            tuple of an ``(args, {})`` body.  An envelope's last field is
            ``(headers, pair)``: the dict it carries (the headers, or with
            ``pair`` false the body) is a shallow copy made when the frame
            was sent, which is a snapshot because its values are
            immutable.  A plain one's are the eight fields ``(kind,
            msg_id, src, dst, target, verb, body, headers)``, every
            container a copy made when the frame was sent; with
            references the headers ride as ``[headers]``.  The last
            field's type tells the four apart; each form has one reader
            (:mod:`repro.wire.frames` names them).  ``None`` when the
            frame must be decoded.
    """

    head: bytes | None
    nbytes: int
    carried: tuple | None = None

    @classmethod
    def wrap(cls, image) -> WireMessage:
        """A wire image handed in as bytes, as a message: a ``bytes``,
        ``bytearray`` or ``memoryview`` image is copied to ``bytes`` and
        its length is its size; anything else raises
        :class:`ProtocolError`."""
        if not isinstance(image, (bytes, bytearray, memoryview)):
            raise ProtocolError(
                f"not a wire image: {type(image).__name__!r}")
        image = bytes(image)
        return tuple.__new__(cls, (image, len(image), None))

    def __len__(self) -> int:
        return self.nbytes

    def to_bytes(self) -> bytes:
        """The contiguous wire image, decodable by the byte-stream decoder.

        A sized message's image is written now, by the encoder, from the
        fields it carries: they are hook-exempt, so the hook-free
        marshaller writes the bytes the sender's would have."""
        if self.head is not None:
            return self.head
        kind, msg_id, src, dst, target, verb, body, last = self.carried
        if last.__class__ is bool:          # a pure message's pair flag
            body, last = ((body, {}) if last else body), {}
        elif last.__class__ is tuple:       # an envelope's (headers, pair)
            last, pair = last
            if pair:
                body = (body, {})
        elif last.__class__ is list:        # with references: [headers]
            last = last[0]
        return PLAIN.encode_frame_fields(kind, msg_id, src, dst, target,
                                         verb, body, last)

    def __repr__(self) -> str:
        form = "written" if self.carried is None else "carried"
        return f"WireMessage({self.nbytes} bytes, {form})"


class Marshaller:
    """Encodes and decodes wire values, applying optional swizzle hooks."""

    def __init__(self, encoder_hook: EncoderHook | None = None,
                 decoder_hook: DecoderHook | None = None):
        self.encoder_hook = encoder_hook
        self.decoder_hook = decoder_hook

    # -- encoding ------------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Encode ``value`` to wire bytes."""
        out = bytearray()
        self._encode_into(value, out)
        return bytes(out)

    def _encode_into(self, value: Any, out: bytearray) -> None:
        """Append ``value``'s encoding to ``out``: one arm per type.

        The hook sees first every value whose exact type is not
        hook-exempt (:data:`_HOOK_EXEMPT`).  A subclass of a built-in type
        the hook declines is written as its base type.
        """
        if value.__class__ not in _HOOK_EXEMPT \
                and self.encoder_hook is not None:
            replacement = self.encoder_hook(value)
            if replacement is not None:
                value = replacement
        if value is None:
            out += _TAG_NONE
        elif value is True:
            out += _TAG_TRUE
        elif value is False:
            out += _TAG_FALSE
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                out += _TAG_INT
                out += _I64.pack(value)
            else:
                raw = value.to_bytes(_bigint_width(value), "big", signed=True)
                out += _TAG_BIGINT
                out += _U32.pack(len(raw))
                out += raw
        elif isinstance(value, float):
            out += _TAG_FLOAT
            out += _F64.pack(value)
        elif isinstance(value, str):
            out += _str_wire(value)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            out += _TAG_BYTES
            out += _U32.pack(len(raw))
            out += raw
        elif isinstance(value, ObjectRef):
            out += _TAG_REF
            for field in (value.context_id, value.oid, value.interface,
                          value.policy):
                raw = field.encode("utf-8")
                out += _U32.pack(len(raw))
                out += raw
            out += _I64.pack(value.epoch)
        elif isinstance(value, (list, tuple)):
            out += _TAG_LIST if isinstance(value, list) else _TAG_TUPLE
            out += _U32.pack(len(value))
            for item in value:
                self._encode_into(item, out)
        elif isinstance(value, dict):
            out += _TAG_DICT
            out += _U32.pack(len(value))
            for key, val in value.items():
                self._encode_into(key, out)
                self._encode_into(val, out)
        elif isinstance(value, (set, frozenset)):
            out += _TAG_FROZENSET if isinstance(value, frozenset) \
                else _TAG_SET
            out += _U32.pack(len(value))
            for item in sorted(value, key=repr):
                self._encode_into(item, out)
        else:
            raise MarshalError(
                f"cannot marshal {type(value).__name__!r} value {value!r}; "
                "pass plain data, or export the object so it travels by reference")

    # -- frames ----------------------------------------------------------------

    def encode_frame_fields(self, kind: str, msg_id: int, src: str, dst: str,
                            target: str, verb: str, body: Any,
                            headers: dict) -> bytes:
        """Encode a frame: ``encode([kind, msg_id, src, dst, target, verb,
        body, headers])``, for a kind in :data:`FRAME_KINDS`; any other
        raises :class:`ProtocolError`."""
        if kind not in FRAME_KINDS:
            raise ProtocolError(f"unknown frame kind {kind!r}")
        out = bytearray()
        self._encode_into([kind, msg_id, src, dst, target, verb, body,
                           headers], out)
        return bytes(out)

    def encode_frame_message(self, kind: str, msg_id: int, src: str,
                             dst: str, target: str, verb: str, body: Any,
                             headers: dict):
        """Encode one frame into a :class:`WireMessage`.

        Every outcome has the honest wire size (``nbytes``, counted once,
        here), and only a frame the carry cannot take has bytes.  A
        *pure* frame (:func:`_pure_size`), an *envelope*
        (:func:`_pure_dict_size`) and any other *plain* one
        (:func:`_plain_sized`: one walk, now — as the bytes would have
        been, the encoder hook called as the writer calls it) carry their
        fields as :attr:`WireMessage.carried` lays them out.  Anything
        else is written contiguously and decoded at the receiver: the
        head is exactly what :meth:`encode_frame_fields` produces.

        A sized message's image is written by :meth:`WireMessage.to_bytes`
        if anyone asks.  A frame of an unknown kind is never sized: it is
        left to :meth:`encode_frame_fields`, which refuses it.
        """
        if headers.__class__ is dict and kind in FRAME_KINDS:
            carried = None
            if headers:
                # An envelope: an ``(args, {})`` request with pure args and
                # pure headers.  The dict travels as a shallow copy.
                if body.__class__ is tuple and len(body) == 2 \
                        and body[0].__class__ is tuple \
                        and body[1].__class__ is dict and not body[1]:
                    nbytes = _pure_size(body[0])
                    size = None if nbytes is None \
                        else _pure_dict_size(headers)
                    if size is not None:
                        nbytes += size + 10     # the pair's tuple, dict
                        carried = (kind, msg_id, src, dst, target, verb,
                                   body[0], (headers.copy(), True))
            elif body.__class__ is dict:
                # An envelope too: a pure body dict (a reply wrapper) with
                # empty headers, travelling as a shallow copy.  A dict is
                # never pure itself, so it skips the pure walk.
                nbytes = _pure_dict_size(body)
                if nbytes is not None:
                    nbytes += 5                 # the empty headers
                    carried = (kind, msg_id, src, dst, target, verb,
                               body.copy(), ({}, False))
            else:
                # A request/oneway body ``(args, {})`` is pure when its
                # args tuple is: every receiver gets a fresh kwargs dict,
                # so no mutable object is ever shared.
                pair = body.__class__ is tuple and len(body) == 2 \
                    and body[0].__class__ is tuple \
                    and body[1].__class__ is dict and not body[1]
                nbytes = _pure_size(body[0] if pair else body)
                if nbytes is not None:
                    # The headers' empty dict; a pair's tuple and dict.
                    nbytes += 15 if pair else 5
                    carried = (kind, msg_id, src, dst, target, verb,
                               body[0] if pair else body, pair)
            if carried is None:
                hook = self.encoder_hook
                try:
                    snap_body, nbytes, refs = _plain_sized(body, hook)
                    snap_headers, size, more = _plain_sized(
                        headers, hook) if headers else ({}, 5, 0)
                    nbytes += size
                    refs += more
                except _NotPlain:
                    pass
                else:
                    # With references, the headers ride in a list.
                    carried = (kind, msg_id, src, dst, target, verb,
                               snap_body,
                               [snap_headers] if refs else snap_headers)
            if carried is not None:
                # The eight-field list: its header, the id, five strings.
                nbytes += 5 + (9 if -(2**63) <= msg_id < 2**63
                               else 5 + _bigint_width(msg_id))
                str_enc = _STR_ENC
                try:
                    nbytes += len(str_enc[kind]) + len(str_enc[src]) \
                        + len(str_enc[dst]) + len(str_enc[target]) \
                        + len(str_enc[verb])
                    _MEMO_STATS.str_enc_hits += 5
                except KeyError:
                    for text in (kind, src, dst, target, verb):
                        nbytes += len(_str_wire(text))
                return tuple.__new__(WireMessage, (None, nbytes, carried))
        head = self.encode_frame_fields(kind, msg_id, src, dst, target,
                                        verb, body, headers)
        return tuple.__new__(WireMessage, (head, len(head), None))

    # Dead: benchmarks/perf/perf_spans.py (LAYER_MAP) wraps it by name.
    def decode_frame_message(self, msg: WireMessage):
        """Decode a written :class:`WireMessage`'s head."""
        return self.decode_frame_fields(msg.head)

    # -- decoding ------------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        """Decode wire bytes produced by :meth:`encode`."""
        return self._decode_image(data)

    def decode_frame_fields(self, data: bytes) -> Any:
        """Decode a frame image encoded by :meth:`encode_frame_fields`.

        Returns whatever value the image holds — a peer may send a frame
        of any shape, and :func:`repro.wire.frames.fields_of` is what
        refuses one that is not eight fields.  Counted in ``frames_decoded``.
        """
        _MEMO_STATS.frames_decoded += 1
        return self._decode_image(data)

    def _decode_image(self, data) -> Any:
        """The one way into the walk: a whole image is exactly one value.

        A ``bytearray`` or ``memoryview`` image is copied to ``bytes``
        first, so every ``bytes`` leaf comes back as ``bytes``.
        """
        if data.__class__ is not bytes:
            data = bytes(data)
        value, offset = self._decode_from(data, 0, 0)
        if offset != len(data):
            raise MarshalError(f"trailing garbage: {len(data) - offset} bytes")
        return value

    def _decode_from(self, data: bytes, offset: int,
                     depth: int) -> tuple[Any, int]:
        """The value at ``offset`` and the offset past it; ``depth``
        counts the containers around it."""
        try:
            tag = data[offset]
            offset += 1
            if tag == _ORD_NONE:
                return None, offset
            if tag == _ORD_TRUE:
                return True, offset
            if tag == _ORD_FALSE:
                return False, offset
            if tag == _ORD_INT:
                return _I64.unpack_from(data, offset)[0], offset + 8
            if tag == _ORD_BIGINT:
                raw, offset = _chunk(data, offset, "big integer")
                return int.from_bytes(raw, "big", signed=True), offset
            if tag == _ORD_FLOAT:
                return _F64.unpack_from(data, offset)[0], offset + 8
            if tag == _ORD_STR:
                raw, offset = _chunk(data, offset, "string")
                return _utf8(raw), offset
            if tag == _ORD_BYTES:
                return _chunk(data, offset, "bytes")
            if tag == _ORD_REF:
                fields = []
                for _ in range(4):
                    raw, offset = _chunk(data, offset, "ref")
                    fields.append(_utf8(raw))
                (epoch,) = _I64.unpack_from(data, offset)
                ref = ObjectRef(fields[0], fields[1], fields[2], epoch,
                                fields[3])
                if self.decoder_hook is not None:
                    ref = self.decoder_hook(ref)
                return ref, offset + 8
            if tag in _CONTAINER_TAGS:
                depth += 1
                if depth > _MAX_DEPTH:
                    raise MarshalError(
                        f"nesting deeper than {_MAX_DEPTH} at offset "
                        f"{offset - 1}")
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                if tag == _ORD_DICT:
                    result = {}
                    for _ in range(length):
                        key, offset = self._decode_from(data, offset, depth)
                        val, offset = self._decode_from(data, offset, depth)
                        try:
                            result[key] = val
                        except TypeError as exc:
                            raise MarshalError(f"dict key: {exc}") from exc
                    return result, offset
                items = []
                for _ in range(length):
                    item, offset = self._decode_from(data, offset, depth)
                    items.append(item)
                if tag == _ORD_LIST:
                    return items, offset
                if tag == _ORD_TUPLE:
                    return tuple(items), offset
                try:
                    if tag == _ORD_SET:
                        return set(items), offset
                    return frozenset(items), offset
                except TypeError as exc:
                    raise MarshalError(f"set member: {exc}") from exc
        except (struct.error, IndexError) as exc:
            raise MarshalError(f"truncated wire data at offset {offset}") from exc
        raise MarshalError(
            f"unknown wire tag {bytes((tag,))!r} at offset {offset - 1}")


#: A hook-free marshaller, for layers that must see raw refs (naming, GC).
PLAIN = Marshaller()
