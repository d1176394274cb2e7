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

Performance model (see DESIGN.md): encoding dispatches on the *exact* type
of each value through a table of fast encoders.  Values of a built-in
primitive or container type are **hook-exempt** — the swizzle hook cannot
replace a plain int or list (the object-space hook declines them by
definition), so consulting it per value is pure overhead on the hot path.
Hooks still see every value of any other type, including elements nested
inside containers, so reference swizzling is unaffected.  Encodings are
byte-for-byte identical to the naive encoder (the fuzz test in
``tests/wire/test_marshal_fastpath.py`` keeps the naive encoder around as
the reference implementation and asserts exactly that).  Small immutable
payloads — interned strings such as verbs, context ids and hot keys, and
small ints — additionally hit a bounded encode memo, which is safe
precisely because the encoding of a primitive is a pure function of its
value.  The memos evict FIFO at capacity and export hit/size counters
(:func:`memo_stats`, surfaced via :mod:`repro.metrics`).  They are
encode-only: nothing on the decode side is memoised.

The decoder is the reference path, not a fast one.  Since the carry
(below) a receiver unmarshals only a frame that holds a reference, and
whatever a peer crafts — so it is one recursive walk with one arm per
tag, whose jobs are turning refs into proxies and refusing hostile input:
truncation, non-utf-8 text, unhashable keys and set members, trailing
bytes, unconsumed raw segments, unknown tags and nesting deeper than
:data:`_MAX_DEPTH` all raise :class:`MarshalError`.

Three message-level fast paths sit on top (all byte-transparent on the
wire — see ``wire/segments.py`` and DESIGN.md's zero-copy subsection):

* **raw segments** — a ``bytes``/``bytearray``/``memoryview`` payload of
  at least :data:`RAW_THRESHOLD` bytes encodes as a 5-byte marker (same
  overhead as the inline bytes tag, so wire sizes and therefore virtual
  timings are unchanged) while the payload object rides a segment list,
  uncopied.  Exact built-in types only: subclasses keep the legacy
  hook-first copying path, so swizzle semantics are untouched.
* **the carry** — a frame whose headers and body are *plain data* (exact
  built-in leaves, and ``list``/``tuple``/``str``-keyed ``dict`` of
  plain data: what no hook can touch) is not written at all: one walk
  (:func:`_plain_sized`) proves it plain, snapshots it and counts the
  bytes the encoder would write, and the message carries the snapshot
  and that size.  Every delivery gets its own copy of the snapshot
  instead of running the decoder, and the bytes are written only if
  someone asks for the image.  Anything else — a reference, a subclass,
  a set, a ``bytearray``, a non-string key — is encoded and decoded.
* **frame templates** — a *pure* frame (empty headers, deeply-immutable
  body) keeps its image: its encoded suffix is memoised per ``(kind,
  src, dst, target, verb, body)``, so a repeat send costs one
  concatenation, and it carries its fields, which need no copy.  No
  template is keyed on envelope values.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from ..kernel.errors import MarshalError, ProtocolError
from .refs import ObjectRef
from .segments import WireMessage

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
_TAG_RAW = b"r"

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
_ORD_RAW = _TAG_RAW[0]
_CONTAINER_TAGS = frozenset(
    {_ORD_LIST, _ORD_TUPLE, _ORD_DICT, _ORD_SET, _ORD_FROZENSET})

#: Bulk payloads at least this long take the zero-copy raw-segment path
#: when encoding through :meth:`Marshaller.encode_frame_message`.  Below
#: it the inline bytes encoding is byte-identical to the legacy path.
#: The marker costs exactly as many wire bytes as the inline tag (1 tag
#: + 4 length), so the threshold is invisible to the cost model.
RAW_THRESHOLD = 4096

#: Deepest container nesting the decoder follows (the frame list is one
#: level).  Wire input comes from a peer: past this bound the walk raises
#: :class:`MarshalError` instead of exhausting the interpreter stack.  The
#: deepest frame any test, experiment, example, benchmark or simtest
#: battery encodes is 8 levels (6 outside the generated tests).
_MAX_DEPTH = 64

# Precomputed fragments for the frame fast path: every frame is an 8-element
# list, and its headers dict is empty on all but protocol-extension frames.
_LIST8_HEAD = _TAG_LIST + _U32.pack(8)
_EMPTY_DICT = _TAG_DICT + _U32.pack(0)

#: Frame kinds.  :meth:`Marshaller.encode_frame_fields`, which every frame
#: (or the template it was recorded from) passes, refuses any other.
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

# -- encode memos for identical small payloads ---------------------------------
#
# Verbs, context ids, frame kinds and hot application keys repeat endlessly;
# their encodings are pure functions of the value, so a bounded memo turns
# "utf-8 encode + length pack + two appends" into one dict hit.  Bounded so a
# pathological workload of unique strings cannot grow them without limit:
# at capacity the oldest entry is evicted FIFO (dicts iterate in insertion
# order), so a churning workload recycles slots instead of freezing the
# memo with its first 4096 values.

_MEMO_MAX_ENTRIES = 4096
_MEMO_MAX_STR = 64

_STR_ENC: dict[str, bytes] = {}
_INT_ENC: dict[int, bytes] = {}

#: Encoded-suffix memo for pure frames, keyed
#: ``(kind, src, dst, target, verb, payload, is_pair)`` — see
#: :meth:`Marshaller.encode_frame_message`.  Safe globally (across all
#: marshaller instances) because a pure frame's encoding is
#: hook-independent by construction.
_TMPL_ENC: dict[tuple, tuple] = {}


class MemoStats:
    """Hit/miss/eviction counters for the marshalling memos.

    Monotonic since process start (or the last :func:`reset_memo_stats`);
    surfaced through :func:`memo_stats` and re-exported by
    :mod:`repro.metrics`.  Counters live off the trace/cost model — they
    observe the simulator, they never feed it.
    """

    __slots__ = ("str_enc_hits", "str_enc_misses", "int_enc_hits",
                 "int_enc_misses", "tmpl_hits", "tmpl_misses", "evictions",
                 "frames_carried", "frames_decoded")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.str_enc_hits = 0
        self.str_enc_misses = 0
        self.int_enc_hits = 0
        self.int_enc_misses = 0
        self.tmpl_hits = 0
        self.tmpl_misses = 0
        self.evictions = 0
        # Inbound frames by how they were rebuilt: from the snapshot the
        # message carried, or by the decoder.
        self.frames_carried = 0
        self.frames_decoded = 0


_MEMO_STATS = MemoStats()


def _memo_put(memo: dict, key, value) -> None:
    """Insert with FIFO eviction at capacity (all memos share the bound)."""
    if len(memo) >= _MEMO_MAX_ENTRIES:
        del memo[next(iter(memo))]
        _MEMO_STATS.evictions += 1
    memo[key] = value


def memo_stats() -> dict:
    """Counter snapshot plus live sizes of every marshalling memo."""
    stats = _MEMO_STATS
    return {
        "str_enc_hits": stats.str_enc_hits,
        "str_enc_misses": stats.str_enc_misses,
        "int_enc_hits": stats.int_enc_hits,
        "int_enc_misses": stats.int_enc_misses,
        "tmpl_hits": stats.tmpl_hits,
        "tmpl_misses": stats.tmpl_misses,
        "evictions": stats.evictions,
        "frames_carried": stats.frames_carried,
        "frames_decoded": stats.frames_decoded,
        "str_enc_size": len(_STR_ENC),
        "int_enc_size": len(_INT_ENC),
        "tmpl_size": len(_TMPL_ENC),
        "max_entries": _MEMO_MAX_ENTRIES,
    }


def reset_memo_stats() -> None:
    """Zero the counters (test isolation; the memos themselves persist)."""
    _MEMO_STATS.reset()


def clear_memos() -> None:
    """Empty every memo (tests that probe cold-cache behaviour)."""
    _STR_ENC.clear()
    _INT_ENC.clear()
    _TMPL_ENC.clear()


#: Leaf types whose values the swizzle hooks can never replace and whose
#: identity may be shared safely across context boundaries.
_IMMUTABLE_LEAVES = frozenset(
    {type(None), bool, int, float, str, bytes})


def _typed_key(value):
    """Hashable exact-type memo key for a deeply-immutable value, or
    ``None`` when the value is not deeply immutable.

    Plain values are unusable as template keys directly: Python dicts
    treat ``True``, ``1`` and ``1.0`` as the same key (and ``0.0`` as
    ``-0.0``), so a template recorded for one would silently serve the
    others — wrong tag on the wire, wrong carried value at the receiver.
    Every leaf is therefore paired with its exact class, and floats are
    keyed by their bit pattern.
    """
    cls = value.__class__
    if cls is tuple:
        # Iterative walk of the overwhelmingly common shape — a flat
        # tuple of leaves — recursing only for nested tuples.
        leaves = _IMMUTABLE_LEAVES
        parts = []
        for item in value:
            icls = item.__class__
            if icls in leaves:
                if icls is float:
                    parts.append((icls, _F64.pack(item)))
                else:
                    parts.append((icls, item))
            elif icls is tuple:
                k = _typed_key(item)
                if k is None:
                    return None
                parts.append(k)
            else:
                return None
        return (tuple, tuple(parts))
    if cls in _IMMUTABLE_LEAVES:
        if cls is float:
            return (cls, _F64.pack(value))
        return (cls, value)
    return None


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
    sizing walk share: the memo's entry, or on a miss the encoding, which
    is memoised when the string is short."""
    cached = _STR_ENC.get(value)
    if cached is None:
        _MEMO_STATS.str_enc_misses += 1
        raw = value.encode("utf-8")
        cached = _TAG_STR + _U32.pack(len(raw)) + raw
        if len(value) <= _MEMO_MAX_STR:
            _memo_put(_STR_ENC, value, cached)
    else:
        _MEMO_STATS.str_enc_hits += 1
    return cached


def _plain_sized(value):
    """``(snapshot, wire size)`` of a *plain* value; raises
    :class:`_NotPlain` otherwise.

    Plain data is what no hook can ever see: the immutable leaves, and
    ``list``/``tuple``/``str``-keyed ``dict`` of plain data, all of exact
    built-in type (subclasses, sets, ``bytearray``, ``ObjectRef`` and
    application objects take the hook-first encoder and the real
    decoder).  One walk proves, copies and sizes: leaves and flat tuples
    of leaves are shared, every other container is fresh, so the
    snapshot equals — types included — what the decoder would build from
    the bytes; the size is the byte count the encoder would write, by
    its layout: ``None``/``bool`` 1, ``int``/``float`` 9 (a big int as
    :func:`_enc_int` writes it), ``bytes`` 5 plus its length (inline or
    raw), a string its memoised wire form (:func:`_str_wire`), a
    container 5 plus its items.  An empty dict, and a flat run of strings
    and small ints (an envelope's key spec, a term, an args tuple), are
    sized and copied where they sit; any other container is one call.
    """
    str_enc = _STR_ENC
    hits = 0
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
                    val, inner = _plain_sized(val)
                    break
            else:
                hits += run_hits
                if vcls is list:
                    val = val[:]
            size += inner
        elif vcls is dict:
            if val:
                val, inner = _plain_sized(val)
                size += inner
            else:
                val = {}
                size += 5
        else:
            raise _NotPlain
        if keyed:
            snapshot[key] = val
        else:
            snapshot.append(val)
    _MEMO_STATS.str_enc_hits += hits
    if cls is tuple:
        return tuple(snapshot), size
    if keyed or cls is list:
        return snapshot, size
    return snapshot[0], size


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


class Marshaller:
    """Encodes and decodes wire values, applying optional swizzle hooks."""

    def __init__(self, encoder_hook: EncoderHook | None = None,
                 decoder_hook: DecoderHook | None = None):
        self.encoder_hook = encoder_hook
        self.decoder_hook = decoder_hook
        # Per-message codec state.  ``_segs`` collects (offset, payload)
        # pairs while a message encode is in flight (None otherwise —
        # plain ``encode`` never emits raw markers, keeping its output
        # byte-identical to the legacy format).  ``_split`` holds the
        # inbound segment tuple while a message decode is in flight.
        self._segs: list | None = None
        self._split: tuple | None = None
        self._split_idx = 0

    # -- encoding ------------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Encode ``value`` to wire bytes."""
        out = bytearray()
        self._encode_into(value, out)
        return bytes(out)

    def _encode_into(self, value: Any, out: bytearray) -> None:
        fast = _FAST_ENCODERS.get(value.__class__)
        if fast is not None:
            fast(self, value, out)
        else:
            self._encode_general(value, out)

    def _encode_general(self, value: Any, out: bytearray) -> None:
        """Hook consultation plus the full isinstance chain.

        This is the reference semantics the fast path must agree with; it
        also handles subclasses of the built-in types, which the exact-type
        dispatch table deliberately does not claim.
        """
        if self.encoder_hook is not None:
            replacement = self.encoder_hook(value)
            if replacement is not None and replacement is not value:
                value = replacement
        if value is None:
            out += _TAG_NONE
        elif value is True:
            out += _TAG_TRUE
        elif value is False:
            out += _TAG_FALSE
        elif isinstance(value, int):
            _enc_int(self, value, out)
        elif isinstance(value, float):
            out += _TAG_FLOAT
            out += _F64.pack(value)
        elif isinstance(value, str):
            _enc_str(self, value, out)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            out += _TAG_BYTES
            out += _U32.pack(len(raw))
            out += raw
        elif isinstance(value, ObjectRef):
            self._encode_ref(value, out)
        elif isinstance(value, list):
            _enc_list(self, value, out)
        elif isinstance(value, tuple):
            _enc_tuple(self, value, out)
        elif isinstance(value, dict):
            _enc_dict(self, value, out)
        elif isinstance(value, frozenset):
            _enc_frozenset(self, value, out)
        elif isinstance(value, set):
            _enc_set(self, value, out)
        else:
            raise MarshalError(
                f"cannot marshal {type(value).__name__!r} value {value!r}; "
                "pass plain data, or export the object so it travels by reference")

    # -- the frame fast path --------------------------------------------------

    def encode_frame_fields(self, kind: str, msg_id: int, src: str, dst: str,
                            target: str, verb: str, body: Any,
                            headers: dict) -> bytes:
        """Encode the 8-field frame list without materialising the list.

        Byte-identical to ``encode([kind, msg_id, src, dst, target, verb,
        body, headers])``.  The framing layer's one hot structure gets its
        own path: five memo-hit strings, one small int, the body, and an
        almost-always-empty headers dict.  A kind outside
        :data:`FRAME_KINDS` raises :class:`ProtocolError`.
        """
        if kind not in FRAME_KINDS:
            raise ProtocolError(f"unknown frame kind {kind!r}")
        stats = _MEMO_STATS
        out = bytearray(_LIST8_HEAD)
        cached = _STR_ENC.get(kind)
        if cached is not None:
            stats.str_enc_hits += 1
            out += cached
        else:
            _enc_str(self, kind, out)
        cached = _INT_ENC.get(msg_id)
        if cached is not None:
            stats.int_enc_hits += 1
            out += cached
        elif 0 <= msg_id < 2**63:
            # Minted message ids are sequential and never repeat, so
            # memoising them would be pure churn: pack without inserting.
            out += _TAG_INT
            out += _I64.pack(msg_id)
        else:
            _enc_int(self, msg_id, out)
        for text in (src, dst, target, verb):
            cached = _STR_ENC.get(text)
            if cached is not None:
                stats.str_enc_hits += 1
                out += cached
            else:
                _enc_str(self, text, out)
        self._encode_into(body, out)
        if headers.__class__ is dict and not headers:
            out += _EMPTY_DICT
        else:
            self._encode_into(headers, out)
        return bytes(out)

    # -- the message fast path (zero-copy + the carry) -----------------------

    def encode_frame_message(self, kind: str, msg_id: int, src: str,
                             dst: str, target: str, verb: str, body: Any,
                             headers: dict):
        """Encode one frame into a :class:`WireMessage`.

        Every outcome has the honest wire size (``nbytes``, counted once,
        here):

        * a *pure* frame (empty headers, deeply-immutable body) → its
          image from the frame template, so a repeat send costs one
          concatenation, and its fields, which need no copy;
        * headers and body both *plain* → no image: the message carries
          a snapshot of the eight fields and the size the encoder would
          write (:func:`_plain_sized`, one walk, now — as the bytes would
          have been); :meth:`WireMessage.to_bytes` writes the image if
          anyone asks.  An unknown kind is left to
          :meth:`encode_frame_fields`, which refuses it;
        * anything else → decoded for real at the receiver: the head is
          exactly what :meth:`encode_frame_fields` produces, or — with
          bulk payloads — the segments hold the payload objects uncopied.
        """
        key = carried = None
        headers_ok = headers.__class__ is dict
        if headers_ok and not headers and 0 <= msg_id < 2**63:
            # A request/oneway body ``(args, {})`` is pure when its args
            # tuple is: every receiver gets a fresh kwargs dict, so no
            # mutable object is ever shared.
            is_pair = body.__class__ is tuple and len(body) == 2 \
                and body[0].__class__ is tuple \
                and body[1].__class__ is dict and not body[1]
            pkey = _typed_key(body[0] if is_pair else body)
            if pkey is not None:
                key = (kind, src, dst, target, verb, pkey, is_pair)
                carried = (kind, msg_id, src, dst, target, verb,
                           body[0] if is_pair else body, is_pair)
                tmpl = _TMPL_ENC.get(key)
                if tmpl is not None:
                    _MEMO_STATS.tmpl_hits += 1
                    prefix, suffix, segments, nbytes = tmpl
                    # Minted ids are sequential and mostly cold in
                    # _INT_ENC; packing outright beats probing it.
                    return WireMessage(
                        prefix + _TAG_INT + _I64.pack(msg_id) + suffix,
                        segments, nbytes, carried)
                _MEMO_STATS.tmpl_misses += 1
        if key is None and headers_ok and kind in FRAME_KINDS:
            try:
                snap_body, nbytes = _plain_sized(body)
                if headers:
                    snap_headers, size = _plain_sized(headers)
                    nbytes += size
                else:
                    snap_headers = {}
                    nbytes += 5
            except _NotPlain:
                pass
            else:
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
                return WireMessage(None, (), nbytes, (
                    kind, msg_id, src, dst, target, verb, snap_body,
                    snap_headers))
        self._segs = segs = []
        try:
            head = self.encode_frame_fields(kind, msg_id, src, dst,
                                            target, verb, body, headers)
        finally:
            self._segs = None
        segments = tuple(segs)
        nbytes = len(head)
        for _, payload in segments:
            nbytes += payload.nbytes if payload.__class__ is memoryview \
                else len(payload)
        if key is not None:
            # Split the head around the (fixed-width) msg_id so a
            # template hit only re-encodes that one field.  Segment
            # offsets stay valid across hits: the prefix and the 9-byte
            # int field never change length.
            plen = len(_LIST8_HEAD) + len(_str_wire(kind))
            _memo_put(_TMPL_ENC, key,
                      (head[:plen], head[plen + 9:], segments, nbytes))
        return WireMessage(head, segments, nbytes, carried)

    def decode_frame_message(self, msg: WireMessage):
        """Decode a :class:`WireMessage` produced by
        :meth:`encode_frame_message`, as :meth:`decode_frame_fields` does
        its head, taking raw payloads from the segments uncopied.
        """
        self._split = msg.segments
        self._split_idx = 0
        try:
            fields = self.decode_frame_fields(msg.head)
            if self._split_idx != len(msg.segments):
                raise MarshalError(
                    f"{len(msg.segments) - self._split_idx} raw "
                    f"segments unconsumed after decode")
        finally:
            self._split = None
            self._split_idx = 0
        return fields

    def _encode_ref(self, ref: ObjectRef, out: bytearray) -> None:
        out += _TAG_REF
        for field in (ref.context_id, ref.oid, ref.interface, ref.policy):
            raw = field.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
        out += _I64.pack(ref.epoch)

    # -- decoding ------------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        """Decode wire bytes produced by :meth:`encode`."""
        return self._decode_image(data)

    def decode_frame_fields(self, data: bytes) -> Any:
        """Decode a frame image encoded by :meth:`encode_frame_fields`.

        Returns whatever value the image holds — a peer may send a frame
        of any shape, and :meth:`Frame._checked` is what refuses one that
        is not eight fields.  Counted in ``frames_decoded``.
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
            if tag == _ORD_RAW:
                split = self._split
                if split is None:
                    # Contiguous wire image (``WireMessage.to_bytes``):
                    # the payload sits inline after its marker, exactly
                    # like the bytes tag.
                    return _chunk(data, offset, "raw segment")
                (length,) = _U32.unpack_from(data, offset)
                idx = self._split_idx
                if idx >= len(split):
                    raise MarshalError(
                        "raw marker without a matching segment")
                self._split_idx = idx + 1
                seg = split[idx][1]
                if seg.__class__ is not bytes:
                    # Mutable payloads (bytearray/memoryview) materialise
                    # exactly once, here, so the receiver never aliases a
                    # buffer the sender could still write.
                    seg = bytes(seg)
                if len(seg) != length:
                    raise MarshalError(
                        f"raw segment length mismatch: marker says "
                        f"{length}, segment has {len(seg)}")
                return seg, offset + 4
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


# -- the fast encoders ---------------------------------------------------------
#
# One function per exact built-in type, dispatched from a table.  These are
# module-level (not methods) so the dispatch dict holds plain functions and
# the call site pays no bound-method construction.

def _enc_none(m: Marshaller, value, out: bytearray) -> None:
    out += _TAG_NONE


def _enc_bool(m: Marshaller, value, out: bytearray) -> None:
    out += _TAG_TRUE if value else _TAG_FALSE


def _enc_int(m: Marshaller, value: int, out: bytearray) -> None:
    cached = _INT_ENC.get(value)
    if cached is not None:
        _MEMO_STATS.int_enc_hits += 1
        out += cached
        return
    _MEMO_STATS.int_enc_misses += 1
    if -(2**63) <= value < 2**63:
        enc = _TAG_INT + _I64.pack(value)
    else:
        raw = value.to_bytes(_bigint_width(value), "big", signed=True)
        enc = _TAG_BIGINT + _U32.pack(len(raw)) + raw
    _memo_put(_INT_ENC, value, enc)
    out += enc


def _enc_float(m: Marshaller, value: float, out: bytearray) -> None:
    out += _TAG_FLOAT
    out += _F64.pack(value)


def _enc_str(m: Marshaller, value: str, out: bytearray) -> None:
    out += _str_wire(value)


def _enc_bytes(m: Marshaller, value: bytes, out: bytearray) -> None:
    size = len(value)
    segs = m._segs
    if segs is not None and size >= RAW_THRESHOLD:
        # Zero-copy bulk path: 5-byte marker in the head (identical wire
        # cost to the inline tag), payload object parked uncopied.
        out += _TAG_RAW
        out += _U32.pack(size)
        segs.append((len(out), value))
        return
    out += _TAG_BYTES
    out += _U32.pack(size)
    out += value


def _enc_bytelike(m: Marshaller, value, out: bytearray) -> None:
    size = value.nbytes if value.__class__ is memoryview else len(value)
    segs = m._segs
    if segs is not None and size >= RAW_THRESHOLD:
        out += _TAG_RAW
        out += _U32.pack(size)
        segs.append((len(out), value))
        return
    raw = bytes(value)
    out += _TAG_BYTES
    out += _U32.pack(len(raw))
    out += raw


def _enc_list(m: Marshaller, value: list, out: bytearray) -> None:
    out += _TAG_LIST
    out += _U32.pack(len(value))
    # Memo-hit strings and ints are appended inline: container elements are
    # overwhelmingly repeated short strings (verbs, context ids, keys) and
    # small ints, and the dispatch call per element dwarfs the append.
    stats = _MEMO_STATS
    for item in value:
        cls = item.__class__
        if cls is str:
            cached = _STR_ENC.get(item)
            if cached is not None:
                stats.str_enc_hits += 1
                out += cached
            else:
                _enc_str(m, item, out)
        elif cls is int:
            cached = _INT_ENC.get(item)
            if cached is not None:
                stats.int_enc_hits += 1
                out += cached
            else:
                _enc_int(m, item, out)
        elif item is None:
            out += _TAG_NONE
        elif cls is dict and not item:
            out += _EMPTY_DICT
        else:
            fast = _FAST_ENCODERS.get(cls)
            if fast is not None:
                fast(m, item, out)
            else:
                m._encode_general(item, out)


def _enc_tuple(m: Marshaller, value: tuple, out: bytearray) -> None:
    out += _TAG_TUPLE
    out += _U32.pack(len(value))
    stats = _MEMO_STATS
    for item in value:
        cls = item.__class__
        if cls is str:
            cached = _STR_ENC.get(item)
            if cached is not None:
                stats.str_enc_hits += 1
                out += cached
            else:
                _enc_str(m, item, out)
        elif cls is int:
            cached = _INT_ENC.get(item)
            if cached is not None:
                stats.int_enc_hits += 1
                out += cached
            else:
                _enc_int(m, item, out)
        elif item is None:
            out += _TAG_NONE
        elif cls is dict and not item:
            out += _EMPTY_DICT
        else:
            fast = _FAST_ENCODERS.get(cls)
            if fast is not None:
                fast(m, item, out)
            else:
                m._encode_general(item, out)


def _enc_dict(m: Marshaller, value: dict, out: bytearray) -> None:
    out += _TAG_DICT
    out += _U32.pack(len(value))
    encode_into = m._encode_into
    stats = _MEMO_STATS
    for key, val in value.items():
        if key.__class__ is str:
            cached = _STR_ENC.get(key)
            if cached is not None:
                stats.str_enc_hits += 1
                out += cached
            else:
                _enc_str(m, key, out)
        else:
            encode_into(key, out)
        cls = val.__class__
        if cls is str:
            cached = _STR_ENC.get(val)
            if cached is not None:
                stats.str_enc_hits += 1
                out += cached
            else:
                _enc_str(m, val, out)
        elif cls is int:
            cached = _INT_ENC.get(val)
            if cached is not None:
                stats.int_enc_hits += 1
                out += cached
            else:
                _enc_int(m, val, out)
        else:
            encode_into(val, out)


def _enc_set(m: Marshaller, value: set, out: bytearray) -> None:
    out += _TAG_SET
    out += _U32.pack(len(value))
    encode_into = m._encode_into
    for item in sorted(value, key=repr):
        encode_into(item, out)


def _enc_frozenset(m: Marshaller, value: frozenset, out: bytearray) -> None:
    out += _TAG_FROZENSET
    out += _U32.pack(len(value))
    encode_into = m._encode_into
    for item in sorted(value, key=repr):
        encode_into(item, out)


def _enc_ref(m: Marshaller, value: ObjectRef, out: bytearray) -> None:
    m._encode_ref(value, out)


#: Exact-type dispatch table.  A type listed here is hook-exempt: the swizzle
#: hook can never replace a value of a plain built-in type (the object-space
#: hook declines them by definition), and :class:`ObjectRef` is already the
#: hook's *output*.  Subclasses fall through to :meth:`_encode_general`,
#: which preserves the original hook-first semantics for them.
_FAST_ENCODERS: dict[type, Callable] = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    str: _enc_str,
    bytes: _enc_bytes,
    bytearray: _enc_bytelike,
    memoryview: _enc_bytelike,
    list: _enc_list,
    tuple: _enc_tuple,
    dict: _enc_dict,
    set: _enc_set,
    frozenset: _enc_frozenset,
    ObjectRef: _enc_ref,
}


#: A hook-free marshaller, for layers that must see raw refs (naming, GC).
PLAIN = Marshaller()


def wire_size(value: Any) -> int:
    """Byte size of ``value`` on the wire (hook-free encoding)."""
    return len(PLAIN.encode(value))
