"""Message frames: the unit the transport carries between contexts.

A frame is a small header (kind, message id, source, destination, target
object, operation verb) plus a body value.  Frames are encoded with a
:class:`~repro.wire.marshal.Marshaller`, so the swizzle hooks apply to the
body — this is the single choke point through which every argument and
result crosses a context boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..kernel.errors import ProtocolError
from .marshal import _MEMO_STATS, Marshaller

#: Frame kinds.
REQUEST = "req"      #: call expecting a reply
REPLY = "rep"        #: successful result
EXCEPTION = "exc"    #: error result (body: (error_class_name, message, detail))
ONEWAY = "one"       #: fire-and-forget notification (no reply)
# Dead: built only by Transport.encode_batch, which perf_spans.LAYER_MAP holds.
MREPLY = "mrp"       #: multi-reply frame: a tuple of (wire image, arrival)

_KINDS = {REQUEST, REPLY, EXCEPTION, ONEWAY, MREPLY}

#: Header key for the admission layer's retry-after hint (the PR-5/7
#: envelope convention: extensions ride the ``headers`` dict, and empty
#: headers are elided by the codec).  Stamped only on the ``Overloaded``
#: exception reply a shedding server returns, carrying the absolute
#: virtual time at which it expects capacity — so every frame of a
#: deployment that never sheds encodes byte-identically to a build
#: without admission control.
K_OVERLOAD = "o.ra"


@dataclass(slots=True)
class Frame:
    """One message.

    Attributes:
        kind: one of :data:`REQUEST`, :data:`REPLY`, :data:`EXCEPTION`,
            :data:`ONEWAY`.
        msg_id: sender-unique id used for reply matching and dedup.
        src: sending context id.
        dst: destination context id.
        target: oid of the object addressed (requests/oneways).
        verb: operation name (requests/oneways) or ``""``.
        body: payload value — ``(args, kwargs)`` for requests, the result for
            replies, ``(class_name, message, detail)`` for exceptions.
        headers: optional extra key/value pairs (protocol extensions).
    """

    kind: str
    msg_id: int
    src: str
    dst: str
    target: str = ""
    verb: str = ""
    body: Any = None
    headers: dict = field(default_factory=dict)

    def encode(self, marshaller: Marshaller) -> bytes:
        """Encode the frame (hooks of ``marshaller`` apply to the body)."""
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown frame kind {self.kind!r}")
        return marshaller.encode_frame_fields(
            self.kind, self.msg_id, self.src, self.dst,
            self.target, self.verb, self.body, self.headers)

    def encode_message(self, marshaller: Marshaller):
        """Encode via the message fast path: returns a
        :class:`~repro.wire.segments.WireMessage` (zero-copy segments,
        frame-template memo, carried fields for plain frames) or plain
        bytes when nothing applies.  ``len()`` of either is the honest
        wire size, so everything charged by length is unchanged."""
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown frame kind {self.kind!r}")
        return marshaller.encode_frame_message(
            self.kind, self.msg_id, self.src, self.dst,
            self.target, self.verb, self.body, self.headers)

    @classmethod
    def decode(cls, data: bytes, marshaller: Marshaller) -> "Frame":
        """Decode wire bytes into a frame (hooks apply to the body)."""
        return cls._checked(marshaller.decode_frame_fields(data))

    @classmethod
    def decode_message(cls, msg, marshaller: Marshaller) -> "Frame":
        """Decode a :class:`WireMessage` (or plain bytes) into a frame.

        A carried frame skips the decoder entirely: the sender proved
        its fields plain data and parked a snapshot of them on the
        message, which this — its first — receiver takes and owns.
        Everything else (a reference in it, a second delivery of the
        same message) goes through the segment-aware decoder, which
        hands raw payloads back without copying.
        """
        if msg.__class__ is bytes or msg.__class__ is bytearray:
            return cls.decode(msg, marshaller)
        carried = msg.take()
        if carried is not None:
            _MEMO_STATS.frames_carried += 1
            return cls(*carried)
        return cls._checked(marshaller.decode_frame_message(msg))

    @classmethod
    def _checked(cls, fields) -> "Frame":
        """A frame from decoded fields — the peer may have sent anything."""
        if not isinstance(fields, list) or len(fields) != 8 \
                or not isinstance(fields[0], str) \
                or not isinstance(fields[7], dict):
            raise ProtocolError("malformed frame")
        if fields[0] not in _KINDS:
            raise ProtocolError(f"unknown frame kind {fields[0]!r}")
        return cls(*fields)

    def reply_to(self, body: Any) -> "Frame":
        """Build the successful reply to this request."""
        return Frame(REPLY, self.msg_id, self.dst, self.src, "", "", body, {})

    def exception_to(self, error_class: str, message: str,
                     detail: Any = None) -> "Frame":
        """Build the error reply to this request."""
        return Frame(EXCEPTION, self.msg_id, self.dst, self.src,
                     body=(error_class, message, detail))

    def __repr__(self) -> str:
        return (f"Frame({self.kind}, #{self.msg_id}, {self.src}->{self.dst}, "
                f"{self.target}.{self.verb})")


class MessageIdMinter:
    """Mints per-context message ids (unique within one sender)."""

    __slots__ = ("_next",)

    def __init__(self):
        self._next = 1

    def mint(self) -> int:
        """Return a fresh message id."""
        msg_id = self._next
        self._next += 1
        return msg_id
