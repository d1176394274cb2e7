"""Message frames: the unit the transport carries between contexts.

A frame is a small header (kind, message id, source, destination, target
object, operation verb) plus a body value.  Frames are encoded with a
:class:`~repro.wire.marshal.Marshaller`, so the swizzle hooks apply to the
body — this is the single choke point through which every argument and
result crosses a context boundary.  The frame kinds are defined beside
the frame encoder (:mod:`repro.wire.marshal`), which refuses any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..kernel.errors import ProtocolError
from .marshal import (EXCEPTION, FRAME_KINDS, MREPLY, ONEWAY, REPLY, REQUEST,
                      _MEMO_STATS, Marshaller, _plain_copy)
from .segments import WireMessage

__all__ = ["EXCEPTION", "FRAME_KINDS", "Frame", "K_OVERLOAD", "MREPLY",
           "ONEWAY", "REPLY", "REQUEST"]

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
        return marshaller.encode_frame_fields(
            self.kind, self.msg_id, self.src, self.dst,
            self.target, self.verb, self.body, self.headers)

    def encode_message(self, marshaller: Marshaller):
        """Encode via the message fast path: returns a
        :class:`~repro.wire.segments.WireMessage` (zero-copy segments,
        frame-template memo, a sized snapshot for plain frames) whose
        ``nbytes`` is the honest wire size, so everything charged by
        length is unchanged."""
        return marshaller.encode_frame_message(
            self.kind, self.msg_id, self.src, self.dst,
            self.target, self.verb, self.body, self.headers)

    @classmethod
    def decode(cls, data: bytes, marshaller: Marshaller) -> "Frame":
        """Decode wire bytes into a frame (hooks apply to the body)."""
        return cls._checked(marshaller.decode_frame_fields(data))

    @classmethod
    def decode_message(cls, msg, marshaller: Marshaller) -> "Frame":
        """Deliver a :class:`WireMessage` (or a bytes-like wire image,
        wrapped by :meth:`WireMessage.wrap`) as a frame.

        A carried frame skips the decoder entirely: the sender proved
        its fields plain data and the message carries a snapshot of
        them, which stays pristine — every delivery (the first, a
        retransmission, a duplicate from the replay cache) gets its own
        copy, made here and nowhere else: every container of a sized
        message's fields, the two empty dicts of a pure one's.  A
        message that carries nothing is decoded — its head as wire bytes
        are, or, with raw segments, by the segment-aware decoder, which
        hands raw payloads back without copying.  The decoder is the
        only path for bytes from a peer.
        """
        if msg.__class__ is not WireMessage:
            msg = WireMessage.wrap(msg)
        carried = msg.carried
        if carried is not None:
            _MEMO_STATS.frames_carried += 1
            # ``last``: a sized message's headers, a pure one's pair flag.
            kind, msg_id, src, dst, target, verb, body, last = carried
            if msg.head is None:
                return cls(kind, msg_id, src, dst, target, verb,
                           _plain_copy(body),
                           _plain_copy(last) if last else {})
            return cls(kind, msg_id, src, dst, target, verb,
                       (body, {}) if last else body, {})
        if not msg.segments:
            return cls.decode(msg.head, marshaller)
        return cls._checked(marshaller.decode_frame_message(msg))

    @classmethod
    def _checked(cls, fields) -> "Frame":
        """A frame from decoded fields — the peer may have sent anything."""
        if not isinstance(fields, list) or len(fields) != 8 \
                or not isinstance(fields[0], str) \
                or not isinstance(fields[7], dict):
            raise ProtocolError("malformed frame")
        if fields[0] not in FRAME_KINDS:
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
