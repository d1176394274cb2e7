"""Message frames: the unit the transport carries between contexts.

A frame is a small header (kind, message id, source, destination, target
object, operation verb) plus a body value.  Frames are encoded with a
:class:`~repro.wire.marshal.Marshaller`, so the swizzle hooks apply to the
body — this is the single choke point through which every argument and
result crosses a context boundary.  The frame kinds are defined beside
the frame encoder (:mod:`repro.wire.marshal`), which refuses any other.
A delivered message is read by its receiver, and a frame is built only
where one is wanted; each carried form has one reader:

* a server (:meth:`Dispatcher.handle <repro.rpc.dispatcher.Dispatcher.
  handle>`) reads a carried envelope request's fields itself, and any
  other request or one-way through :func:`fields_of`;
* a caller (:meth:`RpcProtocol.call <repro.rpc.protocol.RpcProtocol.
  call>`) reads a pure or envelope reply's value itself, and has any
  other reply delivered as a frame (:meth:`Frame.decode_message`, which
  reads its fields through :func:`fields_of`).

:func:`fields_of` reads no envelope: one that reaches it (a reply with
headers, a request handed to :meth:`Frame.decode_message`) is decoded
from its image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..kernel.errors import ProtocolError
from .marshal import (EXCEPTION, FRAME_KINDS, MREPLY, ONEWAY, REPLY, REQUEST,
                      _MEMO_STATS, Marshaller, WireMessage, _plain_copy,
                      _ref_copy)

__all__ = ["EXCEPTION", "FRAME_KINDS", "Frame", "K_OVERLOAD", "MREPLY",
           "ONEWAY", "REPLY", "REQUEST", "fields_of"]

#: Header key for the admission layer's retry-after hint (the PR-5/7
#: envelope convention: extensions ride the ``headers`` dict, and empty
#: headers are elided by the codec).  Stamped only on the ``Overloaded``
#: exception reply a shedding server returns, carrying the absolute
#: virtual time at which it expects capacity — so every frame of a
#: deployment that never sheds encodes byte-identically to a build
#: without admission control.
K_OVERLOAD = "o.ra"

_SEQUENCES = (list, tuple)


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
        :class:`~repro.wire.marshal.WireMessage` (a sized frame carrying
        its fields for plain data, a contiguous image for the rest) whose
        ``nbytes`` is the honest wire size, so everything charged by
        length is unchanged."""
        return marshaller.encode_frame_message(
            self.kind, self.msg_id, self.src, self.dst,
            self.target, self.verb, self.body, self.headers)

    @classmethod
    def decode(cls, data: bytes, marshaller: Marshaller) -> "Frame":
        """Decode wire bytes into a frame (hooks apply to the body)."""
        return cls(*_checked(marshaller.decode_frame_fields(data)))

    @classmethod
    def decode_message(cls, msg, marshaller: Marshaller) -> "Frame":
        """Deliver a :class:`WireMessage` (or a bytes-like wire image) as
        a frame of the fields :func:`fields_of` reads."""
        return cls(*fields_of(msg, marshaller))

    def __repr__(self) -> str:
        return (f"Frame({self.kind}, #{self.msg_id}, {self.src}->{self.dst}, "
                f"{self.target}.{self.verb})")


def fields_of(msg, marshaller: Marshaller) -> tuple:
    """A delivered message's eight fields, ``(kind, msg_id, src, dst,
    target, verb, body, headers)``, for a :class:`WireMessage` or a
    bytes-like wire image (wrapped by :meth:`WireMessage.wrap`) — the
    reader of every message its receiver does not read itself (see the
    module docstring).

    A carried message skips the decoder entirely: the sender proved its
    fields plain data and the message carries them, pristine — every
    delivery (the first, a retransmission, a duplicate from the replay
    cache) gets its own copy of every container: of a plain message's
    snapshot, the two empty dicts of a pure one, whose fields are shared
    because nothing in them can change; with references,
    ``marshaller``'s decoder hook meets each ref in the decoder's order.
    A message that carries nothing is decoded: its head is a contiguous
    wire image.  So is an envelope, which its receiver reads.  The
    decoder is the only path for bytes from a peer.
    """
    if msg.__class__ is not WireMessage:
        msg = WireMessage.wrap(msg)
    carried = msg.carried
    # ``last``: a pure message's pair flag, a plain one's headers,
    # ``[headers]`` with references, an envelope's ``(headers, pair)``.
    if carried is not None and carried[7].__class__ is not tuple:
        _MEMO_STATS.frames_carried += 1
        kind, msg_id, src, dst, target, verb, body, last = carried
        if last.__class__ is bool:
            return (kind, msg_id, src, dst, target, verb,
                    (body, {}) if last else body, {})
        if last.__class__ is list:      # with references: [headers]
            hook = marshaller.decoder_hook
            return (kind, msg_id, src, dst, target, verb,
                    _ref_copy(body, hook), _ref_copy(last[0], hook))
        return (kind, msg_id, src, dst, target, verb,
                _plain_copy(body), _plain_copy(last) if last else {})
    return _checked(marshaller.decode_frame_fields(
        msg.head if carried is None else msg.to_bytes()))


def _checked(fields) -> tuple:
    """Decoded fields, checked — the peer may have sent anything, so each
    field is held to what the layers above do with it: the id and the
    four names are hashed and compared, a request's body is unpacked as
    ``(args, kwargs)``, an exception's as ``(class name, message,
    detail)``."""
    if fields.__class__ is not list or len(fields) != 8:
        raise ProtocolError("malformed frame")
    kind, msg_id, src, dst, target, verb, body, headers = fields
    if kind.__class__ is not str or headers.__class__ is not dict:
        raise ProtocolError("malformed frame")
    if kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    if msg_id.__class__ is not int or not all(
            name.__class__ is str for name in (src, dst, target, verb)):
        raise ProtocolError("malformed frame: id or names mistyped")
    if kind in (REQUEST, ONEWAY):
        if body is not None and not (
                body.__class__ in _SEQUENCES and len(body) == 2
                and body[0].__class__ in _SEQUENCES
                and body[1].__class__ is dict):
            raise ProtocolError(
                f"malformed {kind} body: not (args, kwargs)")
    elif kind == EXCEPTION and not (
            body.__class__ in _SEQUENCES and len(body) == 3
            and body[0].__class__ is str and body[1].__class__ is str):
        raise ProtocolError(
            "malformed exc body: not (class name, message, detail)")
    return tuple(fields)
