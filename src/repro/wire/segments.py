"""Wire messages: what the simulated transport carries between contexts.

A :class:`WireMessage` is a frame as it crosses a boundary: its honest
wire size (``nbytes``, counted once, when the frame is encoded — the
number the cost model and the trace consume) plus whichever of two
forms the frame needs (see ``wire/marshal.py``):

* **its fields** (``carried``) — a frame of plain data, references
  included, is sized, not written: ``head`` is ``None``, and the message
  carries the fields, pristine.  No delivery ever gets them:
  :func:`~repro.wire.frames.fields_of` (or, for a pure or envelope
  reply, :func:`~repro.wire.frames.reply_value`) hands each one (the
  first delivery, a retransmission, a duplicate answered from the replay
  cache) its own copy of every container;
* **an image** — the contiguous *head* plus zero-copy payload
  *segments*, for a frame the receiver must decode (one holding a set, a
  subclass or a ``bytearray``: what the decoder must rebuild).  The
  marshaller's bulk path does not copy large
  ``bytes``/``bytearray``/``memoryview`` payloads into the encoded
  stream: it writes a 5-byte raw marker (tag + u32 length — the same
  overhead as the inline bytes encoding, so the wire byte count is
  unchanged) and parks the payload object itself in the segment list,
  to be spliced in at the recorded offset.

A message is never mutated once built, and ``bytes`` payloads cross the
boundary without ever being copied.  ``to_bytes()`` produces the
contiguous wire image (markers followed by their payloads, or for a
sized message the encoder's bytes), which the ordinary decoder accepts
— the format is self-describing with or without the segment list.
"""

from __future__ import annotations

from ..kernel.errors import ProtocolError


class WireMessage:
    """One frame in transit: its size, and its image or its fields.

    Attributes:
        head: the encoded stream, raw markers (tag + length) inline where
            the payload content would be; ``None`` for a sized message.
        segments: tuple of ``(offset, payload)`` pairs — ``offset`` is
            the position in ``head`` immediately after the payload's
            marker, i.e. where the content splices into the wire image;
            ``payload`` is the original bytes-like object, uncopied.
        nbytes: honest wire size — ``len(head)`` plus every segment's
            byte length, or for a sized message the byte count the
            encoder would write.  Marshal charges and network transit
            times read it, so they are bit-identical to the copying path.
        carried: the frame's fields when they are *plain data* (and
            ``head`` is ``None``), never handed out (their readers are
            :func:`~repro.wire.frames.fields_of` and, for a reply's value,
            :func:`~repro.wire.frames.reply_value`).  A pure message's are
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
            field's type tells the four apart.  ``None`` when the frame
            must be decoded.
    """

    __slots__ = ("head", "segments", "nbytes", "carried")

    def __init__(self, head: bytes | None, segments: tuple, nbytes: int,
                 carried: tuple | None = None):
        self.head = head
        self.segments = segments
        self.nbytes = nbytes
        self.carried = carried

    @classmethod
    def wrap(cls, image) -> "WireMessage":
        """A wire image handed in as bytes, as a message: a ``bytes``,
        ``bytearray`` or ``memoryview`` image is copied to ``bytes`` and
        its length is its size; anything else raises
        :class:`ProtocolError`."""
        if not isinstance(image, (bytes, bytearray, memoryview)):
            raise ProtocolError(
                f"not a wire image: {type(image).__name__!r}")
        image = bytes(image)
        return cls(image, (), len(image))

    def __len__(self) -> int:
        return self.nbytes

    def to_bytes(self) -> bytes:
        """The contiguous wire image (segments spliced after their
        markers).  Decodable by the plain byte-stream decoder.

        A sized message's image is written now, by the encoder, from the
        fields it carries: they are hook-exempt, so the hook-free
        marshaller writes the bytes the sender's would have."""
        head = self.head
        if head is None:
            from .marshal import PLAIN
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
        if not self.segments:
            return head
        parts = []
        prev = 0
        for offset, payload in self.segments:
            parts.append(head[prev:offset])
            if payload.__class__ is not bytes:
                payload = bytes(payload)
            parts.append(payload)
            prev = offset
        parts.append(head[prev:])
        return b"".join(parts)

    def freeze(self) -> "WireMessage":
        """A message whose segments are all immutable ``bytes``.

        Returns ``self`` when nothing needs materialising.  Used when a
        message that carries nothing (a carried one has no segments)
        outlives the call that built it (the dispatcher's
        replay cache): a ``bytearray``/``memoryview`` payload could
        legally be mutated by its owner afterwards, so mutable segments
        are snapshotted exactly once here.
        """
        if all(p.__class__ is bytes for _, p in self.segments):
            return self
        frozen = tuple((offset, bytes(payload))
                       for offset, payload in self.segments)
        return WireMessage(self.head, frozen, self.nbytes, self.carried)

    def __repr__(self) -> str:
        form = "sized" if self.head is None \
            else f"{len(self.segments)} segments"
        return (f"WireMessage({self.nbytes} bytes, {form}"
                f"{', carried' if self.carried else ''})")
