"""Zero-copy wire messages: an encoded head plus raw payload segments.

The marshaller's bulk fast path (see ``wire/marshal.py``) does not copy
large ``bytes``/``bytearray``/``memoryview`` payloads into the encoded
stream.  Instead it writes a 5-byte raw marker (tag + u32 length — the
same overhead as the inline bytes encoding, so the wire byte count and
therefore every virtual-time figure is unchanged) and parks the payload
object itself in a segment list.  The result is a :class:`WireMessage`:
the contiguous *head* with markers inline, and the *segments* that
splice in at recorded offsets.

Every encoded frame travels the simulated transport as a ``WireMessage``;
its ``nbytes`` field, counted once, is the honest wire size (head plus
segment payloads) that the cost model and the trace consume.  The wire
image (head, segments, size) is never mutated — the frame template memo
returns cached segment tuples, and ``bytes`` payloads cross the boundary
without ever being copied.  What changes hands is ``carried``, a snapshot
of the frame's fields with **one owner**: the sender builds it, the first
receiver takes it (``Frame.decode_message``), and whoever sees the
message next — a retransmission, a remembered reply — decodes the bytes.

``to_bytes()`` produces the contiguous wire image (markers followed by
their payloads), which the ordinary decoder accepts — the format is
self-describing with or without the segment list.
"""

from __future__ import annotations


class WireMessage:
    """One encoded message: contiguous head + zero-copy payload segments.

    Attributes:
        head: the encoded stream; raw markers (tag + length) sit inline
            where the payload content would be.
        segments: tuple of ``(offset, payload)`` pairs — ``offset`` is
            the position in ``head`` immediately after the payload's
            marker, i.e. where the content splices into the wire image;
            ``payload`` is the original bytes-like object, uncopied.
        nbytes: honest wire size — ``len(head)`` plus every segment's
            byte length.  This equals what the inline encoding would
            have produced, so marshal charges and network transit times
            are bit-identical to the copying path.
        carried: for frames of *plain data* (see ``wire/marshal.py``),
            the eight frame fields ``(kind, msg_id, src, dst, target,
            verb, body, headers)`` as the decoder would build them —
            every mutable container in ``body`` and ``headers`` a copy
            made when the bytes were, immutable leaves shared; ``()``
            once taken.  ``None`` when the frame must be decoded for real.
    """

    __slots__ = ("head", "segments", "nbytes", "carried")

    def __init__(self, head: bytes, segments: tuple, nbytes: int,
                 carried: tuple | None = None):
        self.head = head
        self.segments = segments
        self.nbytes = nbytes
        self.carried = carried

    def __len__(self) -> int:
        return self.nbytes

    def to_bytes(self) -> bytes:
        """The contiguous wire image (segments spliced after their
        markers).  Decodable by the plain byte-stream decoder."""
        if not self.segments:
            return self.head
        head = self.head
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
        message that carries nothing (a carried one holds ``bytes``
        segments only) outlives the call that built it (the dispatcher's
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
        return (f"WireMessage({self.nbytes} bytes, "
                f"{len(self.segments)} segments"
                f"{', carried' if self.carried else ''})")
