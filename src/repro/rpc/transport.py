"""Transport: context-to-context frame carriage.

Sits between the RPC protocol and the kernel network.  Encoding happens with
the *sender's* marshalling hooks and decoding with the *receiver's* — this is
where the proxy principle's reference swizzling physically occurs: an
exported object leaves its home context as an :class:`ObjectRef` and
materialises in the destination context as a proxy.

The transport charges marshalling CPU to the sender and records every
transmission in the system trace.  Unmarshalling CPU is charged where the
receiving activity's time cursor is known: the dispatcher charges a
request (``Dispatcher.handle``), the RPC client its reply
(``RpcProtocol.call``).  Every frame travels as a
:class:`~repro.wire.WireMessage` whose ``nbytes`` — counted once,
when it is encoded — is the size every charge and every transit reads.

Hot path: a :class:`~repro.wire.marshal.Marshaller` is stateless apart from
its hooks, so the transport keeps one encoder and one decoder per context
instead of allocating a fresh pair for every frame.  The cache is validated
against the context's *current* hook on every use (hooks are installed once,
when the object space attaches, which may be after the first frame), so a
stale marshaller can never be applied.
"""

from __future__ import annotations

from ..kernel.system import System
from ..wire.frames import MREPLY, Frame
from ..wire.marshal import Marshaller


class Transport:
    """Frame carriage over the simulated network.

    Hit path: ``encode_frame``/``decode_frame`` look the context's
    marshaller up and check it against the context's current hook in line.
    Miss path (a context's first frame, the first after a hook changed):
    ``encoder_for``/``decoder_for`` build and remember it.  A dispatcher
    keeps its context's pair the same way.
    """

    def __init__(self, system: System):
        self.system = system
        # Fixed for the system's lifetime; cached off the per-frame path.
        self._trace = system.trace
        self._network = system.network
        self._costs = system.costs
        self._encoders: dict[str, Marshaller] = {}
        self._decoders: dict[str, Marshaller] = {}
        self._labels: dict[tuple[str, str], str] = {}
        self._node_names: dict[str, str] = {}
        system.transport = self

    def close(self) -> None:
        """Drop every cached marshaller (:meth:`System.close <repro.kernel.
        system.System.close>`): each holds a context's swizzle hook, which
        leads back to its object space and the system."""
        self._encoders.clear()
        self._decoders.clear()

    # -- marshalling with per-context hooks -----------------------------------

    def encoder_for(self, context) -> Marshaller:
        """Marshaller applying ``context``'s outbound swizzle hook."""
        hook = context.encoder_hook
        marshaller = self._encoders.get(context.context_id)
        if marshaller is None or marshaller.encoder_hook is not hook:
            marshaller = Marshaller(encoder_hook=hook)
            self._encoders[context.context_id] = marshaller
        return marshaller

    def decoder_for(self, context) -> Marshaller:
        """Marshaller applying ``context``'s inbound swizzle hook."""
        hook = context.decoder_hook
        marshaller = self._decoders.get(context.context_id)
        if marshaller is None or marshaller.decoder_hook is not hook:
            marshaller = Marshaller(decoder_hook=hook)
            self._decoders[context.context_id] = marshaller
        return marshaller

    def encode_frame(self, frame: Frame, src_ctx=None):
        """Encode ``frame`` with the sending context's hooks, charging CPU.

        Callers that already hold the sending context pass it as ``src_ctx``
        to skip the id lookup; it must be the context named by ``frame.src``.
        """
        if src_ctx is None:
            src_ctx = self.system.context(frame.src)
        marshaller = self._encoders.get(src_ctx.context_id)
        if marshaller is None \
                or marshaller.encoder_hook is not src_ctx.encoder_hook:
            marshaller = self.encoder_for(src_ctx)
        data = marshaller.encode_frame_message(
            frame.kind, frame.msg_id, frame.src, frame.dst, frame.target,
            frame.verb, frame.body, frame.headers)
        costs = self._costs
        src_ctx.charge(costs.marshal_fixed
                       + data.nbytes * costs.marshal_byte_cost)
        return data

    def decode_frame(self, data, dst_context) -> Frame:
        """Decode a ``WireMessage`` (or wire bytes) with the receiving
        context's hooks: a caller's reply that is not read as its value
        (``RpcProtocol.call``, which charges unmarshal on its own clock).
        A dispatcher reads a request's fields itself (``frames.
        fields_of``), with its own pinned decoder.
        """
        marshaller = self._decoders.get(dst_context.context_id)
        if marshaller is None \
                or marshaller.decoder_hook is not dst_context.decoder_hook:
            marshaller = self.decoder_for(dst_context)
        return Frame.decode_message(data, marshaller)

    # Dead: benchmarks/perf/perf_spans.py (LAYER_MAP) wraps it by name.
    def encode_batch(self, src_ctx, dst_node: str, subs: tuple) -> Frame:
        """Build an unminted multi-reply frame carrying ``subs``, a tuple
        of ``(wire_image, arrive)`` pairs, to ``dst_node``."""
        return Frame(MREPLY, 0, src_ctx.context_id, dst_node, body=subs)

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame, data, at: float):
        """Send an encoded frame; returns the kernel `Delivery`.

        Records a ``send`` trace event regardless of outcome (the sender did
        the work); drops are recorded by the network itself.
        """
        src = frame.src
        dst = frame.dst
        key = (frame.kind, frame.verb)
        label = self._labels.get(key)
        if label is None:
            label = f"{frame.kind}:{frame.verb}" if frame.verb else frame.kind
            self._labels[key] = label
        nbytes = data.nbytes
        self._trace.emit(at, "send", src, dst, label, nbytes)
        names = self._node_names
        src_node = names.get(src)
        if src_node is None:
            src_node = names[src] = src.split("/", 1)[0]
        dst_node = names.get(dst)
        if dst_node is None:
            dst_node = names[dst] = dst.split("/", 1)[0]
        return self._network.transmit(src_node, dst_node, nbytes, at)

    # Dead: benchmarks/perf/perf_spans.py (LAYER_MAP) wraps it by name.
    def trace_send(self, frame: Frame, nbytes: int, at: float) -> None:
        """Record the ``send`` trace event of :meth:`transmit` without
        touching the network."""
        key = (frame.kind, frame.verb)
        label = self._labels.get(key)
        if label is None:
            label = f"{frame.kind}:{frame.verb}" if frame.verb else frame.kind
            self._labels[key] = label
        self._trace.emit(at, "send", frame.src, frame.dst, label, nbytes)

    def transmit_reply(self, src: str, dst: str, data, at: float):
        """Send an encoded reply back to the caller.

        Identical trace and network behaviour to :meth:`transmit` with a
        verb-less reply frame — without requiring the caller to build one
        just to carry the four header fields.
        """
        nbytes = data.nbytes
        self._trace.emit(at, "send", src, dst, "rep", nbytes)
        names = self._node_names
        src_node = names.get(src)
        if src_node is None:
            src_node = names[src] = src.split("/", 1)[0]
        dst_node = names.get(dst)
        if dst_node is None:
            dst_node = names[dst] = dst.split("/", 1)[0]
        return self._network.transmit(src_node, dst_node, nbytes, at)
