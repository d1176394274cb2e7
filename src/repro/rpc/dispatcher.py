"""Server-side dispatch: the skeleton half of RPC.

Each context that exports objects gets a :class:`Dispatcher`, installed as
the context's message handler.  It implements:

* export-table lookup (oid → object + interface),
* interface checking (undeclared verbs are rejected, not ducked),
* **at-most-once execution** via a replay cache keyed ``(caller, msg_id)`` —
  retransmitted requests return the cached reply instead of re-executing
  (togglable, ablation E11),
* migration redirects: a request for an object that moved away answers with
  an ``ObjectMoved`` exception carrying the forwarding reference,
* admission control: when the node carries an
  :class:`~repro.kernel.admission.AdmissionControl`, every request is
  offered to it *before* dispatch (but after dedup, so retransmissions of
  executed requests are never shed) — refused calls answer ``Overloaded``
  with a retry-after hint in the :data:`~repro.wire.frames.K_OVERLOAD`
  header and are never cached, admitted calls pay the control's modelled
  service time on the busy line and release their queue slot when they
  drain,
* virtual-time accounting: queueing behind earlier requests, unmarshal,
  dispatch, declared per-operation compute, and reply marshalling.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..iface.interface import Interface
from ..kernel.context import Context
from ..kernel.errors import InterfaceError
from ..resilience.deadline import Deadline
from ..wire import shards, versions
from ..wire.frames import K_OVERLOAD, ONEWAY, REQUEST, Frame
from ..wire.refs import ObjectRef


@dataclass
class ExportEntry:
    """One exported object in a context's export table.

    Attributes:
        obj: the implementation object (lives only in this context).
        interface: the interface it is exported under.
        ref: the reference under which remote contexts know it.
        moved_to: forwarding reference if the object migrated away.
        revoked: true once unexported; requests answer ``DanglingReference``.
        policy_name: name of the proxy factory the exporter chose (the
            service-selected client-side representative; see repro.core).
        policy_config: marshallable configuration shipped with the factory.
        mutation_hooks: server-side components whose ``after(verb, args,
            kwargs)`` runs after each successful mutating operation — the
            caching policy's invalidation broadcaster and the persistence
            manager's checkpointer live here.
        replica_log: per-key version log, created lazily on the first
            quorum-enveloped request (see :mod:`repro.wire.versions`);
            ``None`` for every entry that never serves versioned traffic.
        election: the replica's :class:`~repro.failures.election.
            ElectionState` when the group runs leader election; ``None``
            otherwise.  Its presence switches the versioned protocol
            steps into term-fencing mode.
        sharding: the shard's :class:`~repro.wire.shards.ShardState` when
            the object is one partition of a sharded deployment; ``None``
            otherwise.  Its presence switches on ring-epoch fencing: an
            enveloped call with a stale epoch gets a redirect wrapper, a
            plain call after the first rebalance gets ``StaleShardRing``.
    """

    obj: object
    interface: Interface
    ref: ObjectRef
    moved_to: ObjectRef | None = None
    revoked: bool = False
    policy_name: str = "stub"
    policy_config: dict = field(default_factory=dict)
    mutation_hooks: list = field(default_factory=list)
    replica_log: object | None = None
    election: object | None = None
    sharding: object | None = None

    def run_mutation_hooks(self, verb: str, args: tuple, kwargs: dict) -> None:
        """Notify every hook of one successful mutating operation."""
        for hook in self.mutation_hooks:
            hook.after(verb, args, kwargs)


class Dispatcher:
    """Demultiplexes inbound frames onto a context's exported objects."""

    def __init__(self, context: Context, transport, replay_capacity: int = 4096):
        self.context = context
        self.transport = transport
        # Fixed for the context's lifetime; cached off the per-frame path
        # (ctx.system is two attribute hops per read).
        self._system = context.system
        self._costs = self._system.costs
        self.at_most_once = True
        self.replay_capacity = replay_capacity
        self._replay: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self.stats = {"requests": 0, "duplicates": 0, "exceptions": 0,
                      "oneways": 0, "redirects": 0, "deadline_rejects": 0,
                      "sheds": 0}
        context.handler = self.handle

    # -- entry point -----------------------------------------------------------

    def handle(self, data: bytes, arrive: float) -> tuple[bytes, float] | None:
        """Process one inbound frame; returns ``(reply_bytes, ready_time)``.

        Returns ``None`` for one-way frames.

        Virtual-time model: requests serialise through the context's busy
        line — work starts at ``max(arrive, line.busy_until)``.  The
        context's activity clock is rebased to that start for the duration
        of the request (so nested outbound calls the handler makes are
        timed correctly), then restored to the latest time the context has
        seen.  An *idle* server therefore never delays a request just
        because its clock ran ahead serving someone else — or standing
        around.
        """
        ctx = self.context
        frame = None
        admitted_target = None
        admission = ctx.node.admission
        if admission is not None:
            # Admission is a *front-door* check at the arrival instant —
            # before the busy-line wait, because a server whose queue is
            # full must refuse on arrival, not after the refused request
            # waited out the very backlog it was refused to bound.  Dedup
            # runs first so a retransmission of an executed request hits
            # the replay cache (below) and is never shed.  Rejection is
            # modelled free: a header peek, off the serving path.
            frame = self.transport.decode_frame(data, ctx)
            if frame.kind == REQUEST and not (
                    self.at_most_once
                    and (frame.src, frame.msg_id) in self._replay):
                retry_at = admission.admit(frame.target, arrive)
                if retry_at is not None:
                    self.stats["sheds"] += 1
                    reply = frame.exception_to(
                        "Overloaded",
                        f"{frame.verb!r} shed at admission on "
                        f"{ctx.node.name!r}")
                    reply.headers[K_OVERLOAD] = retry_at
                    # Deliberately not remembered: the operation never
                    # executed, so a retransmission must be re-admitted
                    # (and may then succeed) rather than served the
                    # stale refusal.
                    return self.transport.encode_frame(reply, ctx), arrive
                admitted_target = frame.target
        start = max(arrive, ctx.line.busy_until)
        resume_at = max(ctx.clock.now, start)
        ctx.clock.reset(start)
        if admitted_target is not None and admission.service_time > 0.0:
            # The modelled per-request work: this is what makes admitted
            # calls queue and drain in virtual time on the context busy
            # line instead of executing instantaneously.
            ctx.charge(admission.service_time)
        # One staging window per dispatch tick: oneways the handler fans
        # out (event publishes, cache invalidations) coalesce per link
        # and flush when the tick ends (or earlier, if program order
        # demands it — see RpcProtocol._maybe_stage).
        rpc = self._system.rpc
        if rpc is not None and rpc.reply_batching:
            rpc.open_reply_window()
        else:
            rpc = None
        try:
            outcome = self._handle_at(data, frame)
        finally:
            if rpc is not None:
                rpc.close_reply_window()
            end = ctx.clock.now
            if admitted_target is not None:
                # Release the queue slot at the call's busy-line end —
                # the slot drains when the work does, not at dispatch.
                admission.finish(admitted_target, end)
            if end > start:
                ctx.line.occupy(start, end - start)
            ctx.clock.reset(max(resume_at, end))
        return outcome

    def _handle_at(self, data: bytes,
                   frame: Frame | None = None) -> tuple[bytes, float] | None:
        """Body of :meth:`handle`, running on the rebased context clock.

        ``frame`` is the already-decoded frame when the admission front
        door ran (the unmarshal *cost* is still charged here, on the busy
        line, where serving pays it)."""
        ctx = self.context
        system = self._system
        costs = self._costs
        ctx.charge(costs.marshal_fixed + len(data) * costs.marshal_byte_cost)
        if frame is None:
            frame = self.transport.decode_frame(data, ctx)
        if frame.kind == ONEWAY:
            self.stats["oneways"] += 1
            ctx.charge(costs.dispatch_cost)
            self._execute(frame)
            return None
        if frame.kind != REQUEST:
            return None
        self.stats["requests"] += 1
        dedup_key = (frame.src, frame.msg_id)
        if self.at_most_once and dedup_key in self._replay:
            self.stats["duplicates"] += 1
            ctx.charge(costs.dispatch_cost)
            return self._replay[dedup_key], ctx.clock.now
        ctx.charge(costs.dispatch_cost)
        deadline = Deadline.from_headers(frame.headers) if frame.headers \
            else None
        if deadline is not None and deadline.expired(ctx.clock.now):
            # The caller's budget is already spent: executing the operation
            # can no longer help anyone, so skip dispatch entirely and tell
            # the (possibly still waiting) caller why.
            self.stats["deadline_rejects"] += 1
            reply = frame.exception_to(
                "DeadlineExceeded",
                f"budget spent before dispatch of {frame.verb!r}")
            return self.transport.encode_frame(reply, ctx), ctx.clock.now
        # Park the deadline on the serving context so nested outbound calls
        # the handler makes inherit the root caller's budget.
        enclosing = ctx.current_deadline
        if deadline is None and enclosing is None:
            ctx.current_deadline = None
        else:
            ctx.current_deadline = Deadline.merge(deadline, enclosing)
        try:
            reply = self._dispatch(frame)
        finally:
            ctx.current_deadline = enclosing
        rpc = system.rpc
        if rpc is not None and rpc._windows and rpc._windows[-1]:
            # Oneways the handler fanned out (mutation hooks) preceded
            # this event inline; flush staged ones now so the trace keeps
            # the original emission order.
            rpc.flush_reply_window()
        system.trace.emit(ctx.clock.now, "invoke", frame.src, ctx.context_id,
                          frame.verb)
        reply_data = self.transport.encode_frame(reply, ctx)
        if reply_data.__class__ is not bytes:
            # A zero-copy reply may hold mutable segments the service still
            # owns; snapshot them now so the wire (and the replay cache)
            # carries what was sent, not what the buffer later becomes.
            reply_data = reply_data.freeze()
        if self.at_most_once:
            self._remember(dedup_key, reply_data)
        return reply_data, ctx.clock.now

    # -- internals ---------------------------------------------------------------

    def _dispatch(self, frame: Frame) -> Frame:
        entry = self.context.exports.get(frame.target)
        if entry is None or entry.revoked:
            return frame.exception_to(
                "DanglingReference",
                f"context {self.context.context_id!r} exports no object "
                f"{frame.target!r}")
        if entry.moved_to is not None:
            self.stats["redirects"] += 1
            fwd = entry.moved_to
            return frame.exception_to(
                "ObjectMoved",
                f"object {frame.target!r} migrated to {fwd.context_id!r}",
                detail=fwd.fields())
        headers = frame.headers
        if headers and (versions.has_envelope(headers)
                        or shards.has_envelope(headers)):
            # Enveloped request (replicated or sharded policy): the wire
            # module's protocol steps wrap the result and run the mutation
            # hooks themselves.  Application exceptions a step lets
            # through (a primary write's, a shard's) travel back as the
            # usual exception frame; versioned reads and replica applies
            # fold theirs into the reply wrapper instead (the caller needs
            # the replica's version either way).
            args, kwargs = frame.body if frame.body else ((), {})
            try:
                return frame.reply_to(self.serve_enveloped(
                    entry, frame.verb, args, kwargs, headers))
            except Exception as exc:  # ReproError or application error alike
                self.stats["exceptions"] += 1
                return frame.exception_to(type(exc).__name__, str(exc))
        if entry.sharding is not None and entry.sharding.epoch > 1:
            # A plain call on a shard whose ring has been rebalanced: the
            # caller routed without (or with a pre-rebalance) ring, so it
            # may well be at the wrong owner.  Redirect with the current
            # map — the sharded counterpart of the ObjectMoved chain.
            self.stats["redirects"] += 1
            return frame.exception_to(
                "StaleShardRing",
                f"shard {frame.target!r} is at ring epoch "
                f"{entry.sharding.epoch}; re-route with the current map",
                detail=entry.sharding.map())
        op = entry.interface.operations.get(frame.verb)
        if op is None:
            return frame.exception_to("InterfaceError",
                                      _undeclared(entry, frame.verb))
        if op.compute > 0:
            self.context.charge(op.compute)
        try:
            result = self._call(entry, frame)
        except Exception as exc:  # ours or the application's: ship it
            self.stats["exceptions"] += 1
            return frame.exception_to(type(exc).__name__, str(exc))
        if entry.mutation_hooks and not op.readonly:
            args, kwargs = frame.body if frame.body else ((), {})
            entry.run_mutation_hooks(frame.verb, args, kwargs)
        return frame.reply_to(result)

    def serve_enveloped(self, entry: ExportEntry, verb: str, args: tuple,
                        kwargs: dict, headers: dict) -> dict:
        """Serve one enveloped call; returns the reply wrapper or raises.

        The single step behind every ``q.*``/``s.*`` call, however it got
        here: :meth:`_dispatch` feeds it inbound frames, and
        :meth:`RpcProtocol.call <repro.rpc.protocol.RpcProtocol.call>`
        its same-context arm — locality changes what a call costs, never
        which protocol step serves it.  Control calls are verb-less (log
        transfers and election rounds, ring reads and arc handoffs);
        operations get the usual interface check and compute accounting
        first.  The wire module is handed what its steps need from the
        serving context: ``now`` (terms and leases are fenced on this
        clock, read before the operation is charged — as the migration
        redirect chain consults ``moved_to`` at dispatch time), the
        checked ``invoke`` for replayed log entries, and ``call_peer``
        for a handoff's nested calls.
        """
        wire = versions if versions.has_envelope(headers) else shards
        now = self.context.clock.now
        if wire.H_CONTROL not in headers:
            self._admit(entry, verb)
        return wire.serve_envelope(entry, verb, args, kwargs, headers,
                                   now=now, invoke=self._invoke_checked,
                                   call_peer=self._call_peer)

    def _admit(self, entry: ExportEntry, verb: str) -> None:
        """Interface check and compute accounting of one operation."""
        op = entry.interface.operations.get(verb)
        if op is None:
            raise InterfaceError(_undeclared(entry, verb))
        if op.compute > 0:
            self.context.charge(op.compute)

    def _invoke_checked(self, entry: ExportEntry, verb: str, args: tuple,
                        kwargs: dict):
        """Replayed log entries (repair pushes) get the same interface
        check and compute accounting as a direct request."""
        self._admit(entry, verb)
        return getattr(entry.obj, verb)(*args, **kwargs)

    def _call_peer(self, shard_spec: list, control: list,
                   body_args: tuple) -> dict:
        """Nested ring-control call to a peer shard (handoff's install and
        commit legs): an ordinary enveloped call — nested outbound calls
        inside a handler are legal (migration's mover does the same)."""
        return self._system.rpc.call(
            self.context, ObjectRef(*shard_spec), "", tuple(body_args), {},
            headers={shards.H_CONTROL: control})

    def _execute(self, frame: Frame) -> None:
        """Best-effort execution for one-way frames (errors are dropped)."""
        entry = self.context.exports.get(frame.target)
        if entry is None or entry.revoked or entry.moved_to is not None:
            return
        if frame.verb not in entry.interface:
            return
        try:
            self._call(entry, frame)
        except Exception:
            pass

    def _call(self, entry: ExportEntry, frame: Frame):
        args, kwargs = frame.body if frame.body else ((), {})
        method = getattr(entry.obj, frame.verb)
        return method(*args, **kwargs)

    def _remember(self, key: tuple[str, int], reply_data: bytes) -> None:
        self._replay[key] = reply_data
        while len(self._replay) > self.replay_capacity:
            self._replay.popitem(last=False)

    def forget_caller(self, context_id: str) -> int:
        """Drop replay entries for one caller (used when a caller context
        is torn down); returns how many entries were evicted."""
        stale = [key for key in self._replay if key[0] == context_id]
        for key in stale:
            del self._replay[key]
        return len(stale)


def _undeclared(entry: ExportEntry, verb: str) -> str:
    return f"interface {entry.interface.name!r} declares no operation {verb!r}"


def ensure_dispatcher(context: Context, transport) -> Dispatcher:
    """Get or create the dispatcher of a context."""
    handler = context.handler
    if handler is not None and hasattr(handler, "__self__") \
            and isinstance(handler.__self__, Dispatcher):
        return handler.__self__
    return Dispatcher(context, transport)
