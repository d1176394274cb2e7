"""Server-side dispatch: the skeleton half of RPC.

Each context that exports objects gets a :class:`Dispatcher`, installed as
the context's message handler.  Serving a call is two steps, the same two
however the call arrived:

* **routing** (:meth:`Dispatcher.serve`): export-table lookup (oid →
  entry); a revoked export answers ``DanglingReference``, an object that
  moved away ``ObjectMoved`` carrying the forwarding reference, a plain
  call on a rebalanced shard ``StaleShardRing`` carrying the ring map; an
  enveloped call goes to its wire module's protocol step, which parses
  the envelope first (a malformed one is ``ProtocolError``);
* **performing** (:meth:`ExportEntry.admit` then :meth:`ExportEntry.run`):
  interface checking (undeclared verbs are rejected, not ducked), the
  declared per-operation compute, the method call, and the mutation hooks
  of every non-readonly operation.

What an arrival path adds around them: a same-context caller
(:meth:`RpcProtocol.call <repro.rpc.protocol.RpcProtocol.call>`) pays
``local_call`` and gets errors raised as they are; a one-way frame pays
unmarshal and dispatch cost and has its errors dropped; a request frame
(:meth:`Dispatcher.handle`) additionally gets:

* **at-most-once execution** via a replay cache keyed ``(caller, msg_id)`` —
  retransmitted requests return the cached reply instead of re-executing
  (togglable, ablation E11); a refusal that executed nothing — a shed, a
  spent deadline, a ``ProtocolError`` — is not remembered, so hostile
  input cannot evict an honest caller's reply,
* admission control: when the node carries an
  :class:`~repro.kernel.admission.AdmissionControl`, every request is
  offered to it *before* dispatch (but after dedup, so retransmissions of
  executed requests are never shed) — refused calls answer ``Overloaded``
  with a retry-after hint in the :data:`~repro.wire.frames.K_OVERLOAD`
  header and are never cached, admitted calls pay the control's modelled
  service time on the busy line and release their queue slot when they
  drain,
* virtual-time accounting: queueing behind earlier requests, unmarshal,
  dispatch, and reply marshalling,
* errors wrapped into exception frames.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

from ..iface.interface import Interface
from ..kernel.context import Context
from ..kernel.errors import (
    DanglingReference,
    EncapsulationViolation,
    InterfaceError,
    ObjectMoved,
    StaleShardRing,
)
from ..resilience.deadline import DEADLINE_HEADER, Deadline
from ..wire import WireMessage, shards, versions
from ..wire.frames import (EXCEPTION, K_OVERLOAD, ONEWAY, REPLY, REQUEST,
                           fields_of)
from ..wire.marshal import _MEMO_STATS
from ..wire.refs import ObjectRef


@dataclass
class ExportEntry:
    """One exported object in a context's export table.

    Attributes:
        obj: the implementation object (lives only in this context);
            ``None`` for a **group entry** — a reference, a policy and a
            configuration with no object behind them.  A group entry
            serves its proxies' verb-less control calls, ``describe`` and
            the hook list its members share; a verb is refused
            (:meth:`admit`), because the only access path to a group is
            the proxy its service ships.
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

    obj: object | None
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

    def admit(self, context: Context, verb: str,
              arrival_cost: float = 0.0) -> None:
        """Interface check and accounting of one operation.

        An undeclared verb is rejected, not ducked, and so is any verb on
        a group entry.  The declared compute is charged to the serving
        ``context`` together with whatever the arrival path adds
        (``arrival_cost``: a same-context call's ``local_call``) — one
        charge, so the clock sees one addition: a slot write, since only
        a positive total is added.
        """
        if self.obj is None:
            raise EncapsulationViolation(
                f"{self.ref.oid!r} is a group entry and holds no object: "
                f"{verb!r} reaches the group through its proxy — bind the "
                "reference")
        op = self.interface.operations.get(verb)
        if op is None:
            raise InterfaceError(f"interface {self.interface.name!r} "
                                 f"declares no operation {verb!r}")
        cost = arrival_cost + op.compute
        if cost > 0:
            context.clock.now += cost

    def run(self, verb: str, args: tuple, kwargs: dict):
        """The operation itself, then — unless it is ``readonly`` — every
        mutation hook.  The only place an exported object's method is
        called; an enveloped step fences between :meth:`admit` and this."""
        result = getattr(self.obj, verb)(*args, **kwargs)
        if self.mutation_hooks \
                and not self.interface.operations[verb].readonly:
            for hook in self.mutation_hooks:
                hook.after(verb, args, kwargs)
        return result

    def perform(self, context: Context, verb: str, args: tuple, kwargs: dict):
        """:meth:`admit`, then :meth:`run`: one whole plain operation."""
        self.admit(context, verb)
        return self.run(verb, args, kwargs)


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
        #: ``(caller, msg_id)`` → the reply message as it was sent: a
        #: plain reply's snapshot, anything else's frozen image (what a
        #: message keeps is the wire module's choice).
        self._replay: OrderedDict[tuple[str, int], WireMessage] = \
            OrderedDict()
        #: The transport's marshallers, checked against the hooks per use.
        self._encoder = self._decoder = None
        self.stats = {"requests": 0, "duplicates": 0, "exceptions": 0,
                      "oneways": 0, "redirects": 0, "deadline_rejects": 0,
                      "sheds": 0}
        context.handler = self.handle

    # -- entry point -----------------------------------------------------------

    def handle(self, data, arrive: float) -> tuple | None:
        """Process one inbound message (a :class:`~repro.wire.WireMessage`,
        or a bytes-like wire image, which is wrapped as one — anything
        else raises ``ProtocolError``), a request or a one-way, in one
        step.  Returns ``(reply_message, ready_time)`` — a served call's
        reply encoded from its fields — or ``None``, dropping a one-way's.

        Virtual-time model: requests serialise through the context's busy
        line — work starts at ``max(arrive, line.busy_until)``.  The
        context's activity clock is rebased to that start for the duration
        of the request (so nested outbound calls the handler makes are
        timed correctly), then restored to the latest time the context has
        seen.  An *idle* server therefore never delays a request just
        because its clock ran ahead serving someone else — or standing
        around.
        """
        if data.__class__ is not WireMessage:
            data = WireMessage.wrap(data)
        ctx = self.context
        decoder = self._decoder
        if decoder is None or decoder.decoder_hook is not ctx.decoder_hook:
            decoder = self._decoder = self.transport.decoder_for(ctx)
        carried = data.carried
        if carried is not None and carried[7].__class__ is tuple \
                and carried[7][1]:
            # An envelope request, read here, once, for admission and
            # dispatch alike: its ``(args, {})`` body and a copy of its
            # headers dict.  ``fields_of`` reads every other message.
            _MEMO_STATS.frames_carried += 1
            kind, msg_id, src, dst, target, verb, body, last = carried
            body, headers, read = (body, {}), last[0].copy(), True
        else:
            read = False
        admitted_target = None
        admission = ctx.node.admission
        if admission is not None:
            # A *front-door* check at the arrival instant, before the
            # busy-line wait: a full server refuses on arrival, not after
            # the backlog it bounds.  Dedup runs first, so a retransmission
            # of an executed request is never shed.  Rejection is free.
            if not read:
                kind, msg_id, src, dst, target, verb, body, headers = \
                    fields_of(data, decoder)
                read = True
            if kind == REQUEST and not (
                    self.at_most_once and (src, msg_id) in self._replay):
                retry_at = admission.admit(target, arrive)
                if retry_at is not None:
                    self.stats["sheds"] += 1
                    # Deliberately not remembered: the operation never
                    # executed, so a retransmission must be re-admitted
                    # (and may then succeed) rather than served the
                    # stale refusal.
                    return self._refusal(
                        msg_id, dst, src,
                        ("Overloaded", f"{verb!r} shed at admission on "
                         f"{ctx.node.name!r}", None),
                        {K_OVERLOAD: retry_at}), arrive
                admitted_target = target
        # Slot writes of floats; maxima compared in line (max() is a call).
        # Every cost is non-negative (CostModel refuses others when built),
        # so a charge is ``Clock.advance`` without its check.
        clock = ctx.clock
        busy, resume_at = ctx.line.busy_until, clock.now
        start = busy if busy > arrive else arrive
        resume_at = start if start > resume_at else resume_at
        clock.now = start
        if admitted_target is not None and admission.service_time > 0.0:
            # The modelled per-request work: this is what makes admitted
            # calls queue and drain in virtual time on the context busy
            # line instead of executing instantaneously.
            ctx.charge(admission.service_time)
        costs = self._costs     # unmarshal is charged on the busy line
        try:
            clock.now += costs.marshal_fixed \
                + data.nbytes * costs.marshal_byte_cost
            if not read:
                kind, msg_id, src, dst, target, verb, body, headers = \
                    fields_of(data, decoder)
            if kind == ONEWAY:
                self.stats["oneways"] += 1
            elif kind != REQUEST:
                return None
            else:
                self.stats["requests"] += 1
                dedup_key = (src, msg_id)
                if self.at_most_once and dedup_key in self._replay:
                    self.stats["duplicates"] += 1
                    clock.now += costs.dispatch_cost
                    return self._replay[dedup_key], clock.now
            clock.now += costs.dispatch_cost
            deadline = Deadline.from_headers(headers) \
                if kind == REQUEST and DEADLINE_HEADER in headers else None
            if deadline is not None and deadline.expired(clock.now):
                # The caller's budget is spent: running the operation can
                # help no one, so skip it and tell the caller why.
                self.stats["deadline_rejects"] += 1
                return self._refusal(msg_id, dst, src, (
                    "DeadlineExceeded",
                    f"budget spent before dispatch of {verb!r}", None),
                    {}), clock.now
            args, kwargs = body if body else ((), {})
            # Parked on the context: nested calls inherit the budget.
            enclosing = ctx.current_deadline
            if deadline is not None or enclosing is not None:
                ctx.current_deadline = Deadline.merge(deadline, enclosing)
            try:
                body = self.serve(target, verb, args, kwargs, headers)
                reply_kind = REPLY
            except Exception as exc:  # ours or the application's: ship it
                detail = None       # a redirect's "where to go instead"
                if isinstance(exc, StaleShardRing):
                    detail = exc.ring_map
                elif isinstance(exc, ObjectMoved) and exc.forward is not None:
                    detail = exc.forward.fields()
                body = (type(exc).__name__, str(exc), detail)
                reply_kind = EXCEPTION
            finally:
                ctx.current_deadline = enclosing
            if kind == ONEWAY:
                return None     # served like a request; no reply is built
            self._system.trace.emit(clock.now, "invoke", src,
                                    ctx.context_id, verb)
            # The reply is encoded from its fields: no reply frame is built.
            encoder = self._encoder
            if encoder is None or encoder.encoder_hook is not ctx.encoder_hook:
                encoder = self._encoder = self.transport.encoder_for(ctx)
            reply_data = encoder.encode_frame_message(
                reply_kind, msg_id, dst, src, "", "", body, {})
            clock.now += costs.marshal_fixed \
                + reply_data.nbytes * costs.marshal_byte_cost
            if self.at_most_once and (reply_kind == REPLY
                                      or body[0] != "ProtocolError"):
                # The message as sent: every delivery copies what it
                # carries, and a written image is already a ``bytes``
                # copy, so a duplicate means what was sent.
                self._replay[dedup_key] = reply_data
                while len(self._replay) > self.replay_capacity:
                    self._replay.popitem(last=False)
            return reply_data, clock.now
        finally:
            end = clock.now
            if admitted_target is not None:
                # Release the queue slot at the call's busy-line end —
                # the slot drains when the work does, not at dispatch.
                admission.finish(admitted_target, end)
            if end > start:
                # ``BusyLine.occupy(start, end - start)``, its float
                # operations in its order: a nested call back into this
                # context may have moved the line past ``start``.
                line = ctx.line
                duration = end - start
                busy = line.busy_until
                line.busy_until = (busy if busy > start else start) \
                    + duration
                line.total_busy += duration
                line.jobs += 1
            clock.now = end if end > resume_at else resume_at

    def _refusal(self, msg_id: int, dst: str, src: str, body: tuple,
                 headers: dict):
        """An exception reply for a request that executed nothing (a shed,
        a spent deadline), encoded from its fields and charged like any
        reply."""
        ctx = self.context
        encoder = self._encoder
        if encoder is None or encoder.encoder_hook is not ctx.encoder_hook:
            encoder = self._encoder = self.transport.encoder_for(ctx)
        data = encoder.encode_frame_message(EXCEPTION, msg_id, dst, src, "",
                                            "", body, headers)
        costs = self._costs
        ctx.clock.now += costs.marshal_fixed \
            + data.nbytes * costs.marshal_byte_cost
        return data

    def close(self) -> None:
        """Drop the cached marshallers, whose hooks lead back to the object
        space that closes this dispatcher when the system closes."""
        self._encoder = self._decoder = None

    # -- internals ---------------------------------------------------------------

    def serve(self, oid: str, verb: str, args: tuple, kwargs: dict,
              headers: dict | None = None, arrival_cost: float = 0.0):
        """Route one call to an export entry and perform it there.

        The single step behind every call on this context, however it
        arrived — a request or a one-way frame (:meth:`handle`), or a
        same-context caller (:meth:`RpcProtocol.call <repro.rpc.protocol.
        RpcProtocol.call>`, which passes its ``local_call`` as
        ``arrival_cost``): locality changes what a call
        costs, never which guards, hooks or protocol step serve it.
        Returns the result (an enveloped call's reply wrapper) or raises a
        typed error; the routing guards' redirects carry where to go
        instead (``ObjectMoved.forward``, ``StaleShardRing.ring_map``).
        """
        ctx = self.context
        entry = ctx.exports.get(oid)
        if entry is None or entry.revoked:
            raise DanglingReference(
                f"context {ctx.context_id!r} exports no object {oid!r}")
        if entry.moved_to is not None:
            self.stats["redirects"] += 1
            fwd = entry.moved_to
            raise ObjectMoved(
                f"object {oid!r} migrated to {fwd.context_id!r}", forward=fwd)
        wire = None
        if headers:
            if not versions.ENVELOPE_KEYS.isdisjoint(headers):
                wire = versions
            elif not shards.ENVELOPE_KEYS.isdisjoint(headers):
                wire = shards
        if wire is not None:
            if arrival_cost:
                # On its own, before the step reads its fence clock.
                ctx.charge(arrival_cost)
        elif entry.sharding is not None and entry.sharding.epoch > 1:
            # A plain call on a shard whose ring has been rebalanced: the
            # caller routed without (or with a pre-rebalance) ring, so it
            # may well be at the wrong owner.  Redirect with the current
            # map — the sharded counterpart of the ObjectMoved chain.
            self.stats["redirects"] += 1
            raise StaleShardRing(
                f"shard {oid!r} is at ring epoch {entry.sharding.epoch}; "
                "re-route with the current map",
                ring_map=entry.sharding.map())
        else:
            entry.admit(ctx, verb, arrival_cost)
        try:
            if wire is not None:
                # The wire module's protocol step wraps the result.  Control
                # calls are verb-less; operations are admitted first, after
                # ``now`` is read (terms and leases are fenced on the clock
                # before the operation is charged).  ``invoke`` performs a
                # replayed log entry whole, ``call_peer`` makes a handoff's
                # nested calls.  Application exceptions a step lets through
                # (a primary write's, a shard's) are raised like a plain
                # call's; versioned reads and replica applies fold theirs
                # into the reply wrapper.
                now = ctx.clock.now
                if wire.H_CONTROL in headers:
                    invoke = partial(entry.perform, ctx)   # a push's replay
                else:
                    entry.admit(ctx, verb)
                    invoke = None
                return wire.serve_envelope(
                    entry, verb, args, kwargs, headers, now=now,
                    invoke=invoke, call_peer=self._call_peer)
            return entry.run(verb, args, kwargs)
        except Exception as exc:
            self.stats["exceptions"] += 1
            if isinstance(exc, (ObjectMoved, StaleShardRing)):
                # Raised by the operation itself (a nested call): an
                # application error like any other.  Only the guards above
                # may tell the caller where to go — a nested object's
                # forward would rebind it to the wrong object.
                raise type(exc)(str(exc)) from None
            raise

    def _call_peer(self, shard_spec: list, control: tuple,
                   body_args: tuple) -> dict:
        """Nested ring-control call to a peer shard (handoff's install and
        commit legs): an ordinary enveloped call — nested outbound calls
        inside a handler are legal (migration's mover does the same)."""
        return self._system.rpc.call(
            self.context, ObjectRef(*shard_spec), "", tuple(body_args), {},
            headers={shards.H_CONTROL: control})


def ensure_dispatcher(context: Context, transport) -> Dispatcher:
    """Get or create the dispatcher of a context."""
    owner = getattr(context.handler, "__self__", None)
    if isinstance(owner, Dispatcher):
        return owner
    return Dispatcher(context, transport)
