"""The client half of RPC: request/reply with retries and timeouts.

Implements the Birrell–Nelson discipline over the unreliable transport:

* a request is retransmitted on timeout, up to a retry budget;
* together with the server's replay cache this yields **at-most-once**
  execution with at-least-once delivery attempts;
* remote exceptions are re-raised locally, mapped back to library types
  where known;
* a **lightweight fast path** (cf. Bershad et al. 1989) spares calls whose
  target lives in the calling context the frame, the marshalling and the
  network — and nothing else: they are served by the very dispatcher step
  inbound frames take (:meth:`Dispatcher.serve <repro.rpc.dispatcher.
  Dispatcher.serve>`), so guards, interface check, mutation hooks and
  ring fencing do not depend on where the caller sits.

This module is deliberately proxy-agnostic: both the dumb stubs of
:mod:`repro.rpc.stubs` and the smart proxies of :mod:`repro.core.policies`
bottom out in :meth:`RpcProtocol.call`.
"""

from __future__ import annotations

from typing import Any

from ..kernel import errors as kernel_errors
from ..kernel.context import Context
from ..kernel.errors import (
    DeadlineExceeded,
    DistributionError,
    ObjectMoved,
    Overloaded,
    ReproError,
    RpcTimeout,
    StaleShardRing,
)
from ..resilience.deadline import Deadline, header_time
from ..resilience.retry import DEFAULT_RETRY, RetryPolicy
from ..wire.frames import (EXCEPTION, FRAMED, K_OVERLOAD, ONEWAY, REPLY,
                           REQUEST, Frame, reply_value)
from ..wire.refs import ObjectRef
from .dispatcher import ensure_dispatcher
from .transport import Transport


class RemoteError(DistributionError):
    """An application exception raised by the remote object.

    Attributes:
        remote_type: class name of the original exception on the server.
    """

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


#: Exception classes that are reconstructed as themselves when they cross the
#: wire (library errors plus common Python errors services raise).
_RAISABLE: dict[str, type[BaseException]] = {
    name: obj for name, obj in vars(kernel_errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}
_RAISABLE.update({
    "KeyError": KeyError, "ValueError": ValueError, "TypeError": TypeError,
    "IndexError": IndexError, "FileNotFoundError": FileNotFoundError,
    "PermissionError": PermissionError, "RuntimeError": RuntimeError,
    "LookupError": LookupError, "ZeroDivisionError": ZeroDivisionError,
})


def remote_exception(name: str, message: str) -> BaseException:
    """Rebuild a remote exception from its class name and message.

    Known library and common Python exception types are reconstructed as
    themselves; everything else degrades to :class:`RemoteError`.  Shared
    by the reply acceptor below and by proxies that carry exceptions in
    marshalled wrappers (the replicated policy's versioned reads).
    """
    klass = _RAISABLE.get(name)
    if klass is not None:
        return klass(message)
    return RemoteError(name, message)


class RpcProtocol:
    """Synchronous request/reply over the simulated transport."""

    def __init__(self, system, transport: Transport | None = None):
        self.system = system
        self.transport = transport or system.transport or Transport(system)
        # Fixed for the system's lifetime (System.__init__ never swaps them);
        # cached to keep attribute chains off the per-call path.  The
        # context index only ever grows, so a dict read finds any context.
        self._costs = system.costs
        self._network = system.network
        self._trace = system.trace
        self._contexts = system._contexts
        # The transport's per-context encoders, checked against the hook
        # per use; the legs' trace labels and node names.
        self._encoders = self.transport._encoders
        self._labels: dict[tuple[str, str], str] = {}
        self._node_names: dict[str, str] = {}
        self.lrpc_enabled = True
        #: Send time of the most recent call's first attempt (promise layer).
        self.last_sent_at: float | None = None
        #: Retry engine used when a call names no policy of its own.
        self.retry_policy: RetryPolicy = DEFAULT_RETRY
        from collections import defaultdict
        from functools import partial
        from itertools import count
        #: Per sending context, its message ids 1, 2, 3, ... (unique
        #: within one sender): ``next()`` on a C counter mints one.
        self._msg_ids = defaultdict(partial(count, 1))
        self._retry_rng = system.seeds.stream("rpc.retry.jitter")
        # Attempt budget of the last policy seen (RetryPolicy is frozen
        # and the cost model is fixed, so the pair fully determines it).
        self._budget_policy: RetryPolicy | None = None
        self._budget_attempts = 0
        self.stats = {"calls": 0, "oneways": 0, "retries": 0, "timeouts": 0,
                      "local_fast_path": 0, "remote_exceptions": 0,
                      "deadline_exceeded": 0, "overload_sheds": 0,
                      "retry_after_waits": 0}
        system.rpc = self

    # -- public API ---------------------------------------------------------

    def call(self, src: Context, ref: ObjectRef, verb: str,
             args: tuple = (), kwargs: dict | None = None, *,
             retry: RetryPolicy | None = None,
             deadline: Deadline | None = None,
             headers: dict | None = None) -> Any:
        """Invoke ``verb`` on the object named by ``ref``, blocking for the reply.

        ``retry`` overrides the protocol's retransmission schedule for this
        call; ``deadline`` caps the call's total wait and travels in the
        request headers (merged with any deadline the serving context is
        itself under, so nested chains inherit the root caller's budget).
        ``headers`` are extra request-header entries (protocol extensions:
        the quorum envelopes of :mod:`repro.wire.versions`, the shard
        envelopes of :mod:`repro.wire.shards`).  How the call travels is
        decided here and nowhere above: a remote target gets them in the
        request frame, a same-context one in :meth:`_local_call` — either
        way the caller receives the step's reply wrapper.

        Raises the remote exception locally; raises
        :class:`~repro.kernel.errors.RpcTimeout` when the retry budget is
        exhausted without a reply, or :class:`~repro.kernel.errors.
        DeadlineExceeded` when the deadline expires first.
        """
        kwargs = kwargs or {}
        self.stats["calls"] += 1
        enclosing = src.current_deadline
        if deadline is not None or enclosing is not None:
            # Checked before the call picks its path: a spent budget is
            # refused wherever the target lives.
            deadline = Deadline.merge(deadline, enclosing)
            if deadline.expired(src.clock.now):
                self.stats["deadline_exceeded"] += 1
                raise DeadlineExceeded(
                    f"{verb!r} on {ref}: budget spent before the first "
                    "attempt")
        if self.lrpc_enabled and ref.context_id == src.context_id:
            return self._local_call(src, ref, verb, args, kwargs, headers,
                                    deadline)
        policy = retry or self.retry_policy
        # A copy: the deadline is written into the request's dict only.
        headers = dict(headers) if headers else {}
        if deadline is not None:
            deadline.to_headers(headers)
        # The request is encoded from its fields with the sender's hooks
        # (no frame is built), and its marshalling charged to the sender.
        src_id = src.context_id
        encoder = self._encoders.get(src_id)
        if encoder is None or encoder.encoder_hook is not src.encoder_hook:
            encoder = self.transport.encoder_for(src)
        data = encoder.encode_frame_message(
            REQUEST, next(self._msg_ids[src_id]), src_id, ref.context_id,
            ref.oid, verb, (tuple(args), kwargs), headers)
        costs = self._costs
        clock = src.clock
        # Costs are non-negative (CostModel refuses others when built): a
        # slot write is ``Clock.advance`` without its check.
        clock.now += costs.marshal_fixed \
            + data.nbytes * costs.marshal_byte_cost
        if policy is self._budget_policy:
            attempts = self._budget_attempts
        else:
            attempts = policy.budget(self._costs)
            self._budget_policy = policy
            self._budget_attempts = attempts
        tracker = self.system.latency
        # The retransmission-timer interval is pure arithmetic for
        # jitter-free policies, and an attempt that gets its reply never
        # consults the timer — so ``patience`` and ``wait_until`` are
        # computed lazily, on the first timed-out attempt.  Jittered
        # policies draw from the seeded stream inside ``interval`` and must
        # keep drawing eagerly, once per attempt, in the original order.
        jittered = policy.jitter > 0.0
        patience = None
        for attempt in range(attempts):
            if attempt > 0:
                self.stats["retries"] += 1
            sent_at = src.clock.now
            if attempt == 0:
                # Consumed by the promise layer to overlap round trips.
                self.last_sent_at = sent_at
            if jittered:
                if patience is None:
                    patience = self._patience(src, ref, policy, tracker,
                                              data.nbytes)
                wait_until = sent_at + policy.interval(attempt, patience,
                                                       self._retry_rng)
                if deadline is not None:
                    # A wait never outlives the call's budget: the final
                    # attempt's timer is cut at the deadline.
                    wait_until = deadline.clamp(wait_until)
            else:
                wait_until = None
            # A lost leg, or a callee whose node is down (even if the
            # message was in flight at the crash), is the timeout path.
            outcome = self._deliver(REQUEST, verb, src_id, ref, data,
                                    sent_at)
            if outcome is not None:
                # The reply leg: traced as sent, then the network (both
                # node names were cached by the request leg).
                reply_data, ready = outcome
                nbytes = reply_data.nbytes
                self._trace.emit(ready, "send", ref.context_id, src_id,
                                 "rep", nbytes)
                names = self._node_names
                back = self._network.transmit(
                    names[ref.context_id], names[src_id], nbytes, ready)
            if outcome is not None and back.delivered:
                # Birrell-Nelson: the retransmission timer detects *loss*,
                # not slow servers (a live server's acks keep the caller
                # waiting), so a reply is accepted whenever it arrives.
                arrive = back.arrive_time
                if arrive > clock.now:
                    clock.now = arrive
                clock.now += costs.marshal_fixed \
                    + reply_data.nbytes * costs.marshal_byte_cost
                value = reply_value(reply_data)
                if value is FRAMED:
                    reply = self.transport.decode_frame(reply_data, src)
                    hint = header_time(reply.headers, K_OVERLOAD) \
                        if reply.headers else None
                    if hint is not None:
                        # Shed at admission, with when capacity returns;
                        # never cached, so a retransmission is re-admitted.
                        # The server answered: the breaker sees a success.
                        self.stats["overload_sheds"] += 1
                        exhausted = attempt + 1 >= attempts
                        beyond = deadline is not None \
                            and hint >= deadline.expires_at
                        if exhausted or beyond:
                            # No attempt can land within the budget: raise
                            # ``Overloaded`` rather than wait out the hint.
                            self._feed_breaker(src, ref, success=True)
                            return self._accept(src, ref, reply)
                        # Wait until the hinted time, not the backoff.
                        self.stats["retry_after_waits"] += 1
                        if hint > clock.now:
                            clock.now = hint
                        continue
                if tracker is not None:
                    # Karn's rule analogue: only successful attempts are
                    # sampled, each against its own send time.
                    tracker.observe(src.context_id, ref.context_id,
                                    src.clock.now - sent_at)
                if self.system.breakers is not None:
                    self._feed_breaker(src, ref, success=True)
                if value is not FRAMED:
                    return value
                return reply.body if reply.kind == REPLY \
                    else self._accept(src, ref, reply)
            if wait_until is None:
                if patience is None:
                    patience = self._patience(src, ref, policy, tracker,
                                              data.nbytes)
                wait_until = sent_at + policy.interval(attempt, patience,
                                                       self._retry_rng)
                if deadline is not None:
                    wait_until = deadline.clamp(wait_until)
            if wait_until > clock.now:
                clock.now = wait_until
            if deadline is not None and deadline.expired(clock.now):
                self.stats["deadline_exceeded"] += 1
                self._feed_breaker(src, ref, success=False)
                raise DeadlineExceeded(
                    f"{verb!r} on {ref}: deadline spent after "
                    f"{attempt + 1} attempts")
        self.stats["timeouts"] += 1
        self._feed_breaker(src, ref, success=False)
        if patience is None:
            patience = self._patience(src, ref, policy, tracker, data.nbytes)
        raise RpcTimeout(
            f"{verb!r} on {ref} failed after {attempts} attempts "
            f"({patience * 1e3:.1f} ms base timeout)")

    def _patience(self, src: Context, ref: ObjectRef, policy: RetryPolicy,
                  tracker, nbytes: int) -> float:
        """Base retransmission timeout for one call.

        Scales with the request size: a bulk argument legitimately takes
        longer than the base timeout to even reach the server
        (Birrell-Nelson RPC used per-packet acks for the same reason).
        """
        patience = self._costs.rpc_timeout + 2 * self._network.transit_time(
            src.node.name, ref.node_name, nbytes)
        if tracker is not None and getattr(policy, "adaptive", False):
            # Per-link patience: the Jacobson RTO from observed RTTs, with
            # the global constant as the cold-link fallback.
            patience = tracker.patience(src.context_id, ref.context_id,
                                        patience)
        return patience

    def send_oneway(self, src: Context, ref: ObjectRef, verb: str,
                    args: tuple = (), kwargs: dict | None = None) -> None:
        """Fire-and-forget invocation: no reply, no delivery guarantee.

        The message leaves here and, where it arrives, is served before
        this returns: a one-way sent from inside an operation precedes
        whatever the operation does next.
        """
        self.stats["oneways"] += 1
        kwargs = kwargs or {}
        if self.lrpc_enabled and ref.context_id == src.context_id:
            try:
                self._local_call(src, ref, verb, args, kwargs)
            except Exception:    # best effort, like the framed one-way
                pass
            return
        src_id = src.context_id
        encoder = self._encoders.get(src_id)
        if encoder is None or encoder.encoder_hook is not src.encoder_hook:
            encoder = self.transport.encoder_for(src)
        data = encoder.encode_frame_message(
            ONEWAY, next(self._msg_ids[src_id]), src_id, ref.context_id,
            ref.oid, verb, (tuple(args), kwargs), {})
        costs = self._costs
        src.clock.now += costs.marshal_fixed \
            + data.nbytes * costs.marshal_byte_cost
        self._deliver(ONEWAY, verb, src_id, ref, data, src.clock.now)

    def _deliver(self, kind: str, verb: str, src_id: str, ref: ObjectRef,
                 data, at: float):
        """The request leg, one attempt, shared by :meth:`call` and
        :meth:`send_oneway`: traced as sent (whatever becomes of it),
        carried by the network, and — when it arrives at a live context —
        handled there.  Returns the handler's ``(reply, ready)`` outcome,
        or ``None`` for a lost message, a down or unknown callee and a
        one-way.  Drops are traced by the network itself.
        """
        key = (kind, verb)
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = f"{kind}:{verb}" if verb else kind
        dst_id = ref.context_id
        nbytes = data.nbytes
        self._trace.emit(at, "send", src_id, dst_id, label, nbytes)
        names = self._node_names
        src_node = names.get(src_id)
        if src_node is None:
            src_node = names[src_id] = src_id.split("/", 1)[0]
        dst_node = names.get(dst_id)
        if dst_node is None:
            dst_node = names[dst_id] = dst_id.split("/", 1)[0]
        delivery = self._network.transmit(src_node, dst_node, nbytes, at)
        if delivery.delivered:
            dst = self._contexts.get(dst_id)
            # A down node executes nothing, in flight or not.
            if dst is not None and dst.handler is not None \
                    and dst.node.alive:
                return dst.handler(data, delivery.arrive_time)
        return None

    def _feed_breaker(self, src: Context, ref: ObjectRef,
                      success: bool) -> None:
        """Report one call outcome to the breaker registry, when installed."""
        registry = self.system.breakers
        if registry is None:
            return
        if success:
            registry.record_success(src.context_id, ref.context_id,
                                    src.clock.now)
        else:
            registry.record_failure(src.context_id, ref.context_id,
                                    src.clock.now)

    def _accept(self, src: Context, ref: ObjectRef, reply: Frame) -> Any:
        """Turn a reply frame into a return value or a raised exception."""
        if reply.kind == REPLY:
            return reply.body
        if reply.kind == EXCEPTION:
            self.stats["remote_exceptions"] += 1
            name, message, detail = reply.body
            if name == "ObjectMoved":
                raise ObjectMoved(message, forward=None if detail is None
                                  else ObjectRef(*detail))
            if name == "StaleShardRing":
                raise StaleShardRing(message, ring_map=detail)
            if name == "Overloaded":
                raise Overloaded(message, retry_after=header_time(
                    reply.headers, K_OVERLOAD))
            raise remote_exception(name, message)
        raise kernel_errors.ProtocolError(f"unexpected reply kind {reply.kind!r}")

    # -- local fast path ---------------------------------------------------------

    def _local_call(self, src: Context, ref: ObjectRef, verb: str,
                    args: tuple, kwargs: dict, headers: dict | None = None,
                    deadline: Deadline | None = None) -> Any:
        """Same-context invocation: no frame, no marshalling, no network.

        Plain or enveloped, the call is served by the step inbound frames
        take (:meth:`Dispatcher.serve <repro.rpc.dispatcher.Dispatcher.
        serve>`) — same guards, same interface check, same mutation hooks,
        same typed errors; what this arrival path adds is ``local_call``
        (charged with the operation's compute) instead of unmarshal,
        dispatch cost and the replay cache.  The call's ``deadline`` is
        parked on the context while it is served, as the dispatcher parks
        a request's, so the operation's nested calls inherit it.
        """
        self.stats["local_fast_path"] += 1
        enclosing = src.current_deadline
        if deadline is not None:
            src.current_deadline = deadline
        try:
            result = ensure_dispatcher(src, self.transport).serve(
                ref.oid, verb, args, kwargs, headers,
                arrival_cost=self._costs.local_call)
        finally:
            src.current_deadline = enclosing
        self.system.trace.emit(src.clock.now, "invoke", src.context_id,
                               src.context_id, verb)
        return result
