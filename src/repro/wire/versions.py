"""Versioned replica envelopes: quorum metadata threaded through the wire.

The ``replicated`` policy's quorum protocol attaches a per-key **version**
(a logical timestamp assigned by the group's sequencer) to every replica
write, and reads collect ``(version, answer)`` pairs so the newest copy wins.
This module owns the wire representation and the server-side protocol
steps.  There is **one call path**: every enveloped call reaches
:func:`serve_envelope` through the serving context's dispatcher
(:meth:`~repro.rpc.dispatcher.Dispatcher.serve`).  The request
metadata rides :attr:`~repro.wire.frames.Frame.headers` (the same
extension point deadlines use), and the versioned reply is a **marshalled
wrapper** (a dict with reserved ``q.*`` keys) because a reply frame's body
is the only thing the RPC client hands back.  Whether the replica is
remote (frames) or co-located with its caller (no frames) is decided
below, in :meth:`RpcProtocol.call <repro.rpc.protocol.RpcProtocol.call>`;
the steps here, and the proxy above, cannot tell.

Frames that carry no quorum envelope are untouched: the header dict stays
empty and :meth:`Marshaller.encode_frame_fields` elides it, so non-
replicated traffic is byte-identical to a build without this module.

**The elected sequencer** (the export entry carries an :class:`~repro.
failures.election.ElectionState`): every write envelope additionally
carries the caller's ``(term, leader)`` belief in :data:`H_TERM`, log
entries are stamped with the term they were assigned under, and stale-term
writes are **fenced** — refused with a :data:`K_FENCED` redirect naming the
current ``(term, leader)``, mirroring the migration chain's
reject-with-forwarding.  A static-primary group is the same protocol with
``entry.election is None``: every step below skips the term check and emits
no term key, so its traffic is byte-identical to a build without elections.

Request header keys (values are small tuples, so an enveloped frame is
pure — sized and shared, never snapshotted; see ``wire/marshal.py``).
The parse takes a list too, and refuses anything else:

========== ======================= ========================================
key        value                   meaning
========== ======================= ========================================
``q.w``    ``(key,)``              primary write: apply, assign the next
                                   version of ``key``, log the operation
``q.a``    ``(key, n)``            replica write: apply iff ``n`` extends
                                   the replica's log of ``key`` contiguously
``q.r``    ``(key,)``              versioned read: answer with the replica's
                                   current version of ``key``
``q.c``    ``("pull", key, since)`` log transfer for repair: return the
           / ``("push", key)``     suffix after ``since`` / apply pushed
                                   entries (ride the request body)
``q.t``    ``(term, leader)``      elected groups: the caller's leadership
                                   belief; stale terms are fenced, newer
                                   terms are adopted
========== ======================= ========================================

Election control verbs (also under ``q.c``): ``("status",)``,
``("vote", term, candidate)``, ``("announce", term, leader)``,
``("renew", term, leader)``, ``("digest",)``, and ``("reset",)`` (discard
the object and its logs ahead of a full resync from the leader — the
divergence repair; a suffix push cannot *un*-apply an executed entry).

Reply wrappers (reserved keys, see :func:`is_wrapped`):

* ``{"q.v": n, "q.val": result}`` — applied/answered at version ``n``;
* ``{"q.v": cur, "q.stale": True}`` — the replica is missing a prefix
  (apply of ``n > cur + 1``): the caller repairs, then retries the ack;
* ``{"q.v": cur, "q.exc": (type, message)}`` — the operation raised an
  application exception (versioned reads re-raise it client-side);
* ``{"q.v": cur, "q.log": [[n, verb, args, kwargs(, term)], ...]}`` —
  pull answer (the fifth element appears only for term-stamped entries);
* ``{"q.f": (term, leader)}`` — fenced: the write's term is stale;
* ``{"q.exp": True}`` — the leader's own lease expired; the caller runs
  a renewal round and retries;
* ``{"q.div": True}`` — divergence: the replica holds a *different*
  entry (another term) at that version; only a reset + full resync from
  the leader can repair it;
* ``q.vt`` — the term of the key's last log entry (reads/stale replies)
  or of the entry at the pull boundary (prefix-equality witness: equal
  ``(version, term)`` pairs imply equal prefixes, because a term has at
  most one leader and a leader assigns each version once);
* ``q.tl`` — the replica's current ``(term, leader)`` (reads, election
  controls); ``q.x`` — its lease expiry; ``q.g`` — a vote/announce/renew
  grant flag; ``q.dig`` — a log digest ``[[key, last_term, version]...]``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..kernel.errors import ProtocolError

#: Request header: primary write ``(key,)`` — apply and assign the version.
H_ASSIGN = "q.w"
#: Request header: replica write ``(key, n)`` — apply iff contiguous.
H_APPLY = "q.a"
#: Request header: versioned read ``(key,)``.
H_READ = "q.r"
#: Request header: log-transfer control ``("pull", key, since)`` /
#: ``("push", key)``.
H_CONTROL = "q.c"
#: Request header: the caller's ``(term, leader)`` belief (elected groups).
H_TERM = "q.t"

#: Reply key: the replica's version of the addressed key after the call.
K_VERSION = "q.v"
#: Reply key: the operation's result (present on success).
K_VALUE = "q.val"
#: Reply key: apply refused, the replica is missing a log prefix.
K_STALE = "q.stale"
#: Reply key: the operation raised ``(type_name, message)``.
K_EXC = "q.exc"
#: Reply key: pulled log suffix ``[[n, verb, args, kwargs(, term)], ...]``.
K_LOG = "q.log"
#: Reply key: fenced — the write's term is stale; value ``(term, leader)``.
K_FENCED = "q.f"
#: Reply key: the leader's self-lease expired; renew and retry.
K_EXPIRED = "q.exp"
#: Reply key: divergence — a different entry of another term sits at that
#: version; suffix repair cannot fix it, only reset + full resync can.
K_DIVERGED = "q.div"
#: Reply key: the term of the key's last entry (or the pull boundary's).
K_VTERM = "q.vt"
#: Reply key: the replica's current ``(term, leader)``.
K_TERM = "q.tl"
#: Reply key: the replica's lease expiry (vote refusals, status).
K_EXPIRY = "q.x"
#: Reply key: vote/announce/renew outcome flag.
K_GRANT = "q.g"
#: Reply key: per-key log digest ``[[key, last_term, version], ...]``.
K_DIGEST = "q.dig"

#: The request-header keys that open a quorum envelope: a call carrying
#: any of them is served by :func:`serve_envelope`.
ENVELOPE_KEYS = frozenset((H_ASSIGN, H_APPLY, H_READ, H_CONTROL))

#: Control verbs served by the export entry's election state.
_ELECTION_CONTROLS = ("status", "vote", "announce", "renew")


class ReplicaLog:
    """Per-key contiguous operation log of one replica.

    The version of a key is simply the length of its log; entry ``n`` is
    the operation that moved the key from version ``n - 1`` to ``n``.
    Because versions are assigned by a single sequencer (the leader of
    the entry's term), every replica's log of a key is a prefix of that
    leader's — repair is a suffix transfer.  Across a leader change two
    logs can hold *different* entries at the same version (an old
    leader's uncommitted tail); entries therefore carry the term they
    were assigned under, and ``(term, version)`` pairs order
    lexicographically: equal pairs imply equal prefixes (a term has one
    leader, and a leader assigns each version of a key exactly once).
    """

    __slots__ = ("_logs",)

    def __init__(self) -> None:
        self._logs: dict[Any, list] = {}

    def version(self, key) -> int:
        """The highest contiguous version this replica holds for ``key``."""
        log = self._logs.get(key)
        return len(log) if log else 0

    def last_term(self, key) -> int:
        """The term of the key's last entry (0 for an empty log)."""
        log = self._logs.get(key)
        return log[-1][4] if log else 0

    def term_at(self, key, n: int) -> int:
        """The term of the entry that produced version ``n`` (0 if absent)."""
        log = self._logs.get(key)
        n = int(n)
        if not log or not 1 <= n <= len(log):
            return 0
        return log[n - 1][4]

    def append(self, key, n: int, verb: str, args, kwargs,
               term: int = 0) -> None:
        """Record the operation that produced version ``n`` of ``key``."""
        log = self._logs.setdefault(key, [])
        if n != len(log) + 1:
            raise ProtocolError(
                f"replica log of {key!r} at version {len(log)} cannot "
                f"append version {n}")
        log.append((n, verb, list(args), dict(kwargs), int(term)))

    def suffix(self, key, since: int) -> list:
        """The marshallable entries after version ``since`` (for repair).

        Un-termed entries (a static-primary group's) keep the
        four-element wire form, so repair traffic without elections is
        byte-identical to a build without term stamping.
        """
        log = self._logs.get(key)
        if not log:
            return []
        return [[n, verb, list(args), dict(kwargs)] if term == 0
                else [n, verb, list(args), dict(kwargs), term]
                for n, verb, args, kwargs, term in log[int(since):]]

    def digest(self) -> list:
        """``[[key, last_term, version], ...]`` over every key, sorted."""
        return [[key, log[-1][4], len(log)]
                for key, log in sorted(self._logs.items(),
                                       key=lambda item: repr(item[0]))
                if log]


def replica_log(entry) -> ReplicaLog:
    """The (lazily created) version log of one export-table entry."""
    log = entry.replica_log
    if log is None:
        log = entry.replica_log = ReplicaLog()
    return log


#: What a value of the wrong shape raises where the envelope is parsed.
_MALFORMED = (TypeError, ValueError, IndexError, KeyError)

#: What a spec may be: a tuple, as every caller here builds it, or a list.
#: A string indexes too, character by character, so the parse refuses
#: anything else by type.
SPEC_TYPES = (tuple, list)


def _term_of(headers: dict | None) -> tuple[int, int] | None:
    """The ``(term, leader)`` a request carries, if any: the parse of
    :data:`H_TERM`, which every step that fences calls before it changes
    anything (a malformed belief is :class:`ProtocolError`)."""
    spec = headers.get(H_TERM) if headers else None
    if spec is None:
        return None
    try:
        if not isinstance(spec, SPEC_TYPES):
            raise TypeError(spec)
        return int(spec[0]), int(spec[1])
    except _MALFORMED:
        raise ProtocolError(f"malformed {H_TERM} envelope {spec!r}") from None


def _fence_write(entry, headers: dict | None, now: float) -> dict | None:
    """Election-mode gate for mutating envelopes (assign/apply/push/reset).

    A stale term answers the :data:`K_FENCED` redirect; a newer term is
    adopted on the spot (a lost announce heals through ordinary traffic).
    Returns the refusal wrapper, or ``None`` to proceed.
    """
    state = entry.election
    if state is None:
        return None
    claim = _term_of(headers)
    if claim is None:
        return None
    term, leader = claim
    refused = state.fence(term)
    if refused is not None:
        return refused
    state.adopt(term, leader, now)
    return None


# -- server-side protocol steps -----------------------------------------------
#
# Each step takes the export entry and returns the marshallable reply
# wrapper.  The dispatcher has already admitted the operation (interface
# check, compute accounting) when a step runs, so a step fences and then
# takes the entry's ``run`` (the method call plus its mutation hooks); only
# a push replays *other* operations, and performs them whole through the
# dispatcher's ``invoke``.  Application exceptions are folded into the
# wrapper for reads and replica applies; a primary write propagates them so
# nothing is logged and the fan-out never starts — the group stays converged.


def serve_read(entry, key, verb: str, args, kwargs) -> dict:
    """A versioned read: the answer plus the replica's version of ``key``.

    Reads are never fenced — a replica may answer during an election
    window (the read-side promotion step is what keeps exposed values
    stable) — but in election mode the reply advertises the entry term
    of the answer and the replica's current ``(term, leader)`` so the
    caller can adopt a newer leadership opportunistically.
    """
    log = replica_log(entry)
    state = entry.election
    extra = ({K_VTERM: log.last_term(key),
              K_TERM: (state.term, state.leader)}
             if state is not None else {})
    try:
        result = entry.run(verb, args, kwargs)
    except Exception as exc:
        return {K_VERSION: log.version(key),
                K_EXC: (type(exc).__name__, str(exc)), **extra}
    return {K_VERSION: log.version(key), K_VALUE: result, **extra}


def serve_assign(entry, key, verb: str, args, kwargs,
                 headers: dict | None = None, now: float = 0.0) -> dict:
    """A primary write: execute, then log it under the next version.

    In election mode the assign is the most-guarded step: the request's
    term must be current, this replica must believe *itself* leader of
    that term, and its own lease must still be valid (an expired lease
    answers :data:`K_EXPIRED`; the caller drives a renewal round through
    the followers and retries).  The entry is logged under the term that
    assigned it.
    """
    log = replica_log(entry)
    state = entry.election
    term = 0
    if state is not None:
        refused = _fence_write(entry, headers, now)
        if refused is not None:
            return refused
        if not state.is_leader():
            state.counters.incr("fencing_rejects")
            return {K_FENCED: (state.term, state.leader)}
        if not state.lease_valid(now):
            state.counters.incr("lease_refusals")
            return {K_EXPIRED: True, K_TERM: (state.term, state.leader)}
        term = state.term
    result = entry.run(verb, args, kwargs)    # raises: nothing is logged
    n = log.version(key) + 1
    log.append(key, n, verb, args, kwargs, term)
    reply = {K_VERSION: n, K_VALUE: result}
    if state is not None:
        reply[K_VTERM] = term
    return reply


def _apply_entry(entry, key, n: int, verb: str, args, kwargs, term: int,
                 invoke: Callable[[str, tuple, dict], Any]) -> dict:
    """Apply the operation that produces version ``n`` of ``key`` iff it
    extends the replica's log contiguously — the one step behind a replica
    write (``term`` from the envelope) and each entry of a repair push
    (``term`` stamped on the entry).

    ``n <= current`` is an idempotent ack (the replica already holds that
    prefix), except that in election mode the held entry's *term* must
    match — a mismatch is divergence (:data:`K_DIVERGED`), repairable only
    by reset + full resync from the leader.  A gap answers ``stale``, and
    a raising operation refuses the ack and leaves the log untouched: the
    primary executed it without raising, so this replica has diverged.
    """
    log = replica_log(entry)
    state = entry.election
    current = log.version(key)
    if n <= current:
        if state is not None and log.term_at(key, n) != term:
            state.counters.incr("divergences")
            return {K_VERSION: current, K_DIVERGED: True}
        return {K_VERSION: current}
    if n > current + 1:
        reply = {K_VERSION: current, K_STALE: True}
        if state is not None:
            reply[K_VTERM] = log.last_term(key)
        return reply
    try:
        invoke(verb, args, kwargs)
    except Exception as exc:
        return {K_VERSION: current,
                K_EXC: (type(exc).__name__, str(exc))}
    log.append(key, n, verb, args, kwargs, term)
    return {K_VERSION: n}


def serve_apply(entry, key, n: int, verb: str, args, kwargs,
                headers: dict | None = None, now: float = 0.0) -> dict:
    """A replica write at an assigned version (:func:`_apply_entry`), the
    caller repairing and retrying on ``stale``; in election mode a stale
    term is fenced first."""
    claim = _term_of(headers)
    wterm = claim[0] if (entry.election is not None
                         and claim is not None) else 0
    refused = _fence_write(entry, headers, now)
    if refused is not None:
        return refused
    return _apply_entry(entry, key, int(n), verb, args, kwargs, wterm,
                        entry.run)


def serve_control(entry, control, body_args,
                  invoke: Callable[[str, tuple, dict], Any],
                  headers: dict | None = None, now: float = 0.0) -> dict:
    """A log-transfer or election control call (verb-less frames).

    ``("pull", key, since)`` returns the suffix after ``since``;
    ``("push", key)`` applies the entries riding ``body_args[0]``
    contiguously through ``invoke`` (old entries are skipped, a gap or a
    raising entry stops the push) and returns the resulting version.
    Election mode adds
    ``("status",)``/``("vote", …)``/``("announce", …)``/``("renew", …)``
    (served by the entry's :class:`~repro.failures.election.
    ElectionState`), ``("digest",)``, and ``("reset",)`` — the divergence
    repair: discard the object and its logs, then take a full push.
    """
    kind = control[0]
    log = replica_log(entry)
    state = entry.election
    if kind in _ELECTION_CONTROLS:
        if state is None:
            raise ProtocolError(
                f"control {kind!r} on a group without election state")
        return state.control(kind, control, now, log)
    if kind == "digest":
        return {K_VERSION: 0, K_DIGEST: log.digest()}
    if kind == "reset":
        if state is None:
            raise ProtocolError("reset on a group without election state")
        refused = _fence_write(entry, headers, now)
        if refused is not None:
            return refused
        # A suffix push cannot un-apply a diverged entry: recreate the
        # object from scratch and let the caller replay the leader's full
        # logs.  Service state is rebuilt purely from the log, so nothing
        # needs to be marshalled.
        entry.obj = type(entry.obj)()
        entry.replica_log = ReplicaLog()
        state.counters.incr("resets")
        return {K_VERSION: 0}
    if kind == "pull":
        key, since = control[1], int(control[2])
        reply = {K_VERSION: log.version(key), K_LOG: log.suffix(key, since)}
        if state is not None:
            # The boundary witness: the term of the entry *at* ``since``.
            # The puller compares it with the target's last-entry term —
            # equal (version, term) pairs imply equal prefixes, so the
            # suffix is guaranteed to extend what the target holds.
            reply[K_VTERM] = log.term_at(key, since)
        return reply
    if kind == "push":
        refused = _fence_write(entry, headers, now)
        if refused is not None:
            return refused
        key = control[1]
        for item in body_args[0] if body_args else []:
            reply = _apply_entry(
                entry, key, int(item[0]), item[1], tuple(item[2]),
                dict(item[3]), int(item[4]) if len(item) > 4 else 0, invoke)
            if K_DIVERGED in reply:
                return reply
            if K_STALE in reply or K_EXC in reply:
                break    # a gap or a diverged entry: report how far we got
        return {K_VERSION: log.version(key)}
    raise ProtocolError(f"unknown quorum control {kind!r}")


def serve_envelope(entry, verb: str, args, kwargs, headers: dict, *,
                   now: float,
                   invoke: Callable[[str, tuple, dict], Any],
                   call_peer: Callable) -> dict:
    """Serve one enveloped call — control or operation — with the matching
    protocol step.

    The module's single entry point, called by the dispatcher's routing
    step (:meth:`~repro.rpc.dispatcher.Dispatcher.serve`), which supplies
    the serving context's ``now`` and the ``invoke`` a push performs
    replayed entries through (``call_peer`` is the shard module's need;
    both modules take the same three so the dispatcher has one call site).

    It is also where the envelope is parsed.  What no honest caller sends
    — a spec that is not a sequence, a missing key or version, a key no
    log can index, a control without its fields, a push whose body is not
    a list of log entries — is refused with :class:`ProtocolError` before
    any step runs, so nothing changes.  The steps run outside the parse:
    what an operation raises travels as itself.
    """
    control = headers.get(H_CONTROL)
    if control is not None:
        _parse_control(control, args)
        return serve_control(entry, control, args, invoke,
                             headers=headers, now=now)
    for name in (H_READ, H_ASSIGN, H_APPLY):
        spec = headers.get(name)
        if spec is not None:
            break
    else:
        raise ProtocolError("frame carries no quorum envelope")
    try:
        if not isinstance(spec, SPEC_TYPES):
            raise TypeError(spec)
        key = spec[0]
        hash(key)
        n = int(spec[1]) if name == H_APPLY else 0
    except _MALFORMED:
        raise ProtocolError(f"malformed {name} envelope {spec!r}") from None
    if name == H_READ:
        return serve_read(entry, key, verb, args, kwargs)
    if name == H_ASSIGN:
        return serve_assign(entry, key, verb, args, kwargs,
                            headers=headers, now=now)
    return serve_apply(entry, key, n, verb, args, kwargs,
                       headers=headers, now=now)


def _parse_control(control, body_args) -> None:
    """The control half of the envelope parse: the fields a control's step
    reads, and a push's entries in the body, converted as the step
    converts them — or :class:`ProtocolError`."""
    try:
        if not isinstance(control, SPEC_TYPES):
            raise TypeError(control)
        kind = control[0]
        if kind == "pull":
            hash(control[1])
            int(control[2])
        elif kind == "push":
            hash(control[1])
            for item in body_args[0] if body_args else ():
                int(item[0]), item[1], tuple(item[2]), dict(item[3])
                if len(item) > 4:
                    int(item[4])
        elif kind in ("vote", "announce", "renew"):
            int(control[1]), int(control[2])
    except _MALFORMED:
        raise ProtocolError(f"malformed {H_CONTROL} envelope {control!r}") \
            from None
