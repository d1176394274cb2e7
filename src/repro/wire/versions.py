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
reject-with-forwarding.  A write whose term is current proceeds on one
comparison, and one that carries no term is no honest caller's: it is
refused with :class:`ProtocolError` before anything changes.  A
static-primary group is the same protocol with
``entry.election is None``: every step below skips the term check and emits
no term key, so its traffic is byte-identical to a build without elections.

Request headers and ``q.c`` control kinds are declared once, in
:data:`SHAPES` — each with the kinds of its fields, and a control's body
with its own — and :func:`parse` checks an envelope against it before any
step runs (specs are small tuples, so an enveloped frame is pure — sized
and shared, never snapshotted; see ``wire/marshal.py``).  ``q.w``/``q.a``
are a primary/replica write, ``q.r`` a versioned read, ``q.t`` an elected
group's ``(term, leader)`` belief: stale terms are fenced, newer ones
adopted.  ``q.c`` carries log transfer (``pull``/``push``), the election
verbs (``status``/``vote``/``announce``/``renew``), ``digest``, and
``reset`` (discard the object and its logs ahead of a full resync from the
leader — the divergence repair; a suffix push cannot *un*-apply an
executed entry).

Reply wrappers (dicts of reserved ``q.*`` keys):

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

#: Request header: primary write — apply and assign the next version.
H_ASSIGN = "q.w"
#: Request header: replica write — apply iff contiguous.
H_APPLY = "q.a"
#: Request header: versioned read.
H_READ = "q.r"
#: Request header: a log-transfer or election control.
H_CONTROL = "q.c"
#: Request header: the caller's leadership belief (elected groups).
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
#: Control verbs that write, fenced like an assign or an apply.
_WRITE_CONTROLS = ("push", "reset")

# -- the declared envelope ----------------------------------------------------
#
# A field's kind names the one type its step uses, so :func:`parse` checks
# and never converts: a parsed envelope is its headers, as they came.  A
# shape names its kinds by these constants (the parse compares identity).

#: A non-bool ``int`` >= 0: a version, a term, an epoch, an index, a hash.
COUNT = "count"
#: Anything hashable: the key a log is kept under.
KEY = "key"
#: A list or tuple of hashables.
KEYS = "keys"
#: A ``str``: an operation's name, a reference's text field.
VERB = "verb"
#: A list or tuple: an operation's positional arguments.
ARGS = "args"
#: A ``dict`` with ``str`` keys: an operation's keyword arguments.
KWARGS = "kwargs"
#: A ``dict``: state that moves whole (an arc's fragment).
DATA = "data"

#: What a spec may be: a tuple, as every caller here builds it, or a list.
#: A string indexes too, character by character, so the parse refuses
#: anything else by type.
SPEC_TYPES = (tuple, list)

#: A log entry on the wire, ``[n, verb, args, kwargs]``, and one stamped
#: with the term it was assigned under.
LOG_ENTRY = (COUNT, VERB, ARGS, KWARGS)
TERMED_ENTRY = LOG_ENTRY + (COUNT,)

#: The ``q.*`` envelope.  A header maps to the kinds of its spec's fields;
#: ``q.c`` maps each control kind (the spec's first field) to the kinds of
#: the rest and the shape of the call's body.  A list in a shape is a list
#: of items, each of the listed shape of its length.
SHAPES = {
    H_READ: (KEY,),
    H_ASSIGN: (KEY,),
    H_APPLY: (KEY, COUNT),
    H_TERM: (COUNT, COUNT),
    H_CONTROL: {
        "pull": ((KEY, COUNT), ()),
        "push": ((KEY,), ([LOG_ENTRY, TERMED_ENTRY],)),
        "status": ((), ()),
        "vote": ((COUNT, COUNT), ()),
        "announce": ((COUNT, COUNT), ()),
        "renew": ((COUNT, COUNT), ()),
        "digest": ((), ()),
        "reset": ((), ()),
    },
}


def parse(shapes: dict, headers: dict, body=()) -> None:
    """Check the envelope ``headers`` carries against its declared
    ``shapes`` (:data:`SHAPES`, or :data:`repro.wire.shards.SHAPES`), or
    raise :class:`ProtocolError` — before any step runs, so nothing
    changes.

    A header's shape is a tuple of kinds (a spec of exactly that many
    fields), a bare kind (the header is one value) or, for a control, a
    dict from its kind to ``(fields, body shape)``, plus a rule called
    with the body once its kinds hold.  A nested shape is checked as an
    envelope of its own.  Headers the table does not name are another
    layer's (a deadline).
    """
    rules = ()
    for name, spec in headers.items():
        shape = shapes.get(name)
        if shape is None:
            continue
        if shape.__class__ is not tuple:
            if shape.__class__ is str:
                if shape is COUNT and spec.__class__ is int and spec >= 0:
                    continue        # a bare count that holds, where it sits
                shape, spec = (shape,), (spec,)
            elif shape.__class__ is list:
                if not isinstance(spec, SPEC_TYPES):
                    raise ProtocolError(f"malformed {name} items {spec!r}")
                for item in spec:
                    # The shape of the item's length; if none, the last
                    # refuses it.
                    for each in shape:
                        if isinstance(item, SPEC_TYPES) \
                                and len(item) == len(each):
                            break
                    parse({name: each}, {name: item})
                continue
            else:
                kind = spec[0] if isinstance(spec, SPEC_TYPES) and spec \
                    else None
                declared = shape.get(kind) if type(kind) is str else None
                if declared is None:
                    raise ProtocolError(f"unknown {name} control {spec!r}")
                shape, body_shape, *rules = declared
                parse({name: body_shape}, {name: body})
                spec = spec[1:]
        # A tuple spec, as every caller here builds one, is told by its
        # class; a field that holds continues, and only one that does not
        # reaches the raise.
        if spec.__class__ is not tuple and not isinstance(spec, SPEC_TYPES) \
                or len(spec) != len(shape):
            raise ProtocolError(f"malformed {name} envelope {spec!r}")
        i = 0
        for kind in shape:          # not zip: this loop runs on every call
            value = spec[i]
            i += 1
            if kind is COUNT:
                if value.__class__ is int and value >= 0:
                    continue
            elif kind is KEY:
                try:
                    hash(value)
                    continue
                except TypeError:
                    pass
            elif kind is KEYS:
                if isinstance(value, SPEC_TYPES):
                    try:
                        hash(tuple(value))
                        continue
                    except TypeError:
                        pass
            elif kind is VERB:
                if isinstance(value, str):
                    continue
            elif kind is ARGS:
                if isinstance(value, SPEC_TYPES):
                    continue
            elif kind is KWARGS:
                if isinstance(value, dict) and all(
                        isinstance(key, str) for key in value):
                    continue
            elif kind is DATA:
                if isinstance(value, dict):
                    continue
            else:
                parse({name: kind}, {name: value})
                continue
            raise ProtocolError(f"malformed {name} envelope {spec!r}")
    for rule in rules:
        rule(body)


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

    An entry is ``(n, verb, args list, kwargs dict, term)``.  The two
    steps that write one (:func:`serve_assign`, :func:`_apply_entry`)
    append it to the key's list they have already read, at ``n = len + 1``.
    """

    __slots__ = ("_logs",)

    def __init__(self) -> None:
        self._logs: dict[Any, list] = {}

    def version(self, key) -> int:
        """The highest contiguous version this replica holds for ``key``."""
        log = self._logs.get(key)
        return len(log) if log else 0

    def term_at(self, key, n: int) -> int:
        """The term of the entry that produced version ``n`` (0 if absent)."""
        log = self._logs.get(key)
        if not log or not 1 <= n <= len(log):
            return 0
        return log[n - 1][4]

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
                for n, verb, args, kwargs, term in log[since:]]

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


def _fence_write(state, belief: tuple | None, now: float) -> dict | None:
    """Election-mode gate for a mutating envelope (assign/apply/push/reset)
    whose term is not the replica's current one — the only kind that
    reaches it (:func:`serve_envelope` compares a current term once and
    proceeds).

    A missing term is no caller's: an elected group's proxy stamps every
    write, so this raises :class:`ProtocolError` before anything
    changes.  A stale term answers the :data:`K_FENCED` redirect; a newer
    term is adopted on the spot (a lost announce heals through ordinary
    traffic).  Returns the refusal wrapper, or ``None`` to proceed.
    """
    if belief is None:
        raise ProtocolError(
            "a write envelope to an elected group carries no term")
    term, leader = belief
    refused = state.fence(term)
    if refused is not None:
        return refused
    state.adopt(term, leader, now)
    return None


# -- server-side protocol steps -----------------------------------------------
#
# Each step takes the export entry and the envelope's parsed fields, and
# returns the marshallable reply wrapper.  The dispatcher has already
# admitted the operation (interface check, compute accounting) and
# :func:`serve_envelope` has fenced a write when a step runs, so a step
# takes the entry's ``run`` (the method call plus its mutation hooks);
# only a push replays *other* operations,
# and performs them whole through the dispatcher's ``invoke``.  Application
# exceptions are folded into the wrapper for reads and replica applies; a
# primary write propagates them so nothing is logged and the fan-out never
# starts — the group stays converged.


def serve_read(entry, key, verb: str, args, kwargs) -> dict:
    """A versioned read: the answer plus the replica's version of ``key``.

    Reads are never fenced — a replica may answer during an election
    window (the read-side promotion step is what keeps exposed values
    stable) — but in election mode the reply advertises the entry term
    of the answer and the replica's current ``(term, leader)`` so the
    caller can adopt a newer leadership opportunistically.
    """
    # The key's log, read once: its length is the version, its last
    # entry's term the answer's (a read appends nothing).
    log = (entry.replica_log or replica_log(entry))._logs.get(key)
    try:
        reply = {K_VERSION: len(log) if log else 0,
                 K_VALUE: entry.run(verb, args, kwargs)}
    except Exception as exc:
        reply = {K_VERSION: len(log) if log else 0,
                 K_EXC: (type(exc).__name__, str(exc))}
    state = entry.election
    if state is not None:
        reply[K_VTERM] = log[-1][4] if log else 0
        reply[K_TERM] = (state.term, state.leader)
    return reply


def serve_assign(entry, key, verb: str, args, kwargs,
                 now: float = 0.0) -> dict:
    """A primary write: execute, then log it under the next version.

    In election mode the assign is the most-guarded step: its term is
    current (:func:`serve_envelope` fenced any other), this replica must
    lead that term, and its own lease must still be valid (an expired
    lease answers :data:`K_EXPIRED`; the caller drives a renewal round
    through the followers and retries).  The entry is logged under the
    term that assigned it.
    """
    log = entry.replica_log or replica_log(entry)
    state = entry.election
    term = 0
    if state is not None:
        # ``ElectionState.is_leader`` and ``lease_valid``, read as slots;
        # tests/wire/test_write_guards.py holds the two to one answer.
        if state.leader != state.index:
            state.counters.incr("fencing_rejects")
            return {K_FENCED: (state.term, state.leader)}
        if now >= state.lease_expiry:
            state.counters.incr("lease_refusals")
            return {K_EXPIRED: True, K_TERM: (state.term, state.leader)}
        term = state.term
    result = entry.run(verb, args, kwargs)    # raises: nothing is logged
    held = log._logs.get(key)
    if held is None:
        held = log._logs[key] = []
    n = len(held) + 1
    held.append((n, verb, list(args), dict(kwargs), term))
    reply = {K_VERSION: n, K_VALUE: result}
    if state is not None:
        reply[K_VTERM] = term
    return reply


def _apply_entry(entry, invoke: Callable[[str, tuple, dict], Any], key,
                 n: int, verb: str, args, kwargs, term: int = 0) -> dict:
    """Apply the operation that produces version ``n`` of ``key`` iff it
    extends the replica's log contiguously — the one step behind a replica
    write (``term``: the replica's current one, which the envelope
    carried) and each entry of a repair push (``term`` stamped on the
    entry, absent for an un-termed one); the caller repairs and retries
    on ``stale``.

    ``n <= current`` is an idempotent ack (the replica already holds that
    prefix), except that in election mode the held entry's *term* must
    match — a mismatch is divergence (:data:`K_DIVERGED`), repairable only
    by reset + full resync from the leader.  A gap answers ``stale``, and
    a raising operation refuses the ack and leaves the log untouched: the
    primary executed it without raising, so this replica has diverged.
    """
    log = entry.replica_log or replica_log(entry)
    state = entry.election
    held = log._logs.get(key)
    current = len(held) if held else 0
    if n <= current:
        if state is not None and log.term_at(key, n) != term:
            state.counters.incr("divergences")
            return {K_VERSION: current, K_DIVERGED: True}
        return {K_VERSION: current}
    if n > current + 1:
        reply = {K_VERSION: current, K_STALE: True}
        if state is not None:
            reply[K_VTERM] = held[-1][4] if held else 0
        return reply
    try:
        invoke(verb, args, kwargs)
    except Exception as exc:
        return {K_VERSION: current,
                K_EXC: (type(exc).__name__, str(exc))}
    if held is None:
        held = log._logs[key] = []
    held.append((n, verb, list(args), dict(kwargs), term))
    return {K_VERSION: n}


def serve_control(entry, control, body_args,
                  invoke: Callable[[str, tuple, dict], Any],
                  now: float = 0.0) -> dict:
    """A log-transfer or election control call (verb-less frames).

    ``("pull", key, since)`` returns the suffix after ``since``;
    ``("push", key)`` applies the entries riding ``body_args[0]``
    contiguously through ``invoke`` (old entries are skipped, a gap or a
    raising entry stops the push) and returns the resulting version.
    Election mode adds
    ``("status",)``/``("vote", …)``/``("announce", …)``/``("renew", …)``
    (served by the entry's :class:`~repro.failures.election.
    ElectionState`), ``("digest",)``, and ``("reset",)`` — the divergence
    repair: discard the object and its logs, then take a full push.  A
    push or a reset is a write: :func:`serve_envelope` has fenced its term.
    """
    kind = control[0]
    log = entry.replica_log or replica_log(entry)
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
        # A suffix push cannot un-apply a diverged entry: recreate the
        # object from scratch and let the caller replay the leader's full
        # logs.  Service state is rebuilt purely from the log, so nothing
        # needs to be marshalled.
        entry.obj = type(entry.obj)()
        entry.replica_log = ReplicaLog()
        state.counters.incr("resets")
        return {K_VERSION: 0}
    if kind == "pull":
        _, key, since = control
        reply = {K_VERSION: log.version(key), K_LOG: log.suffix(key, since)}
        if state is not None:
            # The boundary witness: the term of the entry *at* ``since``.
            # The puller compares it with the target's last-entry term —
            # equal (version, term) pairs imply equal prefixes, so the
            # suffix is guaranteed to extend what the target holds.
            reply[K_VTERM] = log.term_at(key, since)
        return reply
    # "push": the table declares no other kind.
    key = control[1]
    for item in body_args[0]:
        reply = _apply_entry(entry, invoke, key, *item)
        if K_DIVERGED in reply:
            return reply
        if K_STALE in reply or K_EXC in reply:
            break    # a gap or a diverged entry: report how far we got
    return {K_VERSION: log.version(key)}


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

    The envelope is parsed first (:func:`parse` against :data:`SHAPES`):
    what no honest caller sends is refused with :class:`ProtocolError`
    before any step runs, so nothing changes.  The steps run outside the
    parse: what an operation raises travels as itself.
    """
    parse(SHAPES, headers, args)
    control = headers.get(H_CONTROL)
    if control is None:
        spec = headers.get(H_READ)
        if spec is not None:
            return serve_read(entry, spec[0], verb, args, kwargs)
    elif control[0] not in _WRITE_CONTROLS:
        return serve_control(entry, control, args, invoke, now)
    # A write, fenced here and nowhere else: the current term proceeds on
    # this one comparison, any other term (or none) goes to the fence.
    state = entry.election
    if state is not None:
        belief = headers.get(H_TERM)
        if belief is None or belief[0] != state.term:
            refused = _fence_write(state, belief, now)
            if refused is not None:
                return refused
    if control is not None:
        return serve_control(entry, control, args, invoke, now)
    spec = headers.get(H_ASSIGN)
    if spec is not None:
        return serve_assign(entry, spec[0], verb, args, kwargs, now)
    spec = headers.get(H_APPLY)
    if spec is not None:
        # A replica write, logged under the term it carried: now current.
        return _apply_entry(entry, entry.run, spec[0], spec[1], verb, args,
                            kwargs, 0 if state is None else state.term)
    raise ProtocolError("frame carries no quorum envelope")
