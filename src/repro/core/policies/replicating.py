"""The ``replicated`` policy: a proxy that binds to a replica group.

The service is deployed as N copies in different contexts; the proxy the
service ships routes each operation.  The module holds **one quorum
protocol** run under **one of two sequencers**, plus the **unversioned
write-all** contract; which of them a group speaks is the service's
private choice, read once from the configuration it ships
(``read_quorum`` / ``elect``) and invisible to the client.  The proxy
holds a **bound proxy per replica** (:meth:`ObjectSpace.proxy_for
<repro.core.export.ObjectSpace.proxy_for>`) — for a copy hosted by the
caller's own context too — and every operation reaches a replica through
its export entry; a co-located copy is the nearest one, nothing more.
The group's own entry holds no object, so the context that exports it
binds this same proxy.

**The quorum protocol** (``read_quorum`` set):
Gifford-style weighted voting over per-key operation logs
(:mod:`repro.wire.versions`).

* A **write** is executed first at the *sequencer*, which assigns the
  key's next **version** and logs the operation; the proxy fans the write
  out with that version attached, suffix-repairs any replica that reports
  a missing prefix, and succeeds once ``write_quorum`` (W) copies hold the
  version.  An application exception surfaces at the sequencer, before
  any fan-out, so a raising write never diverges the group.
* A **read** collects versioned answers from ``read_quorum`` (R) replicas
  in ``read_policy`` order (``"nearest"`` by transit time, or
  ``"roundrobin"``), returns the **newest**,
  read-repairs the stale answerers, and — before returning — confirms the
  winner on at least W copies (ABD-style promotion), so an overlapped
  configuration (``R + W > N``) is linearizable under crashes, partitions
  and message loss; the sim-chaos battery holds it to that.  An
  under-quorumed one (``R + W <= N``) trades that consistency for
  availability — measured in experiment E9.
* **Repair** is one suffix transfer (pull from a holder, push to the
  laggard), used by writes, reads, elections and the anti-entropy sweep
  alike.

**The sequencer** is the protocol's single variation point:

* **static** (the default): replica 0, forever.  No envelope carries a
  term, no reply is ever fenced, and an unreachable primary fails the
  write with the error that reached the proxy.  On the wire this is the
  elected protocol with the election state absent — every term-related
  key is elided, so log entries are un-termed and ``(term, version)``
  pairs order exactly as bare versions.
* **elected** (``elect=True``): every replica carries an
  :class:`~repro.failures.election.ElectionState` (term, leader belief,
  lease), every envelope is stamped with the proxy's ``(term, leader)``
  belief, and stale-term writes are fenced server-side with a redirect
  the proxy follows like a migration forward.  When the leader stops
  answering, the proxy — policy code shipped by the service — runs the
  deterministic election of :mod:`repro.failures.election` and resumes
  writes at the winner; the write unavailability window is bounded by the
  lease TTL plus the election time (E9's failover panel measures it).
  Log entries carry the term that assigned them, and a replica holding a
  *different* entry at the same version (an old leader's uncommitted
  tail) is detected as diverged and repaired by reset + full log replay.
  Reads additionally land their winner in the leader's log before
  exposing it, and :meth:`ReplicatedProxy.proxy_anti_entropy` sweeps the
  leader's missing suffixes out to lagging replicas.

**Unversioned write-all** (no ``read_quorum`` — the 1986-era contract and
the default): no log, no envelope, the wire image of plain ``stub``
calls.  Reads go to one replica in ``read_policy`` order, failing over on
a distribution error; writes go to *all* replicas, synchronously, and
succeed when ``write_quorum`` acknowledged.  With ``write_quorum < N``
read-your-writes holds only when the read lands on a replica that
acknowledged — a *probabilistic* freshness story, and the reason
simtest's fault menu confines this contract to latency faults.  It is a
different wire contract, not a special case of the quorum protocol.

Deployment helper: :func:`replicate` builds the group and returns the
client-facing reference.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Callable

from ...kernel.errors import (
    ConfigurationError,
    DistributionError,
    ReproError,
)
from ...rpc.protocol import RemoteError, remote_exception
from ...wire import versions
from ...wire.refs import ObjectRef
from ..factory import register_policy
from ..proxy import Proxy

#: Leader-retry bound per write (fence redirects, renewals, elections).
ASSIGN_ATTEMPTS = 4

#: Candidacy rounds one election call may drive before giving up.
ELECTION_ROUNDS = 4

#: The ``version_key`` values a group admits (``None``: not configured).
VERSION_KEYS = (None, "arg0", "object")


def _protocol(config: dict) -> tuple[bool, bool]:
    """``(versioned, elected)`` — the one place a group's protocol and
    sequencer are chosen, for :func:`replicate` and the proxy alike."""
    versioned = "read_quorum" in config
    elected = config.get("elect", False)
    if elected.__class__ is not bool:
        raise ConfigurationError(f"elect admits no {elected!r}")
    if elected and not versioned:
        raise ConfigurationError(
            "elect=True requires the versioned quorum protocol "
            "(pass read_quorum)")
    return versioned, elected


def _unknown_read_policy(read_policy, known: tuple) -> str:
    return (f"unknown read_policy {read_policy!r} "
            f"(known: {', '.join(known)})")


def _bad_quorum(label: str, quorum, count: int) -> ConfigurationError:
    """The error for a quorum that is no ``int`` (a ``bool`` is none) in
    ``1..count``."""
    return ConfigurationError(f"{label}={quorum!r} outside 1..{count} for "
                              f"a {count}-replica group")


#: A replica proxy's current context id, read in C (no call per replica).
_context_id = attrgetter("proxy_ref.context_id")


def _digest_of(reply: dict) -> dict:
    """``{key: (last_term, version)}`` from a digest-carrying reply."""
    return {entry[0]: (int(entry[1]), int(entry[2]))
            for entry in reply.get(versions.K_DIGEST, [])}


@register_policy
class ReplicatedProxy(Proxy):
    """Route reads to R replicas and writes through the sequencer to all."""

    proxy_policy_name = "replicated"
    #: The ``read_policy`` values this policy ranks replicas by.
    proxy_read_policies = ("nearest", "roundrobin")

    def __init__(self, context, ref, interface, config=None):
        super().__init__(context, ref, interface, config)
        self._replicas: list[Proxy] | None = None
        self._network = None    # ranks the replicas, once they resolve
        self._rr_counter = 0
        #: The group's protocol, chosen when the replica list resolves.
        self._versioned = self._elected = False
        #: The sequencer: replica 0 at term 1 for good (static), or the
        #: cached leadership belief fencing redirects and elections correct.
        self._term = 1
        self._leader = 0
        self.proxy_stats.update(reads=0, writes=0, read_failovers=0,
                                write_failures=0, read_failures=0,
                                app_errors=0, read_repairs=0,
                                write_repairs=0, repair_failures=0,
                                terms_started=0, elections=0,
                                elections_won=0, election_waits=0,
                                fencing_rejects=0, lease_renewals=0,
                                resyncs=0, anti_entropy_runs=0,
                                anti_entropy_keys=0, anti_entropy_bytes=0)

    # -- replica resolution -------------------------------------------------------

    def _resolve_replicas(self) -> list:
        """Bound proxies for every replica, resolved lazily.

        Every replica is reached through its proxy — one hosted by the
        caller's own context included, so where a copy lives never decides
        which code serves it.  The installation handshake is completed
        first when the configuration arrived without the replica list
        (reference passed by value); a group that ships none is a
        configuration error — there is no object behind a group reference
        to serve the call instead.
        """
        if self._replicas is None:
            shipped = self.proxy_shipped("replicas")
            if not shipped:
                raise ConfigurationError(
                    "replicated policy configured with no replicas")
            self._versioned, self._elected = _protocol(self.proxy_config)
            self._network = self.proxy_context.system.network
            bind = self.proxy_context.space.proxy_for
            self._replicas = [bind(item) for item in shipped]
        return self._replicas

    def _read_order_indices(self, count: int) -> list[int]:
        policy = self.proxy_config.get("read_policy", "nearest")
        if policy == "roundrobin":
            start = self._rr_counter % count
            self._rr_counter += 1
            return [*range(start, count), *range(start)]
        if policy != "nearest":
            # Checked here too, not only at deploy: a bound proxy's
            # configuration may be edited after bind.
            raise ConfigurationError(
                _unknown_read_policy(policy, self.proxy_read_policies))
        return self._network.rank(self.proxy_context.node.name,
                                  map(_context_id, self._replicas), 64)

    # -- configuration ------------------------------------------------------------

    def _adopt(self, term: int, leader: int) -> None:
        """Fold a ``(term, leader)`` observed on the wire into the cache."""
        term, leader = int(term), int(leader)
        if term > self._term or (term == self._term and leader != self._leader):
            self._term, self._leader = term, leader

    def _quorum_params(self, count: int) -> tuple[int, int]:
        """Validated ``(write_quorum, read_quorum)`` for a ``count`` group.

        ``write_quorum`` outside ``1..count`` is a configuration error, not
        a distribution outcome: zero (or negative) would let a write that
        reached *no* replica "succeed", and more than ``count`` can never
        be met.  Same bounds for ``read_quorum`` (quorum protocol only).
        A quorum that is no ``int`` (a float, a string, a ``bool``) is
        refused too, never truncated.
        """
        write_quorum = self.proxy_config.get("write_quorum", count)
        if write_quorum.__class__ is not int or \
                not 1 <= write_quorum <= count:
            raise _bad_quorum("write_quorum", write_quorum, count)
        read_quorum = self.proxy_config.get("read_quorum",
                                            count - write_quorum + 1)
        if read_quorum.__class__ is not int or not 1 <= read_quorum <= count:
            raise _bad_quorum("read_quorum", read_quorum, count)
        return write_quorum, read_quorum

    # -- invocation ---------------------------------------------------------------------

    def invoke(self, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["invocations"] += 1
        replicas = self._replicas
        if replicas is None:
            replicas = self._resolve_replicas()
        op = self.proxy_opcache.get(verb)
        readonly = (op or self.proxy_operation(verb)).readonly
        if not self._versioned:
            serve = self._read if readonly else self._write
            return serve(replicas, verb, args, kwargs)
        write_quorum, read_quorum = self._quorum_params(len(replicas))
        # The log key: the first argument (keyed services: KV, locks), or
        # one log for the object (``"object"``, the default: always safe).
        version_key = self.proxy_config.get("version_key")
        if version_key == "arg0" and args:
            key = args[0]
        elif version_key in VERSION_KEYS:
            key = "*"
        else:
            raise ConfigurationError(f"version_key admits no {version_key!r}")
        if readonly:
            return self._quorum_read(replicas, verb, args, kwargs, key,
                                     write_quorum, read_quorum)
        return self._quorum_write(replicas, verb, args, kwargs, key,
                                  write_quorum)

    # -- unversioned write-all ----------------------------------------------------

    def _read(self, replicas: list, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["reads"] += 1
        last_error: Exception | None = None
        try:
            for index in self._read_order_indices(len(replicas)):
                try:
                    return replicas[index].invoke(verb, args, kwargs)
                except DistributionError as exc:
                    self.proxy_stats["read_failovers"] += 1
                    last_error = exc
            raise last_error if last_error is not None else DistributionError(
                f"no replica answered {verb!r}")
        finally:
            # A kept exception's traceback holds this frame, and the frame
            # the exception: drop it on every exit, or each caught failure
            # leaves a cycle that pins the proxy and its whole system.
            last_error = None

    def _write(self, replicas: list, verb: str, args: tuple, kwargs: dict) -> Any:
        self.proxy_stats["writes"] += 1
        quorum = self._quorum_params(len(replicas))[0]
        acknowledged = 0
        result: Any = None
        last_error: Exception | None = None
        app_error: BaseException | None = None
        try:
            for replica in replicas:
                try:
                    outcome = replica.invoke(verb, args, kwargs)
                except RemoteError as exc:
                    # An application exception of an unreconstructible type:
                    # the replica executed the operation and raised.
                    if app_error is None:
                        app_error = exc
                    continue
                except DistributionError as exc:
                    last_error = exc
                    continue
                except ReproError:
                    raise    # a kernel/harness problem, not a write outcome
                except Exception as exc:
                    # A reconstructed application exception.  Aborting here
                    # would leave the remaining replicas without the write —
                    # silent divergence — so complete the fan-out first and
                    # re-raise after the group has converged.
                    if app_error is None:
                        app_error = exc
                    continue
                if acknowledged == 0:
                    result = outcome
                acknowledged += 1
            if app_error is not None:
                self.proxy_stats["app_errors"] += 1
                raise app_error
            if acknowledged < quorum:
                self.proxy_stats["write_failures"] += 1
                raise DistributionError(
                    f"write {verb!r} reached {acknowledged}/{len(replicas)} "
                    f"replicas, quorum is {quorum}") from last_error
            return result
        finally:
            last_error = app_error = None   # see _read

    # -- the quorum protocol: envelopes -------------------------------------------
    #
    # Every enveloped call is issued through ``proxy_protocol.call``, to the
    # replica proxy's current reference, not through ``proxy_remote``: a
    # replica that moved away surfaces as ``ObjectMoved`` to the quorum walk
    # (one more unreachable copy), and is not followed.  One co-located with
    # the caller is served by the same dispatcher step, without frames.

    def _control_call(self, index: int, control: tuple, body_args: tuple,
                      extra_headers: dict | None = None) -> dict:
        """A verb-less log-transfer/election call to one replica."""
        headers = {versions.H_CONTROL: control}
        if extra_headers:
            headers.update(extra_headers)
        return self.proxy_protocol.call(
            self.proxy_context, self._replicas[index].proxy_ref, "",
            tuple(body_args), {}, headers=headers)

    def _term_header(self, term: int | None = None,
                     leader: int | None = None) -> dict:
        """The :data:`~repro.wire.versions.H_TERM` stamp for one envelope
        (nothing under the static sequencer: there is no term to fence)."""
        if not self._elected:
            return {}
        return {versions.H_TERM: (
            self._term if term is None else int(term),
            self._leader if leader is None else int(leader))}

    def _adopt_newer(self, reply: dict) -> None:
        """Fold a strictly newer ``(term, leader)`` advertised in a reply."""
        pair = reply.get(versions.K_TERM)
        if pair is not None and int(pair[0]) > self._term:
            self._adopt(pair[0], pair[1])

    def _fenced(self, reply: dict) -> bool:
        """True for a :data:`~repro.wire.versions.K_FENCED` redirect, after
        counting it and adopting the leadership it names."""
        pair = reply.get(versions.K_FENCED)
        if pair is None:
            return False
        self.proxy_stats["fencing_rejects"] += 1
        self._adopt(*pair)
        return True

    # -- the quorum protocol: repair ----------------------------------------------

    def _transfer(self, source: int, target: int, key, have: tuple[int, int],
                  header: dict) -> tuple[dict, list]:
        """Ship ``key``'s log suffix from ``source`` to ``target``, which
        holds ``have = (last_term, version)`` of it.

        The pull's boundary term must match the target's last-entry term
        (equal ``(version, term)`` pairs imply equal prefixes); a mismatch
        reads as the same :data:`~repro.wire.versions.K_DIVERGED` verdict a
        push can return.  Returns ``(push reply, entries shipped)`` for the
        caller to classify (fenced / diverged / version reached).
        """
        since_term, since = have
        pulled = self._control_call(source, ("pull", key, since), ())
        entries = pulled.get(versions.K_LOG, [])
        if since and int(pulled.get(versions.K_VTERM, 0)) != since_term:
            return {versions.K_DIVERGED: True}, entries
        return self._control_call(target, ("push", key), (entries,),
                                  header), entries

    def _repair(self, target: int, source: int, key,
                have: tuple[int, int] = (0, 0),
                allow_resync: bool = True) -> int:
        """Suffix repair of ``key`` from ``source`` to ``target``.

        Returns the target's resulting version of ``key``: -1 on failure
        (unreachable, fenced), and — divergence falling back to reset +
        full resync — -2 where ``allow_resync`` forbids that (the leader).
        """
        try:
            pushed, _ = self._transfer(source, target, key, have,
                                       self._term_header())
        except DistributionError:
            self.proxy_stats["repair_failures"] += 1
            return -1
        if self._fenced(pushed):
            return -1
        if versions.K_DIVERGED in pushed:
            return self._resync(target, source, key) if allow_resync else -2
        return int(pushed.get(versions.K_VERSION, -1))

    def _resync(self, target: int, source: int, key=None) -> int:
        """Divergence repair: reset ``target``, replay ``source``'s logs.

        A suffix push cannot un-apply a diverged entry (an old leader's
        uncommitted tail that a newer term overwrote), so the target's
        object is recreated and every key's full log replayed.  Returns
        the version of ``key`` reached (-1 on failure).
        """
        reached = -1
        header = self._term_header()
        try:
            digest = self._control_call(source, ("digest",), ())
            if self._fenced(self._control_call(target, ("reset",), (),
                                               header)):
                return -1
            for each in _digest_of(digest):
                pushed, _ = self._transfer(source, target, each, (0, 0),
                                           header)
                if self._fenced(pushed):
                    return -1
                if each == key:
                    reached = int(pushed.get(versions.K_VERSION, -1))
        except DistributionError:
            self.proxy_stats["repair_failures"] += 1
            return -1
        self.proxy_stats["resyncs"] += 1
        return reached

    # -- the quorum protocol: writes and reads ------------------------------------

    def _quorum_write(self, replicas: list, verb: str, args: tuple,
                      kwargs: dict, key, write_quorum: int) -> Any:
        """Sequencer-assigned quorum write.

        The sequencer executes first and assigns the version
        (:meth:`_assign`); the fan-out then carries the assign's
        ``(term, leader)``.  A fenced apply never acknowledges, a stale
        one is suffix-repaired from the sequencer (which holds every
        version it assigned), and a diverged one is reset + fully
        resynced.  A proxy deposed *during* the fan-out (its assign
        landed at a stale leader and the applies came back fenced) adopts
        the newer term and retries the whole write there — the stale
        assign was never quorum-committed, so re-sequencing it under the
        new term is the designed outcome, and the old leader's orphaned
        tail is erased by divergence repair.
        """
        self.proxy_stats["writes"] += 1
        last_error: Exception | None = None
        assigned = acknowledged = 0
        wterm = self._term
        # Read once for the whole fan-out, not per follower.
        call, context = self.proxy_protocol.call, self.proxy_context
        fenced, failed, diverged, version = versions.K_FENCED, \
            versions.K_EXC, versions.K_DIVERGED, versions.K_VERSION
        try:
            for _ in range(ASSIGN_ATTEMPTS):
                reply = self._assign(replicas, verb, args, kwargs, key)
                assigned = int(reply[version])
                wterm = int(reply.get(versions.K_VTERM, self._term))
                leader = self._leader
                # One envelope for the whole fan-out: a call only reads it.
                headers = {versions.H_APPLY: (key, assigned),
                           versions.H_TERM: (wterm, leader)} if self._elected \
                    else {versions.H_APPLY: (key, assigned)}
                acknowledged = 1
                for index in range(len(replicas)):
                    if index == leader:
                        continue
                    try:
                        ack = call(context, replicas[index].proxy_ref, verb,
                                   args, kwargs, headers=headers)
                    except DistributionError as exc:
                        last_error = exc
                        continue
                    if fenced in ack and self._fenced(ack) or failed in ack:
                        continue    # deposed, or a diverged execution: no ack
                    if diverged in ack:
                        repaired = self._resync(index, leader, key)
                    elif int(ack[version]) >= assigned:
                        acknowledged += 1
                        continue
                    else:
                        repaired = self._repair(
                            index, leader, key,
                            (int(ack.get(versions.K_VTERM, 0)),
                             int(ack[version])))
                    if repaired >= assigned:
                        self.proxy_stats["write_repairs"] += 1
                        acknowledged += 1
                if acknowledged >= write_quorum:
                    return reply.get(versions.K_VALUE)
                if self._term > wterm:
                    continue    # deposed mid-fan-out: retry at the new leader
                break
            self.proxy_stats["write_failures"] += 1
            raise DistributionError(
                f"write {verb!r} at version {assigned} (term {wterm}) of "
                f"{key!r} reached {acknowledged}/{len(replicas)} replicas, "
                f"quorum is {write_quorum}") from last_error
        finally:
            last_error = None   # see _read

    def _assign(self, replicas: list, verb: str, args: tuple,
                kwargs: dict, key) -> dict:
        """Execute at the sequencer and have it assign the next version.

        Static: one attempt at replica 0; unreachable is the write's
        outcome.  Elected: follow fencing redirects like the migration
        chain, renew the leader's lease when it reports expiry, and elect
        when it stops answering — so one invoke rides out a leader change
        whenever a majority is reachable.
        """
        last_error: Exception | None = None
        call, context = self.proxy_protocol.call, self.proxy_context
        try:
            for _ in range(ASSIGN_ATTEMPTS):
                leader = self._leader
                try:
                    reply = call(
                        context, replicas[leader].proxy_ref, verb, args,
                        kwargs, headers={versions.H_ASSIGN: (key,),
                                         versions.H_TERM: (self._term, leader)}
                        if self._elected else {versions.H_ASSIGN: (key,)})
                except RemoteError:
                    self.proxy_stats["app_errors"] += 1
                    raise
                except DistributionError as exc:
                    if not self._elected:
                        # No version was assigned that we know of (a lost
                        # reply still makes this a "maybe").
                        self.proxy_stats["write_failures"] += 1
                        raise
                    last_error = exc
                    self._failover(replicas)
                    continue
                except ReproError:
                    raise
                except Exception:
                    self.proxy_stats["app_errors"] += 1
                    raise
                if versions.K_FENCED in reply and self._fenced(reply):
                    continue
                if versions.K_EXPIRED in reply:
                    if not self._renew_lease(replicas):
                        self._failover(replicas)
                    continue
                return reply
            self.proxy_stats["write_failures"] += 1
            raise DistributionError(
                f"write {verb!r} found no assignable leader in "
                f"{ASSIGN_ATTEMPTS} attempts") from last_error
        finally:
            last_error = None   # see _read

    def _failover(self, replicas: list) -> None:
        """Elect a new leader; no majority is the pending write's failure."""
        try:
            self._run_election(replicas)
        except DistributionError:
            self.proxy_stats["write_failures"] += 1
            raise

    def _quorum_read(self, replicas: list, verb: str, args: tuple,
                     kwargs: dict, key, write_quorum: int,
                     read_quorum: int) -> Any:
        """Quorum read: collect R answers, newest ``(term, version)`` wins.

        Before the winner is returned, its version must be **confirmed on
        at least W replicas** (read-repairing stale answerers and, if
        still short, unanswered replicas).  That promotion step is what
        makes a barely-committed — or merely *maybe*-committed — write
        safe to expose: any later R-read overlaps the confirmed set, so a
        value shown once can never disappear again.  A read that cannot
        promote its winner fails (and a failed read moves no state).

        Reads are never fenced (a replica answers during an election
        window — co-located reads keep working while writes wait), but
        replies advertise the group's leadership so the proxy adopts a
        newer term opportunistically.  Under the elected sequencer the
        winner must also land in the **leader's** log before it is
        exposed, otherwise the leader's next assign would reuse the
        winner's version under a newer term and silently supersede a
        value this read already showed.  An unreachable leader is
        tolerated — the next election syncs its winner from a vote
        majority, which always intersects the confirmed write-quorum
        set.  (A static primary already holds every version it assigned.)
        """
        self.proxy_stats["reads"] += 1
        order = self._read_order_indices(len(replicas))
        call = self.proxy_protocol.call
        context = self.proxy_context
        headers = {versions.H_READ: (key,),
                   versions.H_TERM: (self._term, self._leader)} \
            if self._elected else {versions.H_READ: (key,)}
        # Each answerer's ``(term, version)``, in answering order.
        held: dict[int, tuple[int, int]] = {}
        newest = winner = winner_index = None
        agreed = True
        last_error: Exception | None = None
        try:
            for index in order:
                if len(held) >= read_quorum:
                    break
                try:
                    reply = call(context, replicas[index].proxy_ref, verb,
                                 args, kwargs, headers=headers)
                except DistributionError as exc:
                    self.proxy_stats["read_failovers"] += 1
                    last_error = exc
                    continue
                pair = reply.get(versions.K_TERM)
                if pair is not None and int(pair[0]) > self._term:
                    self._adopt(pair[0], pair[1])   # stamped on the rest
                    if self._elected:
                        headers = {versions.H_READ: (key,), versions.H_TERM:
                                   (self._term, self._leader)}
                pair = (int(reply.get(versions.K_VTERM, 0)),
                        int(reply[versions.K_VERSION]))
                held[index] = pair
                if newest is None or pair > newest:
                    agreed = newest is None
                    newest, winner, winner_index = pair, reply, index
                elif pair != newest:
                    agreed = False
            if len(held) < read_quorum:
                self.proxy_stats["read_failures"] += 1
                raise DistributionError(
                    f"read {verb!r} of {key!r} reached {len(held)}/"
                    f"{len(replicas)} replicas, read quorum is "
                    f"{read_quorum}") from last_error
        finally:
            last_error = None   # see _read
        leader = self._leader
        if not agreed or len(held) < write_quorum or (
                self._elected and leader not in held
                and leader < len(replicas)):
            # A stale answer, W unmet or a silent leader: repair state.
            confirmed = {i for i, pair in held.items() if pair == newest}

            def promote(index: int, have=(0, 0), allow_resync=True) -> int:
                """Repair ``index`` up to the winner; confirm it there."""
                reached = self._repair(index, winner_index, key, have,
                                       allow_resync)
                if reached >= newest[1]:
                    self.proxy_stats["read_repairs"] += 1
                    confirmed.add(index)
                return reached

            for index, pair in held.items():
                if pair < newest:    # read-repair the stale answerer
                    promote(index, pair)
            for index in order:
                if len(confirmed) >= write_quorum:
                    break
                if index not in held:
                    promote(index)
            if len(confirmed) < write_quorum:
                self.proxy_stats["read_failures"] += 1
                raise DistributionError(
                    f"read {verb!r} saw version {newest[1]} (term "
                    f"{newest[0]}) of {key!r} on only {len(confirmed)} "
                    f"replicas, write quorum is {write_quorum}")
            leader = self._leader
            if self._elected and leader not in confirmed \
                    and leader < len(replicas):
                if promote(leader, allow_resync=False) == -2:
                    # The leader holds different, newer-term entries at
                    # these versions: the winner is already superseded.
                    # Fail — a failed read moves no state, and the
                    # anti-entropy sweep resyncs the stragglers from the
                    # leader.
                    self.proxy_stats["read_failures"] += 1
                    raise DistributionError(
                        f"read {verb!r} of {key!r}: winner at {newest} is "
                        f"superseded by the leader's log")
        failure = winner.get(versions.K_EXC)
        if failure is not None:
            raise remote_exception(failure[0], failure[1])
        return winner.get(versions.K_VALUE)

    # -- the elected sequencer ----------------------------------------------------

    def _renew_lease(self, replicas: list) -> bool:
        """One lease-renewal round: followers first, then the leader.

        The leader's own lease is extended only after a majority of the
        group (counting the leader) re-promised, so in the common path a
        leader's valid self-lease implies outstanding follower promises.
        """
        count = len(replicas)
        leader = self._leader
        grants = 0
        for index in [i for i in range(count) if i != leader]:
            try:
                reply = self._control_call(
                    index, ("renew", self._term, leader), ())
            except DistributionError:
                continue
            if reply.get(versions.K_GRANT):
                grants += 1
            else:
                self._adopt_newer(reply)
        if grants < count // 2:    # a majority, counting the leader
            return False
        try:
            reply = self._control_call(
                leader, ("renew", self._term, leader), ())
        except DistributionError:
            return False
        if not reply.get(versions.K_GRANT):
            self._adopt_newer(reply)
            return False
        self.proxy_stats["lease_renewals"] += 1
        return True

    def _run_election(self, replicas: list) -> None:
        """Elect a leader (module docstring of :mod:`repro.failures.election`).

        Status-probes the group, nominates the most up-to-date reachable
        replica (ties to the lowest index — the bully rule), gathers
        votes at the next term, syncs the winner from its voters, and
        announces.  Vote refusals carry lease-expiry hints; the proxy
        waits the shortest one out (that wait *is* the bounded
        unavailability window) and retries, up to :data:`ELECTION_ROUNDS`.
        Raises :class:`DistributionError` when no majority is reachable.
        """
        count = len(replicas)
        majority = count // 2 + 1
        clock = self.proxy_context.clock
        self.proxy_stats["elections"] += 1
        last_error: Exception | None = None
        try:
            for _ in range(ELECTION_ROUNDS):
                statuses: dict[int, dict] = {}
                for index in range(count):
                    try:
                        statuses[index] = self._control_call(
                            index, ("status",), ())
                    except DistributionError as exc:
                        last_error = exc
                if len(statuses) < majority:
                    raise DistributionError(
                        f"election: {len(statuses)}/{count} replicas "
                        f"reachable, majority is {majority}") from last_error
                best = max(statuses.values(),
                           key=lambda s: int(s[versions.K_TERM][0]))
                top_term = int(best[versions.K_TERM][0])
                if top_term > self._term:
                    # A rival proxy already elected a newer leader: adopt it.
                    self._adopt(top_term, int(best[versions.K_TERM][1]))
                    return
                target = top_term + 1
                # Candidacy rank: total logged entries, ties to the lowest
                # index.
                candidate = max(statuses, key=lambda i: (
                    sum(v for _, v in _digest_of(statuses[i]).values()), -i))
                self.proxy_stats["terms_started"] += 1
                grants: dict[int, dict] = {}
                hints: list[float] = []
                for index in sorted(statuses):
                    try:
                        reply = self._control_call(
                            index, ("vote", target, candidate), ())
                    except DistributionError as exc:
                        last_error = exc
                        continue
                    if reply.get(versions.K_GRANT):
                        grants[index] = reply
                        continue
                    self._adopt_newer(reply)
                    hint = reply.get(versions.K_EXPIRY)
                    if hint is not None:
                        hints.append(float(hint))
                if len(grants) >= majority:
                    try:
                        self._sync_candidate(candidate, target, grants)
                    except DistributionError as exc:
                        last_error = exc
                        continue
                    if self._announce(replicas, target, candidate):
                        self._term, self._leader = target, candidate
                        self.proxy_stats["elections_won"] += 1
                        return
                    continue
                future = [hint for hint in hints if hint > clock.now]
                if future:
                    # Wait out the shortest outstanding lease promise; this
                    # wait plus the election round-trips is the write
                    # unavailability the lease TTL bounds.
                    self.proxy_stats["election_waits"] += 1
                    clock.advance_to(min(future) + 1e-6)
            raise DistributionError(
                f"election gave up after {ELECTION_ROUNDS} rounds") \
                from last_error
        finally:
            last_error = None   # see _read

    def _announce(self, replicas: list, term: int, leader: int) -> bool:
        """Announce ``(term, leader)`` group-wide; the winner must accept."""
        accepted_self = False
        for index in range(len(replicas)):
            try:
                reply = self._control_call(index,
                                           ("announce", term, leader), ())
            except DistributionError:
                continue
            if index == leader and reply.get(versions.K_GRANT):
                accepted_self = True
        return accepted_self

    def _sync_candidate(self, candidate: int, target: int,
                        grants: dict) -> None:
        """Bring the candidate up to the best entries its voters hold.

        Any vote majority intersects every write quorum, so pulling each
        key's best ``(term, version)`` suffix from the granting voters
        guarantees the new leader misses no committed entry.  A diverged
        candidate tail (an uncommitted old-term suffix) is reset and the
        whole transfer restarted from scratch — once.  Raises
        :class:`DistributionError` if the sync cannot complete; the
        election round is then abandoned (leaders are always synced).
        """
        digests = {index: _digest_of(reply)
                   for index, reply in grants.items()}
        if candidate in digests:
            cand = dict(digests[candidate])
        else:
            cand = _digest_of(self._control_call(candidate, ("digest",), ()))
        header = self._term_header(target, candidate)
        keys = sorted({key for digest in digests.values() for key in digest},
                      key=repr)
        for _round in (0, 1):
            diverged = False
            for key in keys:
                best_index = max(digests, key=lambda i: (
                    digests[i].get(key, (0, 0)), -i))
                best = digests[best_index].get(key, (0, 0))
                have = cand.get(key, (0, 0))
                if have >= best:
                    continue
                pushed, _ = self._transfer(best_index, candidate, key, have,
                                           header)
                if versions.K_FENCED in pushed:
                    raise DistributionError(
                        "candidate sync fenced by a newer term")
                if versions.K_DIVERGED in pushed:
                    diverged = True
                    break
                if int(pushed.get(versions.K_VERSION, -1)) < best[1]:
                    raise DistributionError(
                        f"candidate sync of {key!r} stalled")
                cand[key] = best
            if not diverged:
                return
            reset = self._control_call(candidate, ("reset",), (), header)
            if versions.K_FENCED in reset:
                raise DistributionError(
                    "candidate sync fenced by a newer term")
            cand = {}
        raise DistributionError("candidate log diverged twice during sync")

    def proxy_anti_entropy(self) -> dict:
        """One anti-entropy sweep: push the leader's missing suffixes.

        Compares the leader's per-key digest against every other replica
        and pushes the missing suffix (reset + full resync on
        divergence), so a restarted or long-partitioned replica catches
        up without waiting for read-repair to land on it.  The sweep is
        driven periodically by whoever holds a proxy — the simtest
        driver, experiment E9, and the tests call it between operations;
        a deposed leader's sweep is fenced harmlessly.  Distribution
        errors are swallowed: a sweep is opportunistic repair, never an
        outcome.  Groups under the static sequencer do not sweep.

        Returns ``{"keys": …, "entries": …, "bytes": …}`` pushed (bytes
        are the marshallable entries' repr length — a stable proxy for
        wire volume).
        """
        swept = {"keys": 0, "entries": 0, "bytes": 0}
        replicas = self._resolve_replicas()
        if not self._elected:
            return swept
        self.proxy_stats["anti_entropy_runs"] += 1
        self._sweep(len(replicas), swept)
        self.proxy_stats["anti_entropy_keys"] += swept["keys"]
        self.proxy_stats["anti_entropy_bytes"] += swept["bytes"]
        return swept

    def _sweep(self, count: int, swept: dict) -> None:
        """The body of one sweep; tallies what it pushed into ``swept``."""
        leader = self._leader
        try:
            leader_digest = _digest_of(
                self._control_call(leader, ("digest",), ()))
        except DistributionError:
            return
        if not leader_digest:
            return
        for index in range(count):
            if index == leader:
                continue
            try:
                have = _digest_of(self._control_call(index, ("digest",), ()))
            except DistributionError:
                continue
            for key in sorted(leader_digest, key=repr):
                best = leader_digest[key]
                if have.get(key, (0, 0)) >= best:
                    continue
                try:
                    pushed, entries = self._transfer(
                        leader, index, key, have.get(key, (0, 0)),
                        self._term_header())
                except DistributionError:
                    self.proxy_stats["repair_failures"] += 1
                    continue
                if self._fenced(pushed):
                    # This proxy's leader was deposed mid-sweep: stop —
                    # the new leader's sweeps take over.
                    return
                if versions.K_DIVERGED in pushed:
                    self._resync(index, leader)
                elif int(pushed.get(versions.K_VERSION, -1)) >= best[1]:
                    swept["keys"] += 1
                    swept["entries"] += len(entries)
                    swept["bytes"] += sum(len(repr(entry))
                                          for entry in entries)


def replicate(contexts: list, factory: Callable[[], object],
              interface=None, read_policy: str = "nearest",
              write_quorum: int | None = None,
              read_quorum: int | None = None,
              version_key: str | None = None,
              extra_layers: list[str] | None = None,
              elect: bool = False,
              lease_ttl: float | None = None,
              policy: str = "replicated",
              extra_config: dict | None = None) -> ObjectRef:
    """Deploy a replica group and return the client-facing reference.

    One instance from ``factory`` is exported (under the plain ``stub``
    policy) in each of ``contexts``; the first context additionally exports
    the group entry (:meth:`ObjectSpace.export_group
    <repro.core.export.ObjectSpace.export_group>`) under the ``replicated``
    policy, whose configuration carries the replica references.  Whoever
    binds the returned reference — in the first context too — receives a
    :class:`ReplicatedProxy`.

    ``read_quorum`` switches the group to the quorum protocol (module
    docstring); ``version_key="arg0"`` partitions the version log by the
    operations' first argument (``"object"``, the default, keeps one log).
    Quorums (``int`` in ``1..N``), ``version_key``, ``elect`` (a ``bool``)
    and ``read_policy`` (one of the policy's ``proxy_read_policies``) are
    validated here as well as at call time, and ``lease_ttl`` (a finite
    number > 0) here, so a broken deployment fails at deploy.

    ``elect=True`` (quorum protocol only) swaps the static sequencer for
    the elected one: every replica gets an
    :class:`~repro.failures.election.ElectionState` (term 1 bootstraps on
    replica 0 with a ``lease_ttl``-long lease) plus a
    :class:`~repro.failures.detector.FailureDetector` watching its peers,
    and proxies run the election protocol of the module docstring when
    the leader stops answering.

    ``extra_layers`` stacks additional policies *in front of* replication
    (outermost first), e.g. ``["caching"]`` for a cached replica group; the
    group is then exported under the ``composite`` policy.  ``policy``
    overrides the group's registered policy name (the simtest canaries
    deploy buggy :class:`ReplicatedProxy` subclasses this way).
    ``extra_config`` merges additional keys into the group configuration —
    policy subclasses (e.g. ``regional``, which needs the replicas'
    region labels) receive them through ``proxy_config``.
    """
    from ...iface.interface import Interface
    from ..export import get_space
    from .composite import check_group_policy
    if not contexts:
        raise ValueError("replicate() needs at least one context")
    count = len(contexts)
    codebase = contexts[0].system.codebase
    check_group_policy(codebase, policy, extra_layers)
    group_class = codebase.factories[policy]
    if not issubclass(group_class, ReplicatedProxy):
        raise ConfigurationError(f"policy {policy!r} serves no replica group")
    known = group_class.proxy_read_policies
    if read_policy not in known:
        raise ConfigurationError(_unknown_read_policy(read_policy, known))
    for label, quorum in (("write_quorum", write_quorum),
                          ("read_quorum", read_quorum)):
        if quorum is not None and (quorum.__class__ is not int
                                   or not 1 <= quorum <= count):
            raise _bad_quorum(label, quorum, count)
    if version_key not in VERSION_KEYS:
        raise ConfigurationError(f"version_key admits no {version_key!r}")
    if elect.__class__ is not bool:
        raise ConfigurationError(f"elect admits no {elect!r}")
    if lease_ttl is not None and not (
            lease_ttl.__class__ in (int, float) and lease_ttl > 0
            and math.isfinite(lease_ttl)):
        raise ConfigurationError(f"lease_ttl admits no {lease_ttl!r}")
    # Checked before any export, so a refusal leaves no replica behind;
    # ``replicas`` stays the first key (the wire image), filled after.
    replica_refs: list = []
    config: dict = {"replicas": replica_refs, "read_policy": read_policy}
    if write_quorum is not None:
        config["write_quorum"] = write_quorum
    if read_quorum is not None:
        config["read_quorum"] = read_quorum
    if version_key is not None:
        config["version_key"] = version_key
    if elect:
        config["elect"] = True
    if extra_config:
        config.update(extra_config)
    elected = _protocol(config)[1]
    for ctx in contexts:
        obj = factory()
        if interface is None:
            interface = Interface.of(type(obj))
        replica_refs.append(get_space(ctx).export(obj, interface=interface,
                                                  policy="stub"))
    entries = [get_space(ctx).entry(ref.oid)
               for ctx, ref in zip(contexts, replica_refs)]
    group_ref = get_space(contexts[0]).export_group(
        interface, policy, config, extra_layers, entries).ref
    if elected:
        # Arm every replica stub entry with its election state (term
        # fencing switches on at the dispatcher the moment the entry
        # carries one) and a failure detector watching its peers, so a
        # suspected leader unlocks votes before the lease runs out.
        from ...failures.detector import FailureDetector
        from ...failures.election import DEFAULT_LEASE_TTL, ElectionState
        ttl = DEFAULT_LEASE_TTL if lease_ttl is None else float(lease_ttl)
        context_ids = [ctx.context_id for ctx in contexts]
        for index, (ctx, entry) in enumerate(zip(contexts, entries)):
            detector = FailureDetector(ctx)
            for peer in context_ids:
                if peer != ctx.context_id:
                    detector.watch(peer)
            entry.election = ElectionState(
                index, context_ids, ttl=ttl, detector=detector)
    return group_ref
