"""Lease-based leader election: term numbers over the failure detector.

The versioned quorum mode of :mod:`repro.core.policies.replicating`
sequences every write through one primary.  This module removes that
single point of failure: each replica carries an :class:`ElectionState` —
a **term** number, the leader it believes in, and a **lease** promise —
and the replicated proxy (policy code shipped by the service, so the
whole affair stays encapsulated from clients) runs a deterministic,
bully-style election when the leader stops answering:

1. **status** round — probe every replica for ``(term, leader, lease
   expiry, log digest)``; adopt any newer term seen.
2. **candidacy** — the candidate is the most up-to-date reachable
   replica (largest total log), ties broken by *lowest* replica index
   (the bully rule).
3. **vote** round at ``term + 1`` — a replica grants at most one vote
   per term, and only once its lease on the old leader has expired (or
   its :class:`~repro.failures.detector.FailureDetector` already
   suspects that leader — suspicion shortcuts the wait, it never
   replaces the single-vote rule).
4. **sync** — the proxy transfers, per key, the best ``(term, version)``
   suffix among the voters onto the candidate, so a new leader always
   holds every entry a write quorum could have committed (any vote
   majority intersects every write quorum when ``majority >= N - W + 1``).
5. **announce** — every replica adopts ``(term, leader)`` and re-arms
   its lease; the candidate's own announce must succeed or the election
   aborts.

Safety does not rest on the leases (terms and quorum fencing do that
work — a stale-term write is refused with a redirect); leases bound how
*often* elections may happen and therefore how long two leaders of
*different* terms can coexist.  Two leaders of the *same* term are
impossible while every replica grants one vote per term — the
``splitbrain`` canary in :mod:`repro.simtest.workload` breaks exactly
that rule and the checker must convict it.

Wire vocabulary (header/reply keys, control verbs) lives in
:mod:`repro.wire.versions`; this module owns only the per-replica state
machine and is reached from :func:`~repro.wire.versions.serve_control`
through the export entry's ``election`` attribute.
"""

from __future__ import annotations

from ..metrics.counters import CounterSet
from ..wire import versions
from .detector import SUSPECTED

#: Default leader-lease length in virtual seconds.  Long against one
#: election round (a handful of ~1 ms RPCs) and the RPC retry budget
#: (~60 ms), short against an experiment's runtime — the write
#: unavailability after a primary crash is bounded by this plus the
#: election time (measured in experiment E9's failover panel).
DEFAULT_LEASE_TTL = 0.5


class ElectionState:
    """One replica's view of the group's leadership.

    Attributes:
        index: this replica's position in the group (group order).
        context_ids: every replica's context id, group order.
        ttl: lease length in virtual seconds.
        term: highest term this replica has adopted.
        leader: replica index of the leader of ``term``.
        lease_expiry: virtual time until which this replica has promised
            not to vote a new leader in (re-armed by announce/renew).
        vote_term: highest term this replica has voted in.
        voted_for: candidate index that vote went to.
        detector: optional :class:`~repro.failures.detector.
            FailureDetector` on this replica's context; a *suspected*
            leader lets a vote through before the lease expires.
        counters: server-side election/repair traffic counters
            (:class:`~repro.metrics.counters.CounterSet`).
    """

    def __init__(self, index: int, context_ids, ttl: float = DEFAULT_LEASE_TTL,
                 detector=None):
        self.index = int(index)
        self.context_ids = tuple(context_ids)
        self.ttl = float(ttl)
        self.term = 1
        self.leader = 0
        #: The bootstrap lease: the deployment anoints replica 0 for term 1,
        #: so the group is writable from virtual time zero.
        self.lease_expiry = float(ttl)
        self.vote_term = 1
        self.voted_for = 0
        self.detector = detector
        self.counters = CounterSet()

    # -- helpers -------------------------------------------------------------

    def is_leader(self) -> bool:
        """Whether this replica believes itself the current leader
        (``versions.serve_assign`` reads the two slots itself)."""
        return self.leader == self.index

    def lease_valid(self, now: float) -> bool:
        """Whether the current lease promise still binds at ``now``
        (``versions.serve_assign`` compares the slot itself)."""
        return now < self.lease_expiry

    def leader_suspected(self) -> bool:
        """Whether the failure detector already suspects the leader.

        Suspicion only ever *shortens* the lease wait for a vote; with an
        overlapped quorum (majority >= N - W + 1) a premature election
        stays safe — the old leader's writes are fenced out of any quorum
        the moment the new term lands on a majority.
        """
        if self.detector is None or self.is_leader():
            return False
        leader_ctx = self.context_ids[self.leader]
        try:
            return self.detector.status(leader_ctx) == SUSPECTED
        except KeyError:
            return False

    def adopt(self, term: int, leader: int, now: float) -> bool:
        """Adopt a newer term observed on the wire (no lease re-arm).

        Lost announce frames heal here: the first enveloped request of a
        newer term teaches the replica who leads it.
        """
        if term <= self.term:
            return False
        self.term = term
        self.leader = leader
        self.counters.incr("terms_adopted")
        return True

    def fence(self, term: int) -> dict | None:
        """The redirect reply for a stale-term write, or ``None`` if current.

        Mirrors the migration chain's reject-with-forwarding: the caller
        learns the current ``(term, leader)`` and retries there.
        """
        if term >= self.term:
            return None
        self.counters.incr("fencing_rejects")
        return {versions.K_FENCED: (self.term, self.leader)}

    # -- control verbs (reached through versions.serve_control) ---------------

    def control(self, kind: str, control: tuple, now: float, log) -> dict:
        """Serve one parsed election control call (``kind`` is
        ``control[0]``); returns the reply wrapper."""
        if kind == "status":
            return {versions.K_TERM: (self.term, self.leader),
                    versions.K_EXPIRY: self.lease_expiry,
                    versions.K_DIGEST: log.digest()}
        _, term, index = control
        if kind == "vote":
            return self._vote(term, index, now, log)
        if kind == "announce":
            return self._announce(term, index, now)
        return self._renew(term, index, now)

    def _vote(self, term: int, candidate: int, now: float, log) -> dict:
        refusal = {versions.K_GRANT: False,
                   versions.K_TERM: (self.term, self.leader),
                   versions.K_EXPIRY: self.lease_expiry}
        if term <= self.term:
            self.counters.incr("votes_refused")
            return refusal
        if self.vote_term == term and self.voted_for != candidate:
            # One vote per term — the rule that makes same-term split
            # brain impossible.
            self.counters.incr("votes_refused")
            return refusal
        if self.lease_valid(now) and not self.leader_suspected():
            self.counters.incr("votes_refused")
            return refusal
        self.vote_term = term
        self.voted_for = candidate
        self.counters.incr("votes_granted")
        # The digest rides the grant: the winner syncs from its voters, so
        # a committed entry (held by some write quorum) can never be lost —
        # every vote majority intersects every write quorum.
        return {versions.K_GRANT: True,
                versions.K_TERM: (self.term, self.leader),
                versions.K_DIGEST: log.digest()}

    def _announce(self, term: int, leader: int, now: float) -> dict:
        if term > self.term or (term == self.term and leader == self.leader):
            self.term = term
            self.leader = leader
            self.lease_expiry = now + self.ttl
            self.counters.incr("announces_accepted")
            return {versions.K_GRANT: True, versions.K_TERM: (term, leader)}
        self.counters.incr("announces_refused")
        return {versions.K_GRANT: False,
                versions.K_TERM: (self.term, self.leader)}

    def _renew(self, term: int, leader: int, now: float) -> dict:
        if term == self.term and leader == self.leader:
            self.lease_expiry = max(self.lease_expiry, now + self.ttl)
            self.counters.incr("renewals")
            return {versions.K_GRANT: True, versions.K_TERM: (term, leader)}
        if self.adopt(term, leader, now):
            self.lease_expiry = now + self.ttl
            self.counters.incr("renewals")
            return {versions.K_GRANT: True, versions.K_TERM: (term, leader)}
        self.counters.incr("renewals_refused")
        return {versions.K_GRANT: False,
                versions.K_TERM: (self.term, self.leader)}
