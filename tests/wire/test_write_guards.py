"""Every guard of an elected group's write steps, at step level.

An export entry with an :class:`~repro.failures.election.ElectionState`
is served envelopes through :func:`repro.wire.versions.serve_envelope`
(the dispatcher's one call into the module), one row per guard: the reply
each step answers and the counter it moves.  A current term proceeds on
one comparison; any other term (or none) meets the fence first, so these
rows pin the order in which the guards run.
"""

from __future__ import annotations

import math

import pytest

from repro.apps.kv import KVStore
from repro.failures.election import DEFAULT_LEASE_TTL, ElectionState
from repro.iface.interface import Interface, operation
from repro.kernel.errors import ProtocolError
from repro.rpc.dispatcher import ExportEntry
from repro.wire import versions
from repro.wire.refs import ObjectRef

CONTEXTS = ("s0/main", "s1/main", "s2/main")
LEADER, FOLLOWER = 0, 1


class Picky(KVStore):
    @operation(invalidates=("key",))
    def pop(self, key):
        return self.data.pop(key)      # KeyError on a miss


def replica(index: int) -> ExportEntry:
    """Replica ``index`` of a three-replica group at term 1, led by 0."""
    entry = ExportEntry(Picky(), Interface.of(Picky),
                        ObjectRef(CONTEXTS[index], "o1", "Picky", 0, "stub"))
    entry.election = ElectionState(index, CONTEXTS)
    return entry


def serve(entry, headers, verb="put", args=("k", 1), now=0.0, body=None):
    return versions.serve_envelope(
        entry, verb, args if body is None else body, {}, headers, now=now,
        invoke=entry.run, call_peer=None)


def assign(term=1, leader=0):
    return {versions.H_ASSIGN: ("k",), versions.H_TERM: (term, leader)}


def apply(n, term=1, leader=0):
    return {versions.H_APPLY: ("k", n), versions.H_TERM: (term, leader)}


def counters(entry) -> dict:
    return entry.election.counters.as_dict()


def log_of(entry) -> list:
    log = entry.replica_log
    return [] if log is None else log.suffix("k", 0)


@pytest.mark.parametrize("headers,verb,body", [
    (assign(term=0), "put", None),
    (apply(1, term=0), "put", None),
    ({versions.H_CONTROL: ("push", "k"), versions.H_TERM: (0, 0)}, "",
     ([[1, "put", ["k", 1], {}, 1]],)),
    ({versions.H_CONTROL: ("reset",), versions.H_TERM: (0, 0)}, "", ()),
], ids=["assign", "apply", "push", "reset"])
def test_a_stale_term_is_fenced(headers, verb, body):
    entry = replica(LEADER)
    store = entry.obj
    assert serve(entry, headers, verb, body=body) == \
        {versions.K_FENCED: (1, 0)}
    assert counters(entry) == {"fencing_rejects": 1}
    assert entry.obj is store and store.data == {} and log_of(entry) == []


@pytest.mark.parametrize("headers,verb,body", [
    (assign(), "put", None),
    (apply(1), "put", None),
    ({versions.H_CONTROL: ("push", "k")}, "", ([[1, "put", ["k", 1], {}]],)),
    ({versions.H_CONTROL: ("reset",)}, "", ()),
], ids=["assign", "apply", "push", "reset"])
def test_a_write_without_a_term_is_refused(headers, verb, body):
    entry = replica(LEADER)
    headers = {name: spec for name, spec in headers.items()
               if name != versions.H_TERM}
    store = entry.obj
    with pytest.raises(ProtocolError):
        serve(entry, headers, verb, body=body)
    assert counters(entry) == {}
    assert entry.obj is store and store.data == {} and log_of(entry) == []


def test_a_newer_term_is_adopted_then_served():
    entry = replica(FOLLOWER)
    assert serve(entry, apply(1, term=3, leader=2)) == {versions.K_VERSION: 1}
    state = entry.election
    assert (state.term, state.leader) == (3, 2)
    assert counters(entry) == {"terms_adopted": 1}
    assert log_of(entry) == [[1, "put", ["k", 1], {}, 3]]


def test_an_assign_at_a_replica_that_does_not_lead_is_fenced():
    entry = replica(FOLLOWER)
    assert serve(entry, assign()) == {versions.K_FENCED: (1, 0)}
    assert counters(entry) == {"fencing_rejects": 1}
    assert entry.obj.data == {} and log_of(entry) == []


def test_an_assign_under_an_expired_lease_answers_expired():
    entry = replica(LEADER)
    assert serve(entry, assign(), now=DEFAULT_LEASE_TTL) == \
        {versions.K_EXPIRED: True, versions.K_TERM: (1, 0)}
    assert counters(entry) == {"lease_refusals": 1}
    assert entry.obj.data == {} and log_of(entry) == []


@pytest.mark.parametrize("index", [LEADER, FOLLOWER])
@pytest.mark.parametrize("before", [True, False], ids=["before", "at"])
def test_the_assign_reads_leadership_and_lease_as_the_state_does(index,
                                                                 before):
    # ``serve_assign`` reads the leader and lease-expiry slots itself: at
    # the boundary it must answer what ``is_leader``/``lease_valid`` say.
    entry = replica(index)
    state = entry.election
    now = math.nextafter(state.lease_expiry, 0.0) if before \
        else state.lease_expiry
    reply = serve(entry, assign(), now=now)
    assert (versions.K_FENCED in reply) == (not state.is_leader())
    assert (versions.K_EXPIRED in reply) == (
        state.is_leader() and not state.lease_valid(now))
    assert (versions.K_VERSION in reply) == (
        state.is_leader() and state.lease_valid(now))


def test_a_current_assign_is_logged_under_its_term():
    entry = replica(LEADER)
    assert serve(entry, assign()) == {versions.K_VERSION: 1,
                                      versions.K_VALUE: True,
                                      versions.K_VTERM: 1}
    assert counters(entry) == {}
    assert log_of(entry) == [[1, "put", ["k", 1], {}, 1]]


def test_a_gap_answers_stale_with_the_last_entry_term():
    entry = replica(FOLLOWER)
    serve(entry, apply(1))
    assert serve(entry, apply(3), args=("k", 3)) == {
        versions.K_VERSION: 1, versions.K_STALE: True, versions.K_VTERM: 1}
    assert counters(entry) == {}
    assert entry.obj.data == {"k": 1}


def test_a_held_version_of_another_term_is_diverged():
    entry = replica(FOLLOWER)
    serve(entry, apply(1))
    assert serve(entry, apply(1, term=2, leader=2), args=("k", 9)) == {
        versions.K_VERSION: 1, versions.K_DIVERGED: True}
    assert counters(entry) == {"terms_adopted": 1, "divergences": 1}
    assert entry.obj.data == {"k": 1}
    assert log_of(entry) == [[1, "put", ["k", 1], {}, 1]]


def test_a_raising_apply_answers_its_exception_and_logs_nothing():
    entry = replica(FOLLOWER)
    assert serve(entry, apply(1), verb="pop", args=("gone",)) == {
        versions.K_VERSION: 0, versions.K_EXC: ("KeyError", "'gone'")}
    assert counters(entry) == {}
    assert log_of(entry) == []


def test_a_repeated_apply_is_an_idempotent_ack():
    entry = replica(FOLLOWER)
    assert serve(entry, apply(1)) == {versions.K_VERSION: 1}
    assert serve(entry, apply(1), args=("k", 9)) == {versions.K_VERSION: 1}
    assert counters(entry) == {}
    assert entry.obj.data == {"k": 1}
    assert log_of(entry) == [[1, "put", ["k", 1], {}, 1]]
