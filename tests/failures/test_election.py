"""Tests for the per-replica election state machine (terms and leases)."""

from types import SimpleNamespace

import pytest

from repro.failures.election import DEFAULT_LEASE_TTL, ElectionState
from repro.wire import versions


class StubLog:
    """A replica log standing: a fixed digest is all elections need."""

    def __init__(self, entries=0):
        self.entries = entries

    def digest(self):
        return [["object", 1, self.entries]] if self.entries else []


class StubDetector:
    """A failure detector whose verdicts the test scripts directly."""

    def __init__(self):
        self.suspects = set()

    def status(self, context_id):
        from repro.failures.detector import ALIVE, SUSPECTED
        return SUSPECTED if context_id in self.suspects else ALIVE


def state(index=1, ttl=DEFAULT_LEASE_TTL, detector=None):
    return ElectionState(index, ("s0/main", "s1/main", "s2/main"),
                         ttl=ttl, detector=detector)


class TestBootstrap:
    def test_replica_zero_is_the_anointed_leader(self):
        st = state(index=0)
        assert st.term == 1
        assert st.leader == 0
        assert st.is_leader()

    def test_bootstrap_lease_covers_time_zero(self):
        st = state()
        assert st.lease_valid(0.0)
        assert st.lease_valid(DEFAULT_LEASE_TTL / 2)
        assert not st.lease_valid(DEFAULT_LEASE_TTL)


class TestVotes:
    def test_stale_term_is_refused(self):
        st = state()
        reply = st.control("vote", ("vote", 1, 2), now=9.0, log=StubLog())
        assert reply[versions.K_GRANT] is False
        assert reply[versions.K_TERM] == (1, 0)

    def test_valid_lease_blocks_the_vote_and_hints_expiry(self):
        st = state()
        reply = st.control("vote", ("vote", 2, 2), now=0.1, log=StubLog())
        assert reply[versions.K_GRANT] is False
        assert reply[versions.K_EXPIRY] == pytest.approx(DEFAULT_LEASE_TTL)

    def test_expired_lease_grants_with_the_digest(self):
        st = state()
        reply = st.control("vote", ("vote", 2, 2), now=1.0,
                           log=StubLog(entries=4))
        assert reply[versions.K_GRANT] is True
        assert reply[versions.K_DIGEST] == [["object", 1, 4]]
        assert st.vote_term == 2
        assert st.voted_for == 2

    def test_one_vote_per_term(self):
        st = state()
        first = st.control("vote", ("vote", 2, 2), now=1.0, log=StubLog())
        rival = st.control("vote", ("vote", 2, 0), now=1.0, log=StubLog())
        again = st.control("vote", ("vote", 2, 2), now=1.0, log=StubLog())
        assert first[versions.K_GRANT] is True
        assert rival[versions.K_GRANT] is False, \
            "the rule that makes same-term split brain impossible"
        assert again[versions.K_GRANT] is True, \
            "re-granting the same candidate is idempotent"

    def test_suspected_leader_unlocks_the_vote_early(self):
        detector = StubDetector()
        st = state(detector=detector)
        blocked = st.control("vote", ("vote", 2, 2), now=0.1, log=StubLog())
        detector.suspects.add("s0/main")
        granted = st.control("vote", ("vote", 3, 2), now=0.1, log=StubLog())
        assert blocked[versions.K_GRANT] is False
        assert granted[versions.K_GRANT] is True, \
            "suspicion shortcuts the lease wait"

    def test_suspicion_never_waives_one_vote_per_term(self):
        detector = StubDetector()
        detector.suspects.add("s0/main")
        st = state(detector=detector)
        st.control("vote", ("vote", 2, 2), now=0.1, log=StubLog())
        rival = st.control("vote", ("vote", 2, 1), now=0.1, log=StubLog())
        assert rival[versions.K_GRANT] is False


class TestAnnounceRenewAdopt:
    def test_announce_adopts_and_arms_the_lease(self):
        st = state()
        reply = st.control("announce", ("announce", 2, 2), now=1.0, log=None)
        assert reply[versions.K_GRANT] is True
        assert (st.term, st.leader) == (2, 2)
        assert st.lease_expiry == pytest.approx(1.0 + DEFAULT_LEASE_TTL)

    def test_stale_announce_is_refused(self):
        st = state()
        st.control("announce", ("announce", 3, 1), now=1.0, log=None)
        reply = st.control("announce", ("announce", 2, 2), now=2.0, log=None)
        assert reply[versions.K_GRANT] is False
        assert reply[versions.K_TERM] == (3, 1)

    def test_same_term_same_leader_reannounce_rearms(self):
        st = state()
        st.control("announce", ("announce", 2, 2), now=1.0, log=None)
        reply = st.control("announce", ("announce", 2, 2), now=5.0, log=None)
        assert reply[versions.K_GRANT] is True
        assert st.lease_expiry == pytest.approx(5.0 + DEFAULT_LEASE_TTL)

    def test_renew_extends_only_a_matching_leadership(self):
        st = state()
        good = st.control("renew", ("renew", 1, 0), now=0.2, log=None)
        bad = st.control("renew", ("renew", 1, 2), now=0.2, log=None)
        assert good[versions.K_GRANT] is True
        assert st.lease_expiry == pytest.approx(0.2 + DEFAULT_LEASE_TTL)
        assert bad[versions.K_GRANT] is False

    def test_renew_of_a_newer_term_adopts(self):
        st = state()
        reply = st.control("renew", ("renew", 4, 2), now=1.0, log=None)
        assert reply[versions.K_GRANT] is True
        assert (st.term, st.leader) == (4, 2)

    def test_adopt_ignores_stale_terms(self):
        st = state()
        st.adopt(3, 2, now=1.0)
        assert st.adopt(2, 1, now=2.0) is False
        assert (st.term, st.leader) == (3, 2)


class TestFencing:
    def test_current_term_passes(self):
        assert state().fence(1) is None

    def test_stale_term_is_redirected(self):
        st = state()
        st.adopt(5, 2, now=0.0)
        reply = st.fence(1)
        assert reply == {versions.K_FENCED: (5, 2)}
        assert st.counters.get("fencing_rejects") == 1

    def test_status_reply_shape(self):
        st = state()
        reply = st.control("status", ("status",), now=0.0,
                           log=StubLog(entries=2))
        assert reply[versions.K_TERM] == (1, 0)
        assert reply[versions.K_EXPIRY] == pytest.approx(DEFAULT_LEASE_TTL)
        assert reply[versions.K_DIGEST] == [["object", 1, 2]]

    def test_unknown_control_raises(self):
        entry = SimpleNamespace(election=state(), replica_log=None)
        with pytest.raises(versions.ProtocolError):
            versions.serve_envelope(entry, "", (), {},
                                    {versions.H_CONTROL: ["coup"]}, now=0.0,
                                    invoke=None, call_peer=None)
