"""Failure detector and circuit breakers: flapping and verdict exchange."""

from repro.core.export import get_space
from repro.failures.detector import ALIVE, SUSPECTED, FailureDetector
from repro.resilience.breaker import CLOSED, OPEN, BreakerRegistry


class TestDetectorFlapping:
    def _watched(self, star):
        system, server, clients = star
        peer = clients[0]
        get_space(peer)   # the peer needs a context manager to answer pings
        detector = FailureDetector(server, suspicion_threshold=2)
        detector.watch(peer.context_id)
        return system, server, peer, detector

    def test_alternating_hit_miss_never_suspects(self, star):
        """A flapping peer (alternating up/down between probe rounds) never
        reaches two *consecutive* misses, so suspicion must not oscillate."""
        system, server, peer, detector = self._watched(star)
        for _ in range(4):
            peer.node.crash()
            detector.probe()
            assert detector.status(peer.context_id) == ALIVE
            peer.node.restart()
            detector.probe()
            assert detector.status(peer.context_id) == ALIVE
        assert detector.stats["suspicions"] == 0
        assert detector.stats["recoveries"] == 0, \
            "never suspected, so nothing to recover from"

    def test_flapping_does_not_oscillate_breakers(self, star):
        system, server, peer, detector = self._watched(star)
        registry = BreakerRegistry(system)
        detector.breakers = registry
        registry.between(server.context_id, peer.context_id)
        for _ in range(3):
            peer.node.crash()
            detector.probe()
            peer.node.restart()
            detector.probe()
        breaker = registry.between(server.context_id, peer.context_id)
        assert breaker.state(server.clock.now) == CLOSED
        assert breaker.stats["trips"] == 0, \
            "sub-threshold flapping must not force breakers open"


class TestDetectorBreakerExchange:
    def _watched_with_breakers(self, star):
        system, server, clients = star
        peer = clients[0]
        get_space(peer)
        registry = BreakerRegistry(system)
        detector = FailureDetector(server, suspicion_threshold=2,
                                   breakers=registry)
        detector.watch(peer.context_id)
        return system, server, peer, detector, registry

    def test_suspicion_trips_every_breaker_toward_the_peer(self, star):
        system, server, peer, detector, registry = \
            self._watched_with_breakers(star)
        registry.between("other/main", peer.context_id)
        peer.node.crash()
        detector.probe()
        detector.probe()
        assert detector.status(peer.context_id) == SUSPECTED
        breaker = registry.between("other/main", peer.context_id)
        assert breaker.state(server.clock.now) == OPEN, \
            "the detector's verdict fans out to every caller's breaker"

    def test_recovery_resets_the_breakers(self, star):
        system, server, peer, detector, registry = \
            self._watched_with_breakers(star)
        registry.between("other/main", peer.context_id)
        peer.node.crash()
        detector.probe()
        detector.probe()
        peer.node.restart()
        detector.probe()
        assert detector.status(peer.context_id) == ALIVE
        breaker = registry.between("other/main", peer.context_id)
        assert breaker.state(server.clock.now) == CLOSED
