"""Protocol-level resilience: retry engine, deadlines, breaker feed, and the
one-way liveness regression."""

import pytest

from repro.apps.counter import Counter
from repro.core.service import Service
from repro.iface.interface import operation
from repro.kernel.errors import DeadlineExceeded, RpcTimeout
from repro.kernel.network import Delivery
from repro.naming.bootstrap import bind, register
from repro.resilience.breaker import ensure_breakers
from repro.resilience.deadline import DEADLINE_HEADER, Deadline
from repro.resilience.retry import RetryPolicy
from repro.wire.marshal import Marshaller


class Sink(Service):
    """A service with a one-way operation, for the liveness regression."""

    default_policy = "stub"

    def __init__(self):
        self.received = 0

    @operation(oneway=True)
    def push(self) -> None:
        self.received += 1


class TestRetryEngine:
    def test_override_shrinks_the_attempt_budget(self, pair):
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        server.node.crash()
        retries_before = system.rpc.stats["retries"]
        before = client.clock.now
        with pytest.raises(RpcTimeout):
            system.rpc.call(client, proxy.proxy_ref, "read",
                            retry=RetryPolicy(attempts=2))
        assert system.rpc.stats["retries"] - retries_before == 1
        # Two fixed-interval attempts: roughly twice the base patience, far
        # below the default nine-attempt budget.
        assert client.clock.now - before < 3 * system.costs.rpc_timeout

    def test_exponential_backoff_waits_longer_than_fixed(self, star):
        system, server, clients = star
        register(server, "ctr", Counter())
        first = bind(clients[0], "ctr")
        second = bind(clients[1], "ctr")
        server.node.crash()
        before = clients[0].clock.now
        with pytest.raises(RpcTimeout):
            system.rpc.call(clients[0], first.proxy_ref, "read",
                            retry=RetryPolicy(attempts=3, multiplier=1.0))
        fixed_wait = clients[0].clock.now - before
        before = clients[1].clock.now
        with pytest.raises(RpcTimeout):
            system.rpc.call(clients[1], second.proxy_ref, "read",
                            retry=RetryPolicy(attempts=3, multiplier=2.0))
        backoff_wait = clients[1].clock.now - before
        assert backoff_wait > fixed_wait * 1.5, \
            "1+2+4 patience units versus 1+1+1"


class TestDeadlines:
    def test_deadline_caps_the_total_wait_exactly(self, pair):
        """Satellite regression: the final lost attempt must charge only up
        to the deadline, never the full interval past it."""
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        server.node.crash()
        budget = 2.5 * system.costs.rpc_timeout
        deadline = Deadline.after(client.clock.now, budget)
        with pytest.raises(DeadlineExceeded):
            system.rpc.call(client, proxy.proxy_ref, "read",
                            deadline=deadline)
        assert client.clock.now == pytest.approx(deadline.expires_at), \
            "the clock stops at the deadline, not at the next retry tick"

    def test_spent_budget_fails_before_the_first_attempt(self, pair):
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        calls_before = system.rpc.stats["calls"]
        sends = len(system.trace.events)
        with pytest.raises(DeadlineExceeded):
            system.rpc.call(client, proxy.proxy_ref, "read",
                            deadline=Deadline(client.clock.now - 1.0))
        assert system.rpc.stats["calls"] == calls_before + 1
        assert not [ev for ev in system.trace.events[sends:]
                    if ev.kind == "send"], "nothing crossed the wire"

    def test_inherited_context_deadline_is_merged(self, pair):
        """A context serving a nearly-dead request must not start calls."""
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        client.current_deadline = Deadline(client.clock.now - 0.1)
        try:
            with pytest.raises(DeadlineExceeded):
                system.rpc.call(client, proxy.proxy_ref, "read")
        finally:
            client.current_deadline = None

    def test_deadline_travels_in_the_frame_headers(self, pair, monkeypatch):
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        seen = {}
        encode = Marshaller.encode_frame_message

        def spy(self, kind, msg_id, src, dst, target, verb, body, headers):
            if verb:
                seen[verb] = dict(headers)
            return encode(self, kind, msg_id, src, dst, target, verb, body,
                          headers)

        monkeypatch.setattr(Marshaller, "encode_frame_message", spy)
        deadline = Deadline.after(client.clock.now, 1.0)
        system.rpc.call(client, proxy.proxy_ref, "read", deadline=deadline)
        assert seen["read"][DEADLINE_HEADER] == deadline.expires_at

    def test_server_skips_dispatch_of_expired_requests(self, pair):
        """The wire half: a request arriving past its expiry is rejected
        without executing the operation."""
        system, server, client = pair
        counter = Counter()
        register(server, "ctr", counter)
        proxy = bind(client, "ctr")
        # Expire mid-flight: past the send-time check, spent on arrival.
        transit = system.network.transit_time(client.node.name,
                                             server.node.name, 64)
        deadline = Deadline.after(client.clock.now, transit * 0.5)
        with pytest.raises(DeadlineExceeded):
            system.rpc.call(client, proxy.proxy_ref, "incr",
                            deadline=deadline)
        assert counter.value == 0, "the increment must not have executed"
        dispatcher = server.handler.__self__
        assert dispatcher.stats["deadline_rejects"] == 1


class TestBreakerFeed:
    def test_protocol_feeds_outcomes_once_a_registry_exists(self, pair):
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        registry = ensure_breakers(system, failure_threshold=2)
        system.rpc.call(client, proxy.proxy_ref, "read")
        assert registry.counters.get("rpc.successes") >= 1
        server.node.crash()
        with pytest.raises(RpcTimeout):
            system.rpc.call(client, proxy.proxy_ref, "read",
                            retry=RetryPolicy(attempts=1))
        assert registry.counters.get("rpc.failures") == 1
        breaker = registry.between(client.context_id, server.context_id)
        assert breaker.consecutive_failures == 1

    def test_no_registry_means_no_feeding(self, pair):
        system, server, client = pair
        register(server, "ctr", Counter())
        proxy = bind(client, "ctr")
        assert system.breakers is None
        system.rpc.call(client, proxy.proxy_ref, "read")
        assert system.breakers is None, "plain traffic must not install one"


class TestOnewayLiveness:
    def test_in_flight_oneway_is_not_executed_on_a_crashed_node(self, pair):
        """Satellite regression: send_oneway checked only ``handler`` and
        would execute a delivered frame on a crashed node.  Bypass the
        network's own send-time liveness check to model a message already
        in flight when the crash hits."""
        system, server, client = pair
        sink = Sink()
        register(server, "snk", sink)
        proxy = bind(client, "snk")
        proxy.push()
        assert sink.received == 1

        network = system.network
        network.transmit = lambda src, dst, nbytes, at: \
            Delivery(True, at + 1e-4)
        try:
            server.node.crash()
            proxy.push()   # delivered by the patched network, but…
        finally:
            del network.transmit
        assert sink.received == 1, \
            "a crashed context must not execute a delivered one-way frame"

    def test_oneway_to_an_unknown_context_is_dropped(self, pair):
        system, server, client = pair
        sink = Sink()
        register(server, "snk", sink)
        proxy = bind(client, "snk")
        proxy.proxy_ref = proxy.proxy_ref.__class__(
            "ghost/main", proxy.proxy_ref.oid, proxy.proxy_ref.interface,
            proxy.proxy_ref.epoch, proxy.proxy_ref.policy)
        network = system.network
        network.transmit = lambda src, dst, nbytes, at: \
            Delivery(True, at + 1e-4)
        try:
            proxy.push()   # must not raise, must not execute
        finally:
            del network.transmit
        assert sink.received == 0
