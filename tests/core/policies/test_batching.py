"""Tests for the batching proxy: buffering, flushing, semantics."""

import pytest

import repro
from repro.apps.mailbox import Mailbox
from repro.core.export import get_space
from repro.kernel.errors import InterfaceError
from repro.metrics.counters import MessageWindow


def deploy(server, config=None):
    box = Mailbox()
    get_space(server).export(
        box, policy="batching",
        config=config if config is not None else {"batch_size": 4,
                                                  "batch_ops": ["post"]})
    repro.register(server, "mail", box)
    return box


class TestBuffering:
    def test_ops_buffer_until_batch_size(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        with MessageWindow(system) as window:
            proxy.post("alice", "one")
            proxy.post("alice", "two")
            proxy.post("alice", "three")
        assert window.report.messages == 0
        assert proxy.proxy_pending == 3
        assert box.count() == 0

    def test_batch_size_triggers_flush(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        for index in range(4):
            proxy.post("alice", f"m{index}")
        assert proxy.proxy_pending == 0
        assert box.count() == 4

    def test_order_preserved_across_batches(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        for index in range(10):
            proxy.post("alice", f"m{index}")
        proxy.proxy_flush()
        bodies = [body for _, body in box._messages]
        assert bodies == [f"m{index}" for index in range(10)]

    def test_message_savings(self, pair):
        system, server, client = pair
        deploy(server, config={"batch_size": 10, "batch_ops": ["post"]})
        proxy = repro.bind(client, "mail")
        with MessageWindow(system) as window:
            for index in range(20):
                proxy.post("a", f"m{index}")
        assert window.report.messages == 4, "two batches = two round trips"


class TestReadYourWrites:
    def test_read_flushes_pending_writes(self, pair):
        system, server, client = pair
        deploy(server)
        proxy = repro.bind(client, "mail")
        proxy.post("alice", "hello")
        assert proxy.count() == 1, "the read must observe the buffered post"

    def test_non_batched_mutator_flushes_first(self, pair):
        system, server, client = pair
        deploy(server)
        proxy = repro.bind(client, "mail")
        proxy.post("alice", "hello")
        dropped = proxy.drain()
        assert dropped == 1, "drain must see the post that preceded it"

    def test_explicit_flush(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        proxy.post("a", "x")
        assert proxy.proxy_flush() == 1
        assert proxy.proxy_flush() == 0
        assert box.count() == 1

    def test_discard_flushes(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        proxy.post("a", "x")
        get_space(client).discard(proxy)
        assert box.count() == 1


class TestConfiguration:
    def test_batch_ops_limits_what_buffers(self, pair):
        system, server, client = pair
        box = deploy(server, config={"batch_size": 8, "batch_ops": []})
        proxy = repro.bind(client, "mail")
        with MessageWindow(system) as window:
            proxy.post("a", "x")
        assert window.report.messages == 2, "post not batchable -> direct RPC"
        assert box.count() == 1

    def test_batched_ops_return_none(self, pair):
        system, server, client = pair
        deploy(server)
        proxy = repro.bind(client, "mail")
        assert proxy.post("a", "x") is None

    def test_errors_surface_on_flush(self, pair):
        system, server, client = pair
        box = deploy(server)
        proxy = repro.bind(client, "mail")
        box._messages = None  # corrupt the service: appends will explode
        proxy.post("a", "x")
        with pytest.raises(Exception):
            proxy.proxy_flush()


class TestBatchControlContract:
    """The server half performs each operation by the export entry's step."""

    @pytest.fixture
    def control(self, pair, mutation_log):
        system, server, client = pair
        box = deploy(server)
        entry = get_space(server).entry(get_space(server).ref_of(box).oid)
        entry.mutation_hooks.append(mutation_log)
        control = entry.policy_config["batch_control"]
        return (server, box, get_space(server).entry(control.oid).obj,
                mutation_log.fired)

    def test_results_discarded_hooks_once_compute_charged(self, control):
        server, box, batch, fired = control
        before = server.now
        done = batch.apply([["post", ["a", "x"], {}], ["count", [], None],
                            ["post", ["b", "y"], None], ["drain", [], {}]])
        assert done == 4
        assert box.count() == 0
        assert fired == [("post", ("a", "x"), {}), ("post", ("b", "y"), {}),
                         ("drain", (), {})]
        assert server.now - before == pytest.approx(5e-6 + 3e-6 + 5e-6 + 1e-5)

    def test_first_failure_aborts_the_remainder(self, control):
        _server, box, batch, fired = control
        with pytest.raises(TypeError):
            batch.apply([["post", ["a", "x"], {}], ["post", ["only-one"], {}],
                         ["post", ["b", "y"], {}]])
        assert box.count() == 1
        assert len(fired) == 1

    def test_undeclared_verb_is_an_interface_error(self, control):
        _server, box, batch, fired = control
        with pytest.raises(InterfaceError, match="declares no operation"):
            batch.apply([["post", ["a", "x"], {}], ["_messages", [], {}]])
        assert box.count() == 1
