"""Tests for failure injection."""

import pytest

from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.failures.injectors import (
    degraded_link,
    message_loss,
    partitioned,
)
from repro.kernel.errors import RpcTimeout


@pytest.fixture
def wired(pair):
    system, server, client = pair
    store = KVStore()
    ref = get_space(server).export(store)
    proxy = get_space(client).bind_ref(ref)
    return system, server, client, proxy


class TestMessageLoss:
    def test_scoped_loss_restores(self, wired):
        system, server, client, proxy = wired
        with message_loss(system, 0.4):
            proxy.put("k", 1)
        # Outside the scope the network is reliable again.
        retries_before = system.rpc.stats["retries"]
        for index in range(20):
            proxy.put(f"clean{index}", index)
        assert system.rpc.stats["retries"] == retries_before

    def test_total_loss_times_out(self, wired):
        system, server, client, proxy = wired
        with message_loss(system, 1.0):
            with pytest.raises(RpcTimeout):
                proxy.get("k")


class TestDegradedLink:
    def test_latency_override_applies_and_reverts(self, wired):
        system, server, client, proxy = wired
        proxy.get("k")
        client.now
        with degraded_link(system, client.node.name, server.node.name,
                           latency=0.1):
            t0 = client.now
            proxy.get("k")
            degraded = client.now - t0
        assert degraded >= 0.2, "two slow one-way hops"
        t0 = client.now
        proxy.get("k")
        assert client.now - t0 < 0.1


class TestPartition:
    def test_partition_blocks_and_heals(self, wired):
        system, server, client, proxy = wired
        with partitioned(system, [{server.node.name}, {client.node.name}]):
            with pytest.raises(RpcTimeout):
                proxy.get("k")
        assert proxy.get("k") is None  # healed

