"""Integration: evolution — the third pillar of the paper's object model.

"A distributed system must be capable of changing its functionality in
terms of the introduction of new components, partial system failure or new
software requirements."  These tests exercise the upgrade paths the proxy
principle enables: swapping implementations, extending interfaces, and
changing distribution protocols — under clients that never change.
"""

from __future__ import annotations

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.iface.interface import operation


class KVStoreV2(KVStore):
    """The upgraded service: same interface plus new operations."""

    @operation(readonly=True, compute=5e-6)
    def get_many(self, keys: list) -> list:
        """Batch read — new in v2."""
        return [self.data.get(key) for key in keys]


class TestImplementationUpgrade:
    def test_v2_service_serves_v1_clients(self, star):
        """Re-registering an extended implementation keeps old clients
        working; new clients can use the new operations."""
        system, server, clients = star
        v1 = KVStore()
        repro.register(server, "kv", v1)
        old_client = repro.bind(clients[0], "kv")
        old_client.put("k", 1)

        # Upgrade: carry the state over, register the v2 object.
        v2 = KVStoreV2()
        v2.data.update(v1.data)
        repro.register(server, "kv", v2)

        # The old client still holds its v1 binding; the old export still
        # answers (graceful overlap), and a re-bind gets the new service.
        assert old_client.get("k") == 1
        new_client = repro.bind(clients[1], "kv")
        assert new_client.get_many(["k"]) == [1]

    def test_v1_interface_clients_never_see_v2_ops(self, star):
        """A client that re-binds under the *old* interface cannot reach
        the new operations (interface checking, not duck typing)."""
        from repro.core.views import export_view
        system, server, clients = star
        v2 = KVStoreV2()
        view_ref = export_view(get_space(server), v2, KVStore.interface())
        legacy = get_space(clients[0]).bind_ref(view_ref, handshake=False)
        legacy.put("k", 1)
        from repro.kernel.errors import InterfaceError
        with pytest.raises(InterfaceError):
            legacy.get_many(["k"])


class TestProtocolUpgrade:
    def test_policy_change_requires_no_client_change(self, star):
        """The same deployment switches from stub to caching between two
        generations of binds; client call-sites are identical."""
        system, server, clients = star
        store = KVStore()
        get_space(server).export(store, policy="stub")
        repro.register(server, "kv", store)

        def client_code(proxy):
            proxy.put("x", 42)
            return proxy.get("x")

        assert client_code(repro.bind(clients[0], "kv")) == 42

        # Operations team flips the policy: re-export under caching.
        get_space(server).unexport(store)
        get_space(server).export(store, policy="caching")
        repro.register(server, "kv", store)
        upgraded = repro.bind(clients[1], "kv")
        assert client_code(upgraded) == 42
        from repro.core.policies.caching import CachingProxy
        assert isinstance(upgraded, CachingProxy)

    def test_relocation_is_invisible(self, star):
        """The service moves machines; clients keep calling."""
        system, server, clients = star
        from repro.apps.counter import Counter
        counter = Counter()
        space = get_space(server)
        ref = space.export(counter, policy="migrating")
        repro.register(server, "ctr", counter)
        proxy = repro.bind(clients[0], "ctr")
        proxy.incr()
        # An administrator relocates the object to another machine.
        new_ref = repro.migrate(clients[2], ref, clients[2].context_id)
        assert new_ref.context_id == clients[2].context_id
        assert proxy.incr() == 2, "old binding follows the forwarding pointer"
        late = repro.bind(clients[1], "ctr")
        assert late.incr() == 3


class TestComponentIntroduction:
    def test_new_service_types_join_a_running_system(self, star):
        """New kinds of services (new interfaces, new policies) register
        into a system that has been running — no restart, no recompile."""
        system, server, clients = star
        repro.register(server, "kv", KVStore())
        kv = repro.bind(clients[0], "kv")
        kv.put("bootstrap", True)

        # Later, a team ships an entirely new service type.
        from repro.apps.queue import WorkQueue
        repro.register(clients[1], "tasks", WorkQueue())
        tasks = repro.bind(clients[0], "tasks")
        tasks.submit("new component online")
        assert tasks.take("ops") == [1, "new component online"]
        assert tasks.depth() == 0
        repro.assert_principle(system)
