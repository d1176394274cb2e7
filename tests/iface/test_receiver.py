"""The receiver is dropped by position, not by name.

Every test here but the static/class-method one (which pins what did
not change) fails at the parent of PR 22, where ``Interface.of``
dropped any parameter *named* ``self`` from the function while
``check_implements`` read the bound method (receiver already gone by
position): ``Odd`` could not be exported under its own interface
(``method 'put' takes 2 parameters, interface declares 3``) and
``get(s, self)`` derived ``("s",)`` — the receiver kept, the real
parameter dropped.
"""

import repro
from repro.core.export import get_space
from repro.iface.interface import Interface, operation


class Odd:
    def __init__(self):
        self.data = {}

    @operation(invalidates=("key",))
    def put(this, key, value):
        this.data[key] = value
        return True

    @operation(readonly=True)
    def get(s, self):
        return s.data.get(self)

    @staticmethod
    @operation(readonly=True)
    def double(n):
        return 2 * n

    @classmethod
    @operation(readonly=True)
    def kind(cls, suffix):
        return cls.__name__ + suffix


class TestDerivation:
    def test_receiver_of_any_name_is_dropped(self):
        assert Interface.of(Odd).operation("put").params == ("key", "value")

    def test_parameter_named_self_is_kept(self):
        assert Interface.of(Odd).operation("get").params == ("self",)

    def test_static_and_class_methods_have_no_instance_receiver(self):
        # Unchanged from the parent: a staticmethod keeps every
        # parameter, a classmethod loses ``cls`` to the class binding.
        iface = Interface.of(Odd)
        assert iface.operation("double").params == ("n",)
        assert iface.operation("kind").params == ("suffix",)


class TestExportAndCall:
    def test_exports_under_its_own_interface_and_serves_calls(self, pair):
        system, server, client = pair
        repro.register(server, "odd", Odd())
        proxy = repro.bind(client, "odd")
        assert proxy.put("k", 1) is True
        assert proxy.get("k") == 1
        assert proxy.double(21) == 42
        assert proxy.kind("!") == "Odd!"
        repro.assert_principle(system)

    def test_caching_put_invalidates_the_key_not_its_neighbour(self, pair):
        # invalidates=("key",) is mapped to an argument position through
        # Operation.params: with the receiver left in, "key" sat at index 1
        # and a put dropped the cached entry for its *value* instead.
        system, server, client = pair
        store = Odd()
        get_space(server).export(store, policy="caching",
                                 config={"invalidation": False, "ttl": None})
        repro.register(server, "odd", store)
        proxy = repro.bind(client, "odd")
        store.data.update(a=1, b=2)
        assert (proxy.get("a"), proxy.get("b")) == (1, 2)
        proxy.put("a", "b")
        assert proxy.proxy_cache_size == 1, "only a's entry is dropped"
        assert proxy.get("a") == "b", "a stale cache would answer 1"
        assert proxy.get("b") == 2
