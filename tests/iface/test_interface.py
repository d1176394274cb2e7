"""Unit tests for interface declaration and derivation."""

import pytest

from repro.iface.interface import Interface, Operation, is_operation, operation
from repro.kernel.errors import InterfaceError


class Sample:
    @operation(readonly=True)
    def look(self, key):
        return key

    @operation(invalidates=("key",), compute=1e-5)
    def poke(self, key, value):
        return True

    @operation(oneway=True)
    def notify(self, event):
        pass

    def helper(self):
        """Not part of the interface."""


class TestOperationDecorator:
    def test_marks_methods(self):
        assert is_operation(Sample.look)
        assert not is_operation(Sample.helper)

    def test_bare_decorator(self):
        class Bare:
            @operation
            def op(self):
                return 1
        assert is_operation(Bare.op)

    def test_metadata_carried(self):
        iface = Interface.of(Sample)
        poke = iface.operation("poke")
        assert poke.invalidates == ("key",)
        assert poke.compute == 1e-5
        assert not poke.readonly
        assert iface.operation("notify").oneway


class TestInterfaceOf:
    def test_derives_operations_only(self):
        iface = Interface.of(Sample)
        assert iface.names() == ["look", "notify", "poke"]

    def test_params_exclude_self(self):
        iface = Interface.of(Sample)
        assert iface.operation("poke").params == ("key", "value")

    def test_cached_per_class(self):
        assert Interface.of(Sample) is Interface.of(Sample)

    def test_subclass_gets_own_interface(self):
        class Extended(Sample):
            @operation
            def extra(self):
                return 0
        iface = Interface.of(Extended)
        assert "extra" in iface
        assert "look" in iface
        assert Interface.of(Sample).names() == ["look", "notify", "poke"]

    def test_undecorated_class_rejected(self):
        class Nothing:
            def plain(self):
                pass
        with pytest.raises(InterfaceError):
            Interface.of(Nothing)


class TestInterface:
    def test_lookup(self):
        iface = Interface("I", [Operation("a"), Operation("b", ("x",))])
        assert iface.operation("b").params == ("x",)

    def test_unknown_operation_raises_with_candidates(self):
        iface = Interface("I", [Operation("a")])
        with pytest.raises(InterfaceError, match="'a'"):
            iface.operation("zzz")

    def test_contains(self):
        iface = Interface("I", [Operation("a")])
        assert "a" in iface
        assert "b" not in iface

    def test_duplicate_operation_rejected(self):
        with pytest.raises(InterfaceError):
            Interface("I", [Operation("a"), Operation("a")])

    @pytest.mark.parametrize("verb", ["_y", "proxy_x", "__call__", "invoke"])
    def test_a_verb_in_the_proxys_namespace_is_refused(self, verb):
        # No proxy could call it: ``Proxy.__getattr__`` keeps ``_*`` and
        # ``proxy_*`` for itself.
        with pytest.raises(InterfaceError, match=repr(verb)):
            Interface("I", [Operation("a"), Operation(verb)])

    def test_a_class_exporting_such_a_verb_is_refused(self):
        class Hidden:
            @operation
            def proxy_x(self):
                return 1

            @operation
            def _y(self):
                return 2
        with pytest.raises(InterfaceError, match="'_y'|'proxy_x'"):
            Interface.of(Hidden)
