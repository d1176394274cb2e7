"""Tests for the codebase: factory, interface, and class registries."""

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.factory import Codebase, global_policies, register_policy
from repro.core.proxy import Proxy
from repro.iface.interface import Interface, Operation
from repro.kernel.errors import BindError, ConfigurationError


class TestFactories:
    def test_builtins_registered_globally(self):
        names = set(global_policies())
        assert {"stub", "caching", "batching", "migrating", "replicated",
                "leased", "composite"} <= names

    def test_per_system_registration_is_isolated(self):
        class Custom(Proxy):
            proxy_policy_name = "custom-local"

        system_a = repro.make_system(seed=1)
        system_b = repro.make_system(seed=1)
        system_a.codebase.register_factory(Custom)
        assert "custom-local" in system_a.codebase.factories
        assert "custom-local" not in system_b.codebase.factories

    def test_register_policy_requires_name(self):
        class Nameless(Proxy):
            proxy_policy_name = ""

        with pytest.raises(ConfigurationError):
            register_policy(Nameless)

    def test_instantiate_unknown_policy_rejected(self, pair):
        system, server, client = pair
        from repro.wire.refs import ObjectRef
        ref = ObjectRef("server/main", "x", "KVStore", 0, "nonexistent")
        system.codebase.register_interface(KVStore.interface())
        with pytest.raises(BindError):
            system.codebase.instantiate(client, ref)


class TestInterfaces:
    def test_register_and_lookup(self, system):
        iface = Interface("Thing", [Operation("op")])
        system.codebase = system.codebase or Codebase(system)
        system.codebase.register_interface(iface)
        assert system.codebase.interface("Thing") is iface

    def test_unknown_interface_rejected(self, system):
        with pytest.raises(BindError):
            system.codebase.interface("Mystery")

    def test_conflicting_redefinition_rejected(self, system):
        system.codebase.register_interface(
            Interface("Clash", [Operation("a")]))
        with pytest.raises(ConfigurationError):
            system.codebase.register_interface(
                Interface("Clash", [Operation("b")]))

    def test_identical_redefinition_tolerated(self, system):
        first = Interface("Same", [Operation("a")])
        second = Interface("Same", [Operation("a")])
        system.codebase.register_interface(first)
        system.codebase.register_interface(second)


class TestClasses:
    def test_register_and_resolve(self, system):
        system.codebase.register_class(KVStore)
        assert system.codebase.resolve_class("KVStore") is KVStore

    def test_custom_name(self, system):
        system.codebase.register_class(KVStore, name="Store")
        assert system.codebase.resolve_class("Store") is KVStore

    def test_unknown_class_rejected(self, system):
        with pytest.raises(BindError):
            system.codebase.resolve_class("Phantom")
