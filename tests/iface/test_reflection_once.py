"""Reflection happens once per ``@operation`` function; conformance is
still checked on every export.

The counting tests fail at the parent of PR 22 (which reflected on every
operation of every exported object: ≈ 30 calls per ``deploy``).  The
conformance matrix passes on both sides — it pins the five gap kinds and
their messages; the last two rows were covered by nothing before.
"""

import functools
import inspect
from collections import Counter

import pytest

import repro
from repro.apps.kv import KVStore
from repro.core.export import ContextManager
from repro.iface import conformance
from repro.iface.conformance import check_implements
from repro.iface.interface import (
    Interface,
    Operation,
    _positional_params,
    operation,
)
from repro.kernel.errors import ConformanceError
from repro.simtest.runner import SimCase
from repro.simtest.workload import BANK_POLICIES, SHIPPED_POLICIES, deploy


@pytest.fixture
def reflected(monkeypatch):
    """Counts ``inspect.signature`` calls per function reflected on (a
    bound method counts against its function)."""
    seen = Counter()
    real = inspect.signature

    def spy(obj, **kwargs):
        seen[getattr(obj, "__func__", obj)] += 1
        return real(obj, **kwargs)

    monkeypatch.setattr(inspect, "signature", spy)
    return seen


def _operation_functions(klass):
    return {vars(klass)[name] for name in Interface.of(klass).names()}


def _contexts():
    one, two = repro.make_system(seed=1), repro.make_system(seed=2)
    return [one.add_node("a").create_context("main"),
            one.add_node("b").create_context("main"),
            two.add_node("a").create_context("main")]


class TestReflectionIsCounted:
    def test_each_operation_function_is_reflected_on_at_most_once(
            self, reflected):
        for ctx in _contexts():     # each space exports a ContextManager
            repro.export(ctx, KVStore())
        ours = (_operation_functions(KVStore)
                | _operation_functions(ContextManager))
        assert set(reflected) <= ours
        assert all(count == 1 for count in reflected.values()), reflected

    def test_a_fresh_class_is_reflected_on_exactly_once(self, reflected):
        class Fresh:
            @operation(readonly=True)
            def get(self, key):
                return key

            @operation
            def put(self, key, value):
                return True

        for ctx in _contexts():
            repro.export(ctx, Fresh())
        assert {fn: reflected[fn] for fn in _operation_functions(Fresh)} \
            == {Fresh.get: 1, Fresh.put: 1}

    @pytest.mark.parametrize("policy", SHIPPED_POLICIES)
    def test_a_second_deploy_reflects_on_nothing(self, policy, monkeypatch):
        service = "bank" if policy in BANK_POLICIES else "kv"
        case = SimCase(seed=5, policy=policy, service=service, ops=4)
        deploy(case)
        calls = []
        monkeypatch.setattr(inspect, "signature", calls.append)
        deploy(case)
        assert calls == []


def _store_class():
    class Store:
        @operation(readonly=True)
        def get(self, key):
            return key

        @operation
        def put(self, key, value):
            return True
    return Store


def _missing_method(ctx):
    class Store:
        @operation(readonly=True)
        def get(self, key):
            return key
    return Store(), Interface.of(_store_class()), "missing method 'put'"


def _non_callable_shadow(ctx):
    obj = _store_class()()
    obj.put = 5
    return obj, None, "missing method 'put'"


def _callable_shadow_of_another_arity(ctx):
    obj = _store_class()()
    obj.put = lambda key: True
    return obj, None, ("method 'put' takes 1 parameters, "
                       "interface declares 2")


def _undecorated_method(ctx):
    class Store:
        def get(self, key):
            return key

        @operation
        def put(self, key, value):
            return True
    return (Store(), Interface.of(_store_class()),
            "method 'get' exists but is not marked @operation")


def _method_replaced_after_a_first_export(ctx):
    Store = _store_class()
    repro.export(ctx, Store())      # passes; both signatures now stored

    @operation
    def put(self, key, value, extra):
        return True
    Store.put = put
    return Store(), None, ("method 'put' takes 3 parameters, "
                           "interface declares 2")


def _shadow_after_a_verdict(ctx):
    Store = _store_class()
    repro.export(ctx, Store())      # passes; the verdict is recorded
    obj = Store()
    obj.put = lambda key: True
    return obj, None, ("method 'put' takes 1 parameters, "
                       "interface declares 2")


def _getattribute_override_after_a_verdict(ctx):
    Store = _store_class()
    repro.export(ctx, Store())

    def __getattribute__(self, name):
        if name == "put":
            return 5
        return object.__getattribute__(self, name)
    Store.__getattribute__ = __getattribute__
    return Store(), None, "missing method 'put'"


@pytest.mark.parametrize("gap", [
    _missing_method, _non_callable_shadow,
    _callable_shadow_of_another_arity, _undecorated_method,
    _method_replaced_after_a_first_export, _shadow_after_a_verdict,
    _getattribute_override_after_a_verdict,
], ids=lambda gap: gap.__name__.strip("_"))
def test_every_gap_is_still_found_on_every_export(gap, pair):
    system, server, client = pair
    obj, declared, message = gap(server)
    with pytest.raises(ConformanceError) as caught:
        repro.export(server, obj, interface=declared)
    assert str(caught.value) == (
        "'Store' does not implement 'Store': " + message)


def test_a_verdict_on_the_interface_skips_the_per_operation_walk(
        monkeypatch):
    Store = _store_class()
    declared = Interface.of(Store)
    check_implements(Store(), declared)
    assert declared.verified[Store] == (("get", Store.get),
                                        ("put", Store.put))
    walked = []
    monkeypatch.setattr(conformance, "_positional_params", walked.append)
    check_implements(Store(), declared)
    assert walked == []


def test_a_shadowing_instance_records_no_verdict():
    Store = _store_class()
    obj = Store()
    obj.get = lambda key: key       # right arity: the export passes
    declared = Interface.of(Store)
    check_implements(obj, declared)
    assert Store not in declared.verified


class TestWhoIsReflectedOnAfresh:
    """The arms of ``_positional_params`` (all reach ``check_implements``
    through an instance attribute standing in for a method)."""

    def test_function_remembers_and_bound_method_drops_the_receiver(
            self, reflected):
        Store = _store_class()
        assert _positional_params(Store.put) == ("self", "key", "value")
        assert _positional_params(Store().put) == ("key", "value")
        assert _positional_params(Store().put) == ("key", "value")
        assert reflected == {Store.put: 1}

    @pytest.mark.parametrize("reflected_before_wrapping", [False, True])
    def test_wrapper_agrees_with_what_it_wraps(
            self, reflected_before_wrapping):
        # benchmarks/perf/perf_spans.py wraps operations this way: the
        # wrapper's real parameters are (*args, **kwargs), its __dict__ a
        # copy of the wrapped function's — stored signature included.
        Store = _store_class()
        inner = Store.put
        if reflected_before_wrapping:
            _positional_params(inner)

        @functools.wraps(inner)
        def outer(*args, **kwargs):
            return inner(*args, **kwargs)
        Store.put = outer
        assert _positional_params(Store().put) == ("key", "value")
        check_implements(Store(), Interface.of(_store_class()))

    def test_non_function_callables_are_reflected_on_every_time(
            self, reflected):
        Store = _store_class()

        class Callable:
            def __call__(self, key, value):
                return True

        for stand_in in (functools.partial(Store.put, None), Callable(),
                         lambda key, value: True):
            obj = Store()
            obj.put = stand_in
            check_implements(obj, Interface.of(Store))
            check_implements(obj, Interface.of(Store))
            assert reflected[stand_in] == 2

    def test_unreadable_signature_counts_as_no_parameters(self):
        class Refused:
            __signature__ = 0       # neither a Signature nor its text

            def __call__(self, key):
                return key

        assert _positional_params(Refused()) == ()
        obj = _store_class()()
        obj.get = Refused()
        declared = Interface("Store", [Operation("get", ("key",))])
        with pytest.raises(ConformanceError, match="takes 0 parameters"):
            check_implements(obj, declared)
