"""Model-oracle tests: unit semantics plus cross-validation.

The cross-validation tests are the load-bearing ones: each model is driven
through a long random sequence *alongside the real service object*, and
every result must match.  A model that drifts from its service makes the
checker convict innocent policies (or worse, acquit guilty ones).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.counter import Counter
from repro.apps.kv import KVStore
from repro.apps.locks import LockService
from repro.apps.queue import WorkQueue
from repro.iface.interface import Interface
from repro.simtest.history import Op, canonical
from repro.simtest.models import (
    MODELS,
    CombinedModel,
    CounterModel,
    KVModel,
    LockModel,
    QueueModel,
    ryw_projection,
)
from repro.simtest.workload import _OPGENS, SERVICE_CYCLE


class TestKVModel:
    def test_absent_key_reads_none(self):
        model = KVModel()
        state = model.initial()
        assert model.step(state, "get", ("k",))[0] is None
        assert model.step(state, "contains", ("k",))[0] is False
        assert model.step(state, "delete", ("k",))[0] is False

    def test_put_get_delete_cycle(self):
        model = KVModel()
        state = model.initial()
        result, state = model.step(state, "put", ("k", 7))
        assert result is True
        assert model.step(state, "get", ("k",))[0] == 7
        result, state = model.step(state, "delete", ("k",))
        assert result is True
        assert model.step(state, "get", ("k",))[0] is None

    def test_stored_none_is_distinct_from_absent(self):
        model = KVModel()
        _, state = model.step(model.initial(), "put", ("k", None))
        assert model.step(state, "contains", ("k",))[0] is True

    def test_list_values_stay_hashable(self):
        model = KVModel()
        _, state = model.step(model.initial(), "put", ("k", [1, 2]))
        hash(state)    # checker memoizes on state
        assert canonical(model.step(state, "get", ("k",))[0]) == [1, 2]

    def test_partitions_by_key(self):
        model = KVModel()
        assert model.partition_key("get", ("a",)) == "a"
        assert model.partition_key("put", ("b", 1)) == "b"

    def test_unknown_verb_raises(self):
        with pytest.raises(ValueError):
            KVModel().step(KVModel().initial(), "size", ())


class TestLockModel:
    def test_release_by_non_holder_is_the_exception_marker(self):
        model = LockModel()
        result, state = model.step(model.initial(), "release", ("l", "a"))
        assert result == "!PermissionError"
        assert state == model.initial()

    def test_fifo_handoff(self):
        model = LockModel()
        state = model.initial()
        _, state = model.step(state, "try_acquire", ("l", "a"))
        _, state = model.step(state, "enqueue", ("l", "b"))
        _, state = model.step(state, "enqueue", ("l", "c"))
        result, state = model.step(state, "release", ("l", "a"))
        assert result == "b"
        assert model.step(state, "holder", ("l",))[0] == "b"
        assert model.step(state, "queue_length", ("l",))[0] == 1

    def test_reentrant_acquire(self):
        model = LockModel()
        _, state = model.step(model.initial(), "try_acquire", ("l", "a"))
        assert model.step(state, "try_acquire", ("l", "a"))[0] is True
        assert model.step(state, "try_acquire", ("l", "b"))[0] is False


class TestQueueModel:
    def test_submit_take_ack(self):
        model = QueueModel()
        state = model.initial()
        task_id, state = model.step(state, "submit", ("job",))
        assert task_id == 1
        result, state = model.step(state, "take", ("w",))
        assert result == [1, "job"]
        assert model.step(state, "ack", (1,))[0] is True
        assert model.step(state, "ack", (1,))[1][2] == (1,)

    def test_take_empty_and_stale_ack(self):
        model = QueueModel()
        state = model.initial()
        assert model.step(state, "take", ("w",))[0] is None
        assert model.step(state, "ack", (9,))[0] is False


class TestCounterModel:
    def test_arithmetic(self):
        model = CounterModel()
        state = model.initial()
        result, state = model.step(state, "incr", (3,))
        assert result == 3
        result, state = model.step(state, "decr", (1,))
        assert result == 2
        result, state = model.step(state, "reset", ())
        assert (result, state) == (2, 0)


def _op(index, client, verb, args, status="ok", result=None):
    return Op(index=index, client=client, verb=verb, args=list(args),
              invoke=float(index), complete=float(index) + 0.5,
              status=status, result=result, error="")


class TestCombinedModel:
    def test_folds_every_partition_into_one_state(self):
        model = CombinedModel(KVModel())
        state = model.initial()
        assert state == ()
        result, state = model.step(state, "put", ("a", 1))
        assert result is True
        result, state = model.step(state, "put", ("b", 2))
        assert model.step(state, "get", ("a",))[0] == 1
        assert model.step(state, "get", ("b",))[0] == 2

    def test_state_is_hashable_and_order_independent(self):
        model = CombinedModel(KVModel())
        _, one = model.step(model.initial(), "put", ("a", 1))
        _, one = model.step(one, "put", ("b", 2))
        _, two = model.step(model.initial(), "put", ("b", 2))
        _, two = model.step(two, "put", ("a", 1))
        hash(one)    # checker memoizes on state
        assert one == two, "equal tables must memoize equally"

    @settings(max_examples=60, deadline=None)
    @given(service=st.sampled_from(sorted(MODELS)), seed=st.integers(0),
           length=st.integers(1, 60))
    def test_spliced_state_is_the_sorted_table(self, service, seed, length):
        # ``step`` splices one pair into the sorted tuple; the state must
        # stay what sorting the whole table would give, whatever the keys'
        # arrival order and however many steps only read.
        base = MODELS[service]()
        model = CombinedModel(base)
        rng = random.Random(seed)
        state, table = model.initial(), {}
        for index in range(length):
            verb, args = _OPGENS[service](rng, f"c{index % 3}", index)
            key = repr(base.partition_key(verb, args))
            expected, table[key] = base.step(
                table.get(key, base.initial()), verb, args)
            result, state = model.step(state, verb, args)
            assert result == expected
            assert state == tuple(sorted(table.items()))

    def test_single_combined_partition(self):
        model = CombinedModel(KVModel())
        assert model.partition_key("get", ("a",)) is None
        assert model.partition_key("put", ("b", 1)) is None

    def test_inherits_readonly_verbs(self):
        assert CombinedModel(KVModel()).readonly_verbs == \
            KVModel.readonly_verbs


class TestRywProjection:
    def test_own_ops_survive_verbatim(self):
        mine = _op(0, "a", "put", ("k", 1), result=True)
        projected = ryw_projection([mine], "a", KVModel())
        assert projected == [mine]

    def test_other_clients_mutators_become_optional(self):
        theirs = _op(0, "b", "put", ("k", 2), result=True)
        projected = ryw_projection([theirs], "a", KVModel())
        assert len(projected) == 1
        assert projected[0].status == "maybe"
        assert projected[0].complete is None
        assert projected[0].result is None

    def test_other_clients_reads_are_dropped(self):
        theirs = _op(0, "b", "get", ("k",), result=1)
        assert ryw_projection([theirs], "a", KVModel()) == []

    def test_projection_preserves_history_order(self):
        ops = [
            _op(0, "a", "put", ("k", 1), result=True),
            _op(1, "b", "get", ("k",), result=1),
            _op(2, "b", "put", ("k", 2), result=True),
            _op(3, "a", "get", ("k",), result=1),
        ]
        projected = ryw_projection(ops, "a", KVModel())
        assert [op.index for op in projected] == [0, 2, 3]


_SERVICES = {"kv": KVStore, "counter": Counter, "lock": LockService,
             "queue": WorkQueue}


@pytest.mark.parametrize("service", SERVICE_CYCLE)
def test_readonly_verbs_mirror_the_interface(service):
    """The RYW oracle drops other clients' reads by ``readonly_verbs``;
    a verb misclassified there silently weakens (or breaks) the check, so
    pin the set against the service interface's own ``readonly`` flags."""
    model = MODELS[service]()
    iface = Interface.of(_SERVICES[service])
    for verb in model.readonly_verbs:
        assert iface.operation(verb).readonly, verb
    opgen = _OPGENS[service]
    rng = random.Random(f"readonly-xval:{service}")
    exercised = {opgen(rng, "c0", index)[0] for index in range(200)}
    for verb in exercised:
        assert (verb in model.readonly_verbs) == \
            iface.operation(verb).readonly, verb


@pytest.mark.parametrize("service", SERVICE_CYCLE)
def test_model_matches_service_sequentially(service):
    """Drive model and real service through 400 random ops in lockstep.

    Uses the workload's own op generators, so the verbs and argument
    distributions are exactly what the harness exercises.  The model keeps
    per-partition state the way the checker does.
    """
    model = MODELS[service]()
    real = _SERVICES[service]()
    opgen = _OPGENS[service]
    rng = random.Random(f"model-xval:{service}")
    states: dict = {}
    for index in range(400):
        client = f"c{index % 3}"
        verb, args = opgen(rng, client, index)
        key = model.partition_key(verb, args)
        state = states.get(key, model.initial())
        expected, states[key] = model.step(state, verb, args)
        try:
            actual = canonical(getattr(real, verb)(*args))
        except Exception as exc:
            actual = f"!{type(exc).__name__}"
        assert canonical(expected) == actual, \
            f"{service} op {index}: {verb}{args} model={expected!r} " \
            f"service={actual!r}"
