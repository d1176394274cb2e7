"""Sequential oracles for the :mod:`repro.apps` services.

A :class:`Model` is the specification the linearizability checker searches
against: pure functions over hashable state.  ``step`` mirrors the service
method's semantics exactly — including application-level exceptions, which
are modelled as ``"!ExceptionName"`` result markers (the convention of
:mod:`repro.simtest.history`) with whatever state change the real service
makes before raising (none, for the services here).

``partition_key`` enables the checker's big win: operations touching
disjoint keys commute, so a history over K keys decomposes into K
independent, exponentially smaller sub-histories.  Models whose operations
all share state (counter, queue) return ``None`` — one partition.

State must be **hashable** (tuples, not lists): the checker memoizes on
``(remaining ops, state)`` pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Any, Hashable

#: State marker for an absent KV key (distinct from a stored ``None``).
_ABSENT = ("__absent__",)


class Model:
    """A sequential specification: initial state plus a step function."""

    #: Registry name, matching the workload's service names.
    name = ""

    #: Verbs that never move state (the read-your-writes oracle drops
    #: *other* clients' reads from a client's projection; see
    #: :func:`ryw_projection`).  Must mirror the service interface's
    #: ``readonly`` flags — cross-checked by the model self-tests.
    readonly_verbs: frozenset[str] = frozenset()

    def initial(self) -> Hashable:
        """The state every partition starts from."""
        raise NotImplementedError

    def partition_key(self, verb: str, args: tuple) -> Hashable | None:
        """The key an operation touches (``None`` = touches everything)."""
        return None

    def step(self, state: Hashable, verb: str,
             args: tuple) -> tuple[Any, Hashable]:
        """Apply one operation: returns ``(result, new_state)``."""
        raise NotImplementedError


class KVModel(Model):
    """Oracle for :class:`repro.apps.kv.KVStore` (per-key partitioned)."""

    name = "kv"
    readonly_verbs = frozenset({"get", "contains"})

    def initial(self) -> Hashable:
        return _ABSENT

    def partition_key(self, verb: str, args: tuple) -> Hashable | None:
        return args[0]

    def step(self, state, verb, args):
        if verb == "get":
            return (None if state is _ABSENT or state == list(_ABSENT)
                    else state), state
        if verb == "contains":
            return state is not _ABSENT and state != list(_ABSENT), state
        if verb == "put":
            value = args[1]
            if isinstance(value, list):
                value = tuple(value)    # state must stay hashable
            return True, value
        if verb == "delete":
            existed = state is not _ABSENT and state != list(_ABSENT)
            return existed, _ABSENT
        raise ValueError(f"KVModel cannot step {verb!r}")


class CounterModel(Model):
    """Oracle for :class:`repro.apps.counter.Counter` (single partition)."""

    name = "counter"
    readonly_verbs = frozenset({"read"})

    def initial(self) -> Hashable:
        return 0

    def step(self, state, verb, args):
        if verb == "incr":
            value = state + (args[0] if args else 1)
            return value, value
        if verb == "decr":
            value = state - (args[0] if args else 1)
            return value, value
        if verb == "read":
            return state, state
        if verb == "reset":
            return state, 0
        raise ValueError(f"CounterModel cannot step {verb!r}")


class LockModel(Model):
    """Oracle for :class:`repro.apps.locks.LockService` (per-lock-name).

    State: ``(holder, waiters)`` — ``""`` means free, ``waiters`` is the
    FIFO queue as a tuple.  ``release`` by a non-holder is the modelled
    application exception (``"!PermissionError"``).
    """

    name = "lock"
    readonly_verbs = frozenset({"holder", "queue_length"})

    def initial(self) -> Hashable:
        return ("", ())

    def partition_key(self, verb: str, args: tuple) -> Hashable | None:
        return args[0]

    def step(self, state, verb, args):
        holder, waiters = state
        if verb == "try_acquire":
            owner = args[1]
            if holder == "":
                return True, (owner, waiters)
            return holder == owner, state
        if verb == "enqueue":
            owner = args[1]
            if owner not in waiters:
                waiters = waiters + (owner,)
            return waiters.index(owner), (holder, waiters)
        if verb == "release":
            owner = args[1]
            if holder != owner:
                return "!PermissionError", state
            if waiters:
                return waiters[0], (waiters[0], waiters[1:])
            return "", ("", waiters)
        if verb == "holder":
            return holder, state
        if verb == "queue_length":
            return len(waiters), state
        raise ValueError(f"LockModel cannot step {verb!r}")


class QueueModel(Model):
    """Oracle for :class:`repro.apps.queue.WorkQueue` (single partition).

    State: ``(pending, in_flight, done, next_id)`` with ``pending`` a FIFO
    tuple of ``(id, task)``, ``in_flight`` a sorted tuple of
    ``(id, worker, task)``, and ``done`` a sorted tuple of ids.
    """

    name = "queue"
    readonly_verbs = frozenset({"depth", "stats"})

    def initial(self) -> Hashable:
        return ((), (), (), 1)

    def step(self, state, verb, args):
        pending, in_flight, done, next_id = state
        if verb == "submit":
            return next_id, (pending + ((next_id, args[0]),), in_flight,
                             done, next_id + 1)
        if verb == "take":
            if not pending:
                return None, state
            (task_id, task), rest = pending[0], pending[1:]
            flight = tuple(sorted(in_flight + ((task_id, args[0], task),)))
            return [task_id, task], (rest, flight, done, next_id)
        if verb == "ack":
            task_id = args[0]
            hit = [item for item in in_flight if item[0] == task_id]
            if not hit:
                return False, state
            flight = tuple(item for item in in_flight if item[0] != task_id)
            return True, (pending, flight, tuple(sorted(done + (task_id,))),
                          next_id)
        if verb == "depth":
            return len(pending), state
        if verb == "stats":
            return {"pending": len(pending), "in_flight": len(in_flight),
                    "done": len(done)}, state
        raise ValueError(f"QueueModel cannot step {verb!r}")


class BankModel(Model):
    """Oracle for the bank facade (:mod:`repro.simtest.bank`).

    One partition — transfers span accounts, so nothing commutes.  State
    is the sorted ``((account, balance), ...)`` tuple.  ``transfer``
    mirrors the facade's check order exactly: insufficient funds first,
    then the per-account cap, then the atomic move.  Only the blocking
    (``txn2pc``) deployment is graded against this model — the saga
    deployments expose intermediate states by design and are graded by
    the atomicity audit instead (:func:`repro.simtest.bank.grade_bank`).
    """

    name = "bank"
    readonly_verbs = frozenset({"balance", "total"})

    def initial(self) -> Hashable:
        from .bank import ACCOUNTS, INITIAL
        return tuple(sorted((account, INITIAL) for account in ACCOUNTS))

    def step(self, state, verb, args):
        from .bank import CAP
        balances = dict(state)
        if verb == "transfer":
            src, dst, amount = args
            if balances[src] < amount:
                return "insufficient", state
            if balances[dst] + amount > CAP:
                return "capped", state
            balances[src] -= amount
            balances[dst] += amount
            return "committed", tuple(sorted(balances.items()))
        if verb == "balance":
            return balances[args[0]], state
        if verb == "total":
            return sum(balances.values()), state
        raise ValueError(f"BankModel cannot step {verb!r}")


#: Service name → model factory (the workload and checker share this).
MODELS: dict[str, type[Model]] = {
    model.name: model for model in (KVModel, CounterModel, LockModel,
                                    QueueModel, BankModel)
}


class CombinedModel(Model):
    """All of a base model's partitions folded into one state.

    Sequential consistency is **not compositional** (unlike
    linearizability): per-key sub-histories can each admit a program-order-
    respecting total order while no single order serves every key at once.
    The sequential checker mode therefore searches one partition whose
    state is the whole table — ``((key_repr, sub_state), ...)``, sorted by
    key so equal tables memoize equally.
    """

    def __init__(self, base: Model):
        self.base = base
        self.name = f"combined({base.name})"
        self.readonly_verbs = base.readonly_verbs

    def initial(self) -> Hashable:
        return ()

    def partition_key(self, verb: str, args: tuple) -> Hashable | None:
        return None

    def step(self, state, verb, args):
        key = repr(self.base.partition_key(verb, args))
        # ``(key,)`` sorts just before ``(key, anything)``: the slot of the
        # key's pair, present or not, without comparing sub-states.
        at = end = bisect_left(state, (key,))
        if at < len(state) and state[at][0] == key:
            sub, end = state[at][1], at + 1
        else:
            sub = self.base.initial()
        result, new_sub = self.base.step(sub, verb, args)
        return result, state[:at] + ((key, new_sub),) + state[end:]


def ryw_projection(ops, client: str, model: Model) -> list:
    """One client's read-your-writes view of a checkable history.

    The client's own operations keep their order, results, and times.
    Other clients' **mutators** become optional, unconstrained ``maybe``
    ops (their effects may be observed at any point after their invoke, or
    never); other clients' **reads** move no state and are dropped.  The
    projection is then checked like any history — a violation means this
    client failed to observe *its own* acknowledged writes.
    """
    projected = []
    for op in ops:
        if op.client == client:
            projected.append(op)
        elif op.verb not in model.readonly_verbs:
            projected.append(replace(op, status="maybe", complete=None,
                                     result=None, error=None))
    return projected
