"""The pre-PR-18 search core of :mod:`repro.simtest.checker`, verbatim.

A reference implementation the differential tests compare the shipped
search against (``test_search_differential.py``) — not a second path in
``src``.  It keys a configuration on ``(frozenset of remaining indices,
model state)``, recomputes the candidate list from scratch at every node
and tries candidates in issue order, whatever their provenance.  Exhaustive
and memoised like the shipped search, so the two must agree on every
verdict, on ``longest_prefix``, and on ``explored`` whenever the history is
inadmissible; only how soon a witness is found may differ.
"""

from __future__ import annotations

from repro.simtest.history import Op, canonical
from repro.simtest.models import Model


def _search(ops: list[Op], model: Model, max_nodes: int,
            order: str = "realtime") -> tuple[bool, int, int]:
    """DFS over admissible total orders of one partition's operations.

    ``order`` is the mode's constraint: ``"realtime"`` (an op may go next
    only if nothing pending completed before its invoke) or ``"program"``
    (an op may go next only if no *required* earlier op of the same client
    is still pending — failed maybe-ops never block their session).

    Returns ``(admissible, configurations explored, longest prefix of
    required ops ever applied)``.  When the budget is exhausted the history
    is *presumed* admissible (the caller reports ``capped``).
    """
    required = frozenset(i for i, op in enumerate(ops)
                         if op.status == "ok")
    infinity = float("inf")
    completes = [op.complete if op.complete is not None else infinity
                 for op in ops]
    expected = [canonical(op.result) if op.status == "ok" else None
                for op in ops]
    if order == "program":
        predecessor = _required_predecessors(ops, required)

        def candidates(remaining: frozenset) -> list[int]:
            return sorted(i for i in remaining
                          if predecessor[i] is None
                          or predecessor[i] not in remaining)
    else:
        def candidates(remaining: frozenset) -> list[int]:
            return _candidates(ops, completes, remaining)

    initial = model.initial()
    if not required and all(op.status != "ok" for op in ops):
        # Nothing is required to have happened: trivially admissible.
        return True, 0, 0

    seen: set[tuple[frozenset, object]] = set()
    explored = 0
    best_applied = 0
    # Each stack frame: (remaining index set, state, candidate iterator).
    remaining = frozenset(range(len(ops)))
    stack = [(remaining, initial, iter(candidates(remaining)))]
    seen.add((remaining, initial))
    while stack:
        remaining, state, frontier = stack[-1]
        if not (remaining & required):
            return True, explored, best_applied
        advanced = False
        for index in frontier:
            op = ops[index]
            try:
                result, new_state = model.step(state, op.verb,
                                               tuple(op.args))
            except Exception:
                continue    # the model rejects this order outright
            if op.status == "ok" and canonical(result) != expected[index]:
                continue
            new_remaining = remaining - {index}
            key = (new_remaining, new_state)
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            applied = len(required) - len(new_remaining & required)
            best_applied = max(best_applied, applied)
            if explored >= max_nodes:
                return True, explored, best_applied    # presumed; capped
            stack.append((new_remaining, new_state,
                          iter(candidates(new_remaining))))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return False, explored, best_applied


def _candidates(ops: list[Op], completes: list[float],
                remaining: frozenset) -> list[int]:
    """Indices that may linearize next: nothing pending completed before
    their invoke."""
    if not remaining:
        return []
    horizon = min(completes[i] for i in remaining)
    return sorted(i for i in remaining if ops[i].invoke <= horizon)


def _required_predecessors(ops: list[Op],
                           required: frozenset) -> list[int | None]:
    """For each op, the nearest earlier *required* op of the same client.

    Program order per client is ``(invoke, index)``.  Chasing only the
    nearest required predecessor suffices: an applied predecessor was
    itself a candidate once, so its own required predecessors were applied
    first (induction).
    """
    last_required: dict[str, int] = {}
    predecessor: list[int | None] = [None] * len(ops)
    for position in sorted(range(len(ops)),
                           key=lambda i: (ops[i].invoke, ops[i].index)):
        client = ops[position].client
        predecessor[position] = last_required.get(client)
        if position in required:
            last_required[client] = position
    return predecessor
