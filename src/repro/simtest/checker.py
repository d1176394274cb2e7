"""A Wing–Gong linearizability checker with "maybe happened" semantics —
plus two weaker consistency modes (sequential, read-your-writes).

Given a recorded :class:`~repro.simtest.history.History` and a sequential
:class:`~repro.simtest.models.Model`, decide whether some total order of
the operations (a) respects the mode's ordering constraint and (b) yields
each ``ok`` operation's recorded result when replayed through the model.

**Consistency modes** (:data:`CONSISTENCY_MODES`):

* ``"linearizable"`` — the total order must respect *real time*: an
  operation that completed before another was invoked must precede it.
  Checked per partition key (operations on disjoint keys commute).
* ``"sequential"`` — the total order must respect each client's *program
  order* only; no real-time constraint.  Sequential consistency is not
  compositional, so this mode searches one combined partition
  (:class:`~repro.simtest.models.CombinedModel`).
* ``"read-your-writes"`` — each client, taken alone, must observe its own
  acknowledged writes: the client's projection (its ops verbatim, other
  clients' mutators as optional ``maybe`` ops, other clients' reads
  dropped — :func:`~repro.simtest.models.ryw_projection`) must be
  linearizable.  This is the contract a write-through cache actually
  offers under faults that eat invalidations.
* ``"causal"`` — each client's projection (as in RYW) must be explainable
  by a total order respecting that client's *program order* alone, with
  no real-time constraint — i.e. the client may read arbitrarily stale
  prefixes, but never a state that contradicts its own session or the
  write order it has already observed.  Like the sequential mode it is
  not compositional, so each projection searches one combined partition.
  This checker is a sound convictor for causal consistency (anything it
  flags genuinely breaks the session guarantees that causal implies —
  RYW + monotonic reads within the projection), not a complete decision
  procedure for full causal+ semantics across clients.

Algorithm (Wing & Gong 1993, with the standard refinements):

* **Per-key partitioning** (linearizable/RYW modes): operations touching
  disjoint ``partition_key``\\ s commute, so each key is checked
  independently.
* **Configuration key**: a partition's ops are sorted by ``(invoke,
  index)`` once and a search state is ``(int bitmask of remaining ops,
  model state)``; a configuration seen once is never re-explored (the
  memo is what keeps the search sub-exponential on realistic histories).
  Verbs, argument tuples, canonical results and the required mask are
  tabulated per partition, not per step.
* **Maintained frontier**: only operations whose ordering constraint
  allows them may be linearized next, and that set is carried down the
  search instead of being recomputed at every node.  Real-time order: a
  forward-only cursor into the ops-by-completion list, the frontier being
  ``remaining & window[first pending completion]`` with a window holding
  everything invoked no later than (``<=``) that completion.  Program
  order: a ``blocked`` mask from which applying a required op clears the
  (disjoint) set of ops it was the nearest required predecessor of.
* **Maybe ops**: a mutator that failed with a distribution error has an
  open completion time (it constrains nobody) and is *optional* — the
  search may apply it at any point after its invoke, or never.  Its
  result is unconstrained.
* **Candidate order — witnessed first, unwitnessed last**: at each node
  the ops whose outcome the harness recorded (``ok`` in the *recorded*
  history, which includes the foreign acknowledged mutators a projection
  rewrites to ``maybe``) are tried in issue order before any op nobody saw
  complete.  A refutable step before an irrefutable one: a recorded result
  can contradict the model and prune the branch, whereas a timeout always
  applies, never leaves the candidate set, and — tried first — multiplies
  a dead subtree by every ordered subset of the timeouts around it.  The
  order never changes a ``violation``: exhaustion visits the same
  reachable set however it is walked, so that verdict, its
  ``longest_prefix`` and its configuration count are identical by
  construction; only how soon a witness turns up on an admissible
  history moves.

The search is budgeted: pathological histories return verdict
``"unknown"`` rather than hanging CI (``capped=True`` on the result);
``unknown`` proves nothing either way, so a battery that reports one fails.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .history import History, Op, canonical
from .models import CombinedModel, Model, ryw_projection

#: Default cap on memoized configurations explored per partition.
DEFAULT_MAX_NODES = 200_000

#: The checker's consistency modes, strongest first.
CONSISTENCY_MODES = ("linearizable", "sequential", "causal",
                     "read-your-writes")


@dataclass
class Violation:
    """Evidence that one partition's sub-history breaks the checked mode."""

    partition: str
    ops: list[dict]
    longest_prefix: int

    def to_json(self) -> dict:
        """Marshal with stable keys."""
        return {"partition": self.partition, "ops": self.ops,
                "longest_prefix": self.longest_prefix}

    @classmethod
    def from_json(cls, data: dict) -> "Violation":
        """Rebuild from :meth:`to_json` output."""
        return cls(partition=data["partition"], ops=list(data["ops"]),
                   longest_prefix=int(data["longest_prefix"]))


@dataclass
class CheckResult:
    """Outcome of one full history check."""

    ok: bool
    violation: Violation | None = None
    explored: int = 0
    capped: bool = False
    partitions: int = 0

    @property
    def verdict(self) -> str:
        """``"ok"``, ``"violation"``, or ``"unknown"`` (budget exceeded)."""
        if self.capped and self.ok:
            return "unknown"
        return "ok" if self.ok else "violation"


def check_history(history: History, model: Model,
                  max_nodes: int = DEFAULT_MAX_NODES,
                  consistency: str = "linearizable") -> CheckResult:
    """Check a history against a model; returns a :class:`CheckResult`.

    ``consistency`` selects the mode (:data:`CONSISTENCY_MODES`).
    """
    if consistency not in CONSISTENCY_MODES:
        raise ValueError(f"unknown consistency mode {consistency!r}; "
                         f"known: {CONSISTENCY_MODES}")
    ops = history.checkable()
    if consistency == "linearizable":
        batches = [(_by_key(ops, model), model, "realtime")]
    elif consistency == "sequential":
        batches = [({"*": ops}, CombinedModel(model), "program")]
    else:
        projections = ((client, ryw_projection(ops, client, model))
                       for client in sorted({op.client for op in ops}))
        if consistency == "causal":
            batches = (({f"{client}:*": projected}, CombinedModel(model),
                        "program") for client, projected in projections)
        else:
            batches = ((_by_key(projected, model, label=f"{client}:"),
                        model, "realtime")
                       for client, projected in projections)
    # Provenance is read off the *recorded* ops: a projection rewrites
    # other clients' acknowledged mutators to ``maybe`` too.
    unwitnessed = frozenset(op.index for op in ops if op.status == "maybe")
    return _check_batches(batches, max_nodes, unwitnessed)


def _by_key(ops: list[Op], model: Model,
            label: str = "") -> dict[str, list[Op]]:
    """Partition checkable ops by the model's key (labels prefixed)."""
    groups: dict[str, list[Op]] = {}
    for op in ops:
        key = model.partition_key(op.verb, tuple(op.args))
        groups.setdefault(label + repr(key), []).append(op)
    return groups


def _check_batches(batches, max_nodes: int,
                   unwitnessed: frozenset) -> CheckResult:
    """Search every partition of every batch; first violation wins.

    A batch is ``(partition label → ops, model, order)`` — the whole
    history in the linearizable and sequential modes, one client's
    projection in the other two (drawn lazily: a client is projected only
    once every earlier one passed).  ``partitions`` counts every partition
    of the batches reached; ``explored`` and ``capped`` cover the searched.
    """
    result = CheckResult(ok=True)
    for groups, model, order in batches:
        result.partitions += len(groups)
        for key in sorted(groups):
            ops = sorted(groups[key], key=lambda op: (op.invoke, op.index))
            admissible, explored, prefix = _search(ops, model, max_nodes,
                                                   order, unwitnessed)
            result.explored += explored
            if explored >= max_nodes:
                result.capped = True
            if not admissible:
                result.ok = False
                result.violation = Violation(
                    partition=key, ops=[op.to_json() for op in ops],
                    longest_prefix=prefix)
                return result
    return result


def _search(ops: list[Op], model: Model, max_nodes: int, order: str,
            unwitnessed: frozenset) -> tuple[bool, int, int]:
    """DFS over admissible total orders of one partition's operations.

    ``ops`` is sorted by ``(invoke, index)``; bit ``p`` of every mask is
    ``ops[p]``.  ``order`` is the mode's constraint: ``"realtime"`` (an op
    may go next only if nothing pending completed before its invoke) or
    ``"program"`` (an op may go next only if no *required* earlier op of
    the same client is still pending — failed maybe-ops never block their
    session).  ``unwitnessed`` holds the ``index`` of every op nobody saw
    complete; those are tried last at each node.

    Returns ``(admissible, configurations explored, longest prefix of
    required ops ever applied)``.  When the budget is exhausted the history
    is *presumed* admissible (the caller reports ``capped``).
    """
    full = (1 << len(ops)) - 1
    required = witnessed = 0
    for position, op in enumerate(ops):
        if op.status == "ok":
            required |= 1 << position
        if op.index not in unwitnessed:
            witnessed |= 1 << position
    if not required:
        # Nothing is required to have happened: trivially admissible.
        return True, 0, 0
    verbs = [op.verb for op in ops]
    args = [tuple(op.args) for op in ops]
    expected = [canonical(op.result) if op.status == "ok" else None
                for op in ops]
    realtime = order == "realtime"
    if realtime:
        # ``pending[c]`` is the c-th op to complete, ``window[c]`` every op
        # invoked no later than that completion.  The frontier is the
        # window of the first completion still pending; the sentinel past
        # the last one (maybe-ops never complete) admits everything.
        invokes = [op.invoke for op in ops]
        completions = sorted((op.complete, position)
                             for position, op in enumerate(ops)
                             if op.complete is not None)
        pending = [1 << position for _, position in completions] + [-1]
        window = [(1 << bisect_right(invokes, complete)) - 1
                  for complete, _ in completions] + [full]
        aux, todo = 0, window[0]
    else:
        aux, unblocks = _program_order(ops, required)
        todo = full & ~aux

    step = model.step
    total_required = required.bit_count()
    seen: set[tuple[int, object]] = set()
    explored = best_applied = 0
    # A stack frame is a node with candidates left to try: (remaining
    # mask, state, cursor into ``pending`` | blocked mask, candidate mask).
    stack = [(full, model.initial(), aux, todo)]
    while stack:
        remaining, state, aux, todo = stack.pop()
        while todo:
            bit = todo & witnessed or todo
            bit &= -bit
            todo ^= bit
            position = bit.bit_length() - 1
            try:
                result, new_state = step(state, verbs[position],
                                         args[position])
            except Exception:
                continue    # the model rejects this order outright
            if required & bit and canonical(result) != expected[position]:
                continue
            new_remaining = remaining ^ bit
            key = (new_remaining, new_state)
            if key in seen:
                continue
            seen.add(key)
            explored += 1
            unmet = new_remaining & required
            best_applied = max(best_applied,
                               total_required - unmet.bit_count())
            if not unmet or explored >= max_nodes:
                return True, explored, best_applied    # witness, or capped
            if todo:
                stack.append((remaining, state, aux, todo))
            remaining, state = new_remaining, new_state
            if realtime:
                while not remaining & pending[aux]:
                    aux += 1
                todo = remaining & window[aux]
            else:
                aux &= ~unblocks[position]
                todo = remaining & ~aux
    return False, explored, best_applied


def _program_order(ops: list[Op], required: int) -> tuple[int, list[int]]:
    """The program-order frontier tables: ``(blocked, unblocks)``.

    ``blocked`` masks every op with an earlier *required* op of the same
    client; ``unblocks[p]`` masks the ops whose nearest such predecessor is
    ``ops[p]`` (disjoint sets).  Chasing only the nearest one suffices: an
    applied predecessor was itself a candidate once, so its own required
    predecessors were applied first (induction).
    """
    last_required: dict[str, int] = {}
    blocked = 0
    unblocks = [0] * len(ops)
    for position, op in enumerate(ops):
        nearest = last_required.get(op.client)
        if nearest is not None:
            blocked |= 1 << position
            unblocks[nearest] |= 1 << position
        if required >> position & 1:
            last_required[op.client] = position
    return blocked, unblocks
