"""The shipped search against the reference it replaced.

``reference_search.py`` is the pre-PR-18 ``_search`` verbatim.  Both are
exhaustive and memoised, so whatever order they try candidates in they must
agree on every verdict, on the ``Violation`` (``longest_prefix`` is a
maximum over the whole reachable set) and — when the history is
inadmissible — on the number of configurations.  What the shipped one is
allowed to change is how soon it finds a witness; the pins at the bottom
hold it to that.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from repro.simtest import checker
from repro.simtest.checker import CONSISTENCY_MODES, check_history
from repro.simtest.history import Op, canonical
from repro.simtest.models import MODELS, CombinedModel
from repro.simtest.runner import build_case, execute
from repro.simtest.workload import AUDIT_ONLY_POLICIES, FAULT_MENUS

#: The reference's budget in the sweep: enough for all but a handful of
#: the 560 checks, small enough that the handful costs tier-1 little.
REFERENCE_BUDGET = 20_000


def _reference(ops, model, max_nodes, order, unwitnessed):
    """The reference behind the shipped search's signature."""
    return reference_search._search(ops, model, max_nodes, order)


@pytest.mark.parametrize(
    "policy", [p for p in FAULT_MENUS if p not in AUDIT_ONLY_POLICIES])
def test_battery_verdicts_match_the_reference(policy, monkeypatch):
    compared = 0
    for seed in range(10):
        case = build_case(seed, policy, ops=24)
        history, _ = execute(case)
        model = MODELS[case.service]()
        for mode in CONSISTENCY_MODES:
            with monkeypatch.context() as patched:
                patched.setattr(checker, "_search", _reference)
                expected = check_history(history, model, REFERENCE_BUDGET,
                                         consistency=mode)
            if expected.capped:
                continue    # a capped reference proves nothing
            compared += 1
            actual = check_history(history, model, consistency=mode)
            where = f"{policy} seed {seed} {mode}"
            assert actual.verdict == expected.verdict, where
            assert actual.partitions == expected.partitions, where
            assert (actual.violation and actual.violation.to_json()) == \
                (expected.violation and expected.violation.to_json()), where
    assert compared >= 30, "the reference capped on nearly everything"


CLIENTS = ("a", "b", "c")

#: Per :data:`MODELS` name: ``(verb, args)`` draws over a domain small
#: enough to collide.
CALLS = {
    "kv": st.one_of(
        st.tuples(st.just("put"), st.tuples(st.sampled_from("xy"),
                                            st.integers(1, 2))),
        st.tuples(st.sampled_from(("get", "delete", "contains")),
                  st.tuples(st.sampled_from("xy")))),
    "counter": st.one_of(
        st.tuples(st.sampled_from(("incr", "decr")),
                  st.tuples(st.integers(1, 2))),
        st.tuples(st.sampled_from(("read", "reset")), st.just(()))),
    "queue": st.one_of(
        st.tuples(st.just("submit"), st.tuples(st.sampled_from("tu"))),
        st.tuples(st.just("take"), st.tuples(st.sampled_from(CLIENTS))),
        st.tuples(st.just("ack"), st.tuples(st.integers(1, 3))),
        st.tuples(st.sampled_from(("depth", "stats")), st.just(()))),
}

#: Results a corrupted op may claim (mostly refutable, sometimes not).
WRONG = st.sampled_from((None, True, False, 0, 1, 2, 3, [1, "t"]))


@st.composite
def partitions(draw):
    """One partition's ops plus the model, order and unwitnessed set.

    Each client issues its ops back to back on an integer clock (ties
    exercise the ``<=`` rule); clients overlap freely.  Results come from
    replaying the model at a point inside each op's interval — so most
    histories are admissible until a drawn corruption claims otherwise —
    and a ``maybe`` op is either one nobody saw complete or, like a
    projected foreign write, a witnessed one.
    """
    name = draw(st.sampled_from(sorted(CALLS)))
    order = draw(st.sampled_from(("realtime", "program")))
    model = CombinedModel(MODELS[name]())
    clock = dict.fromkeys(CLIENTS, 0)
    drafts = []
    for _ in range(draw(st.integers(1, 9))):
        client = draw(st.sampled_from(CLIENTS))
        verb, args = draw(CALLS[name])
        invoke = clock[client] + draw(st.integers(0, 2))
        clock[client] = complete = invoke + draw(st.integers(0, 4))
        maybe = verb not in model.readonly_verbs and draw(st.booleans())
        drafts.append({
            "client": client, "verb": verb, "args": args, "invoke": invoke,
            "complete": complete, "maybe": maybe, "result": None,
            "took_effect": not maybe or draw(st.booleans()),
            "witnessed": not maybe or draw(st.booleans()),
            "point": draw(st.integers(invoke, complete + 3 * maybe))})
    state = model.initial()
    for draft in sorted(drafts, key=lambda d: d["point"]):
        if draft["took_effect"]:
            draft["result"], state = model.step(state, draft["verb"],
                                                draft["args"])
    ops = []
    for index, draft in enumerate(sorted(drafts, key=lambda d: d["invoke"])):
        result = draft["result"]
        if not draft["maybe"] and draw(st.integers(0, 9)) == 0:
            result = draw(WRONG)
        ops.append(Op(
            index=index, client=draft["client"], verb=draft["verb"],
            args=list(draft["args"]), invoke=float(draft["invoke"]),
            complete=None if draft["maybe"] else float(draft["complete"]),
            status="maybe" if draft["maybe"] else "ok",
            result=None if draft["maybe"] else canonical(result)))
        draft["index"] = index
    unwitnessed = frozenset(draft["index"] for draft in drafts
                            if not draft["witnessed"])
    if order == "realtime":
        # Production searches real-time order one key at a time.
        model = model.base
        if name == "kv":
            ops = [op for op in ops if op.args[0] == "x"]
    return ops, model, order, unwitnessed


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_random_partitions_match_the_reference(drawn):
    ops, model, order, unwitnessed = drawn
    unbounded = 10 ** 9
    expected = reference_search._search(ops, model, unbounded, order)
    actual = checker._search(ops, model, unbounded, order, unwitnessed)
    assert (actual[0], actual[2]) == (expected[0], expected[2])
    if not expected[0]:
        assert actual[1] == expected[1], "exhaustion visits one set"


def _check(seed, policy, ops):
    case = build_case(seed, policy, ops=ops)
    history, _ = execute(case)
    return check_history(history, MODELS[case.service]())


def test_unwitnessed_timeouts_no_longer_dominate_the_battery():
    # Ten timeouts against a crashed queue server, none of which the
    # witness needs: 78 631 configurations in issue order.
    result = _check(3, "caching", 24)
    assert result.verdict == "ok"
    assert result.explored <= 1_000


@pytest.mark.parametrize("seed", [15, 19])
def test_linearizable_histories_settle_at_the_default_op_count(seed):
    # Both exhausted the 200 000-node budget in issue order.
    assert _check(seed, "caching", 30).verdict == "ok"
