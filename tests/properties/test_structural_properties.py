"""Property tests on structural machinery: conformance, views, composite
equivalence, persistence capsules."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps.kv import KVStore
from repro.core.export import get_space
from repro.iface.conformance import conforms
from repro.iface.interface import Interface, Operation
from repro.naming.bootstrap import install_name_service

# -- random interfaces ----------------------------------------------------------

op_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
operations = st.builds(
    Operation,
    name=op_names,
    params=st.lists(st.sampled_from(["a", "b", "c"]),
                    max_size=3, unique=True).map(tuple),
    readonly=st.booleans(),
)


@st.composite
def interfaces(draw):
    ops = draw(st.lists(operations, min_size=1, max_size=5,
                        unique_by=lambda op: op.name))
    name = draw(st.sampled_from(["I", "J", "K"]))
    return Interface(name, ops)


@settings(max_examples=100, deadline=None)
@given(interfaces())
def test_conformance_is_reflexive(iface):
    assert conforms(iface, iface)


@settings(max_examples=100, deadline=None)
@given(interfaces(), interfaces(), interfaces())
def test_conformance_is_transitive(a, b, c):
    if conforms(a, b) and conforms(b, c):
        assert conforms(a, c)


@settings(max_examples=100, deadline=None)
@given(interfaces())
def test_subset_view_always_conformed_to(iface):
    """Every interface conforms to any view made of its own operations."""
    names = sorted(iface.operations)[:max(1, len(iface.operations) // 2)]
    view = Interface("View", [iface.operation(name) for name in names])
    assert conforms(iface, view)


# -- composite equivalence ---------------------------------------------------------

SCRIPT_KEYS = ["k0", "k1", "k2"]
scripts = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(SCRIPT_KEYS),
                  st.integers(0, 9)),
        st.tuples(st.just("get"), st.sampled_from(SCRIPT_KEYS)),
    ),
    max_size=25,
)


def _observe(proxy, script):
    out = []
    for step in script:
        if step[0] == "put":
            proxy.put(step[1], step[2])
        else:
            out.append(proxy.get(step[1]))
    return out


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts)
def test_composite_equals_plain_stack(script):
    """stub∘caching observes exactly what plain caching observes."""
    def build(policy, config):
        system = repro.make_system(seed=3)
        server = system.add_node("s").create_context("m")
        client = system.add_node("c").create_context("m")
        install_name_service(server)
        store = KVStore()
        get_space(server).export(store, policy=policy, config=config)
        repro.register(server, "kv", store)
        return repro.bind(client, "kv")

    plain = build("caching", {"invalidation": True})
    stacked = build("composite",
                    {"layers": ["stub", "caching"],
                     "layer_configs": {"caching": {"invalidation": True}}})
    assert _observe(plain, script) == _observe(stacked, script)


# -- persistence capsules --------------------------------------------------------------

kv_states = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.text(max_size=16), st.booleans()),
    max_size=10,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(state=kv_states)
def test_checkpoint_recover_roundtrips_any_state(state):
    from repro.persistence import PersistenceManager, crash_node, recover_context
    system = repro.make_system(seed=4)
    server = system.add_node("s").create_context("m")
    client = system.add_node("c").create_context("m")
    install_name_service(server)
    store = KVStore()
    store.data.update(state)
    repro.register(server, "kv", store)
    proxy = repro.bind(client, "kv")
    PersistenceManager(get_space(server)).checkpoint(store)
    crash_node(server.node)
    server.node.restart()
    recover_context(server)
    for key, value in state.items():
        assert proxy.get(key) == value
    repro.assert_principle(system)
