"""Property: derivation and conformance agree for any signature.

Fails at the parent of PR 22 on the first receiver not spelled ``self``
(and on the first real parameter that is).
"""

import inspect
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iface.conformance import check_implements
from repro.iface.interface import Interface
from repro.kernel.errors import ConformanceError

RECEIVERS = ("self", "this", "_", "s")
NAMES = ("a", "b", "key", "self")
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY,
              inspect.Parameter.POSITIONAL_OR_KEYWORD)


@st.composite
def method_sources(draw, verb):
    """Source of one ``@operation`` method: a receiver, zero to three
    positional parameters (a suffix of them defaulted, one possibly named
    ``self``), then the parameters that never count."""
    receiver = draw(st.sampled_from(RECEIVERS))
    names = draw(st.lists(
        st.sampled_from([n for n in NAMES if n != receiver]),
        max_size=3, unique=True))
    defaulted = draw(st.integers(0, len(names)))
    params = [receiver] + [
        name + ("=None" if index >= len(names) - defaulted else "")
        for index, name in enumerate(names)]
    if draw(st.booleans()):     # some leading run is positional-only
        params.insert(draw(st.integers(1, len(params))), "/")
    if draw(st.booleans()):
        params.append("*rest")
    if draw(st.booleans()):
        params.append("only=0" if "*rest" in params else "*, only=0")
    if draw(st.booleans()):
        params.append("**options")
    return (f"    @operation\n"
            f"    def {verb}({', '.join(params)}):\n"
            f"        return None\n")


@st.composite
def class_sources(draw):
    verbs = draw(st.lists(st.sampled_from(("get", "put", "scan", "drop")),
                          min_size=1, max_size=4, unique=True))
    return "class K:\n" + "".join(
        draw(method_sources(verb)) for verb in verbs)


@settings(max_examples=200, deadline=None)
@given(class_sources())
def test_derivation_and_conformance_agree(source):
    scope = {}
    exec("from repro.iface.interface import operation\n" + source, scope)
    iface, obj = Interface.of(scope["K"]), scope["K"]()
    for verb, op in iface.operations.items():
        called = inspect.signature(getattr(obj, verb)).parameters.values()
        assert op.params == tuple(
            p.name for p in called if p.kind in POSITIONAL)
    check_implements(obj, iface)
    wider = Interface("Wider", [replace(op, params=op.params + ("extra",))
                                for op in iface.operations.values()])
    with pytest.raises(ConformanceError, match="interface declares"):
        check_implements(obj, wider)
