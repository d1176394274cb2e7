"""The names ``benchmarks/perf`` reaches into ``src/repro`` by.

``perf_spans.py`` wraps each layer's entry points with ``vars(owner)[attr]``
and ``perf_workloads.py`` imports two marshaller helpers; a rename in
``src/repro`` breaks the benchmark, not the program.  Held here so it
fails in tier-1 rather than in the benchmark's smoke run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"

_spec = importlib.util.spec_from_file_location(
    "perf_spans_contract", PERF / "perf_spans.py")
perf_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_spans)

WRAPPED = [(layer, module, klass, attr)
           for layer, rows in perf_spans.LAYER_MAP.items()
           for module, klass, attrs in rows
           for attr in attrs]


@pytest.mark.parametrize("layer, module, klass, attr", WRAPPED)
def test_layer_map_name_resolves(layer, module, klass, attr):
    owner = importlib.import_module(module)
    if klass:
        owner = getattr(owner, klass)
    assert attr in vars(owner), \
        f"{layer}: {module}.{klass or ''}.{attr} is not defined on its owner"


@pytest.mark.parametrize("module, klass", perf_spans.APP_CLASSES)
def test_app_class_imports(module, klass):
    assert isinstance(getattr(importlib.import_module(module), klass), type)


def test_capture_keys_are_layer_map_names():
    labels = {f"{layer}.{klass}.{attr}"
              for layer, _module, klass, attr in WRAPPED if klass}
    assert set(perf_spans._CAPTURE) <= labels


def test_marshal_offers_what_the_workloads_import():
    from repro.wire.marshal import clear_memos, memo_stats
    assert callable(clear_memos)
    assert "max_entries" in memo_stats()
