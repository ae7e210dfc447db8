"""The benchmark's traced runs find rigidkit's layers by function name.

`perfbench/spans.py` wraps every public module-level function of rigidkit's
modules and reads its per-layer metrics from fixed span names; a renamed
function makes its metric read 0 without any error.  This pins the names
the per-layer metrics are built from, and the methods it wraps by name.
"""

import importlib.util
import inspect
import os

import pytest

import rigidkit.cli  # noqa: F401  (every traced module is imported)
from rigidkit import statics

from test_sparse import grid

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

#: span names, `module.function`, that the per-layer metrics read
METRIC_SPANS = (
    "kinematics.rigidity_operator",
    "statics.resolution_matrix",
    "statics.bivector_map_matrix",
    "frameworks.build_framework",
    "frameworks.load_framework",
    "graphs.is_3_connected",
)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_metric_spans_are_module_level_functions():
    tracer = _spans().Tracer()
    tracer.install()
    try:
        for name in METRIC_SPANS:
            module, func = name.split(".")
            wrapped = getattr(getattr(rigidkit, module), func)
            assert name in tracer.names
            assert inspect.isfunction(wrapped.__wrapped__)
            assert wrapped.__wrapped__.__module__ == "rigidkit." + module
    finally:
        tracer.uninstall()
    for name in METRIC_SPANS:
        module, func = name.split(".")
        assert not hasattr(getattr(getattr(rigidkit, module), func), "__wrapped__")


def test_traced_methods_exist():
    # `Tracer.install` wraps these by name; a missing one crashes a traced run
    for module, cls, method in _spans().TRACED_METHODS:
        assert inspect.isfunction(getattr(getattr(getattr(rigidkit, module), cls), method))


@pytest.mark.parametrize("kind", ["E", "H"])
def test_analyze_assembles_the_bivector_map_once(kind, monkeypatch):
    # `statics.bivector_s` times the static side through this one span: the
    # equilibrium spectrum must build the bivector map by calling it, once
    calls = []
    real = statics.bivector_map_matrix

    def bivector_map_matrix(fw):
        calls.append(fw)
        return real(fw)

    monkeypatch.setattr(statics, "bivector_map_matrix", bivector_map_matrix)
    for fw in (rigidkit.gallery.fixture("prism3-generic").framework, grid(20, kind)):
        del calls[:]
        rigidkit.cli.analyze_framework(fw)
        assert len(calls) == 1
