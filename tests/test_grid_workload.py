"""The benchmark's `grid-analyze` workload, run through its own output check.

`perfbench/workloads.py` is loaded read-only, as `test_span_names.py` loads
`spans.py`: its grids are written to a temporary directory, each goes
through `analyze --json` on `rigidkit.cli.main`, and `GridAnalyze.check`
judges the output.  Each of these rank decisions is made on one SuperLU
factor and no ARPACK call (the cutoff's bracket, certified by the Killing
columns); a change that brings a Lanczos call back onto them fails here.
"""

import importlib.util
import os

import pytest

from test_sparse import _counting_eigsh, _counting_solves

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_grid_analyze_passes_its_check_on_one_factor_and_no_lanczos(tmp_path, monkeypatch):
    pytest.importorskip("scipy.sparse.linalg")
    workloads = _workloads()
    workload = workloads.GridAnalyze()
    inputs = workload.make_inputs(1, str(tmp_path))
    assert [inp.name for inp in inputs] == ["grid-E-k20", "grid-S-k20", "grid-H-k20",
                                            "grid-E-k30"]
    factors = _counting_solves(monkeypatch)
    eigsh_calls = _counting_eigsh(monkeypatch)
    for inp in inputs:
        del factors[:], eigsh_calls[:]
        out = workload.run(inp, str(tmp_path), "test")
        assert workloads.check(workload, inp, out, None) == (None, None), inp.name
        assert (len(factors), eigsh_calls) == (1, []), inp.name
