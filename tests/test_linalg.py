import json

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import _linalg, cli
from rigidkit import transforms as tr

import oracles as oc


def _grid_sphere(k=20):
    """The k x k triangulated grid (edges right, up, up-right), coordinates
    (c, r)/k + 0.01 N(0, 1) from default_rng(0), scaled by 0.3 and centrally
    projected onto the sphere."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
            if c + 1 < k and r + 1 < k:
                edges.append((v, v + k + 1))
    rng = np.random.default_rng(0)
    xy = np.array([(c / k, r / k) for r in range(k) for c in range(k)])
    xy = xy + 0.01 * rng.standard_normal((k * k, 2))
    fw = rk.build_framework(rk.graph(k * k, edges), rk.euclidean(2), xy)
    return rk.geodesic_project(tr.apply_map(tr.affine_map(np.eye(2) * 0.3), fw),
                               rk.spherical(2))


def test_self_stress_space_on_sphere_grid_k20():
    # gesdd fails on this grid's 1200 x 1121 resolution matrix with two or
    # more OpenBLAS threads; the transpose retry must recover it.
    fw = _grid_sphere()
    basis = rk.static_spaces(fw).self_stress_basis
    assert len(basis) == fw.m - (2 * fw.n - 3) == 324
    res = rk.statics.resolution_matrix(fw)
    values = np.array([w.values for w in basis])
    assert np.max(np.abs(res @ values.T)) < 1e-10
    assert np.allclose(values @ values.T, np.eye(len(basis)), atol=1e-10)


def _failing_svd(monkeypatch, failures):
    """Make the first `failures` calls of np.linalg.svd raise LinAlgError."""
    real = np.linalg.svd
    calls = []

    def svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
@pytest.mark.parametrize("full_matrices", [True, False])
def test_svd_retries_on_the_transpose(monkeypatch, shape, full_matrices):
    a = np.random.RandomState(5).standard_normal(shape)
    u0, s0, vt0 = np.linalg.svd(a, full_matrices=full_matrices)
    calls = _failing_svd(monkeypatch, 1)
    u, s, vt = _linalg.svd(a, full_matrices=full_matrices)
    assert calls == [shape, shape[::-1]]
    assert u.shape == u0.shape and vt.shape == vt0.shape
    assert np.allclose(s, s0)
    k = s.size
    assert np.allclose((u[:, :k] * s) @ vt[:k], a)
    assert np.allclose(u.T @ u, np.eye(u.shape[1]))
    assert np.allclose(vt @ vt.T, np.eye(vt.shape[0]))


def test_svd_failing_twice_raises_numerical_error(monkeypatch):
    _failing_svd(monkeypatch, 2)
    with pytest.raises(rk.errors.NumericalError):
        _linalg.spectrum(np.eye(3))


def test_cli_exit_code_2_when_svd_fails_twice(monkeypatch, tmp_path, capsys):
    path = tmp_path / "tri.json"
    assert cli.main(["example", "triangle", "-o", str(path)]) == 0
    _failing_svd(monkeypatch, 2)
    assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT
    assert "did not converge" in capsys.readouterr().err


def test_cli_uses_retry_when_only_first_svd_fails(monkeypatch, tmp_path):
    path = tmp_path / "tri.json"
    assert cli.main(["example", "triangle", "-o", str(path)]) == 0
    _failing_svd(monkeypatch, 1)
    assert cli.main(["analyze", str(path)]) == cli.EXIT_RIGID


def test_spectrum_counts_and_margins():
    a = np.diag([3.0, 1.0, 1e-13])
    spec = _linalg.spectrum(a)
    assert spec.rank == 2
    assert spec.cutoff == pytest.approx(1e-9 * 3.0 * 3)
    assert np.allclose(spec.smallest(2), [1e-13, 1.0])
    empty = _linalg.spectrum(np.zeros((0, 4)))
    assert empty.rank == 0 and np.all(np.isnan(empty.smallest(2)))
    assert _linalg.spectrum(np.zeros((2, 2))).rank == 0


def test_spectrum_nullity_counts_the_columns():
    assert _linalg.spectrum(np.diag([3.0, 1.0, 1e-13])).nullity == 1
    assert _linalg.spectrum(np.zeros((0, 4))).nullity == 4
    assert _linalg.spectrum(np.zeros((2, 2))).nullity == 2
    wide = np.random.RandomState(3).standard_normal((2, 5))
    assert _linalg.spectrum(wide).shape == (2, 5)
    assert _linalg.spectrum(wide).nullity == 3
    assert _linalg.spectrum(wide.T).nullity == 0


def test_column_space_spans_the_columns():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    basis = _linalg.column_space(a, _linalg.spectrum(a).rank)
    assert basis.shape == (3, 1)
    assert np.allclose(basis @ basis.T @ a, a)
    assert _linalg.column_space(np.zeros((0, 0)), 0).shape == (0, 0)


def test_entries_matvec_is_the_dense_product(rng):
    from rigidkit import statics
    fw = rk.gallery.fixture("prism3-generic").framework
    entries = statics.resolution_entries(fw)
    w = rng.standard_normal(fw.m)
    assert np.allclose(entries.matvec(w), entries.toarray() @ w, rtol=0, atol=1e-14)
    empty = _linalg.Entries(np.zeros(0, int), np.zeros(0, int), np.zeros(0), (3, 0))
    out = empty.matvec(np.zeros(0))
    assert out.dtype == float and np.array_equal(out, np.zeros(3))


def test_compact_is_np_unique(rng):
    for size, count in ((1, 5), (50, 20), (50, 400), (7, 0)):
        index = rng.randint(0, size, count)
        values, inverse = _linalg._compact(index, size)
        reference = np.unique(index, return_inverse=True)
        assert np.array_equal(values, reference[0])
        assert np.array_equal(inverse, reference[1])


def test_zero_rows_do_not_move_the_rank():
    a = np.diag([1.0, 5e-9, 1e-20])
    padded = np.vstack([a, np.zeros((9, 3))])
    assert _linalg.spectrum(padded).rank == _linalg.spectrum(a).rank == 2
    assert _linalg.nullspace(padded, _linalg.spectrum(padded).rank).shape == (1, 3)


@pytest.mark.parametrize("x0, code", [(7693, cli.EXIT_RIGID), (1e5, cli.EXIT_INPUT),
                                      (1e9, cli.EXIT_INPUT)])
def test_badly_scaled_framework_has_one_dof_count(tmp_path, x0, code, capsys):
    # prism3-concurrent scaled by 0.2 with vertex 0 moved to x = x0.  At 7693
    # the operator and the resolution matrix (its transpose plus zero rows)
    # share their smallest singular value 2.77e-4, which fell between their
    # two cutoffs when the zero rows counted in max(m, n).  From about 1e5 the
    # kinematic and static rank decisions disagree outright (dof 1 vs 2, and
    # 8 vs 13 at 1e9): no verdict, exit 2 instead of a traceback.
    doc = rk.gallery.fixture("prism3-concurrent")
    data = rk.framework_to_dict(doc.framework)
    data["vertices"] = [[0.2 * x, 0.2 * y] for x, y in data["vertices"]]
    data["vertices"][0][0] = x0
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    assert cli.main(["analyze", str(path)]) == code
    if code == cli.EXIT_INPUT:
        assert "rank decisions disagree" in capsys.readouterr().err


#: Map 45 of test_criterion_02_projective_invariance's sequence on
#: prism3-concurrent; it sends vertex 2 to (31631.83, -26597.26).
_FAR_PROJECTIVE = [[-0.6324467781513172, -0.02820137792128181, -0.37256345585654677],
                   [0.29933415367566985, -1.9566617070880181, -1.7806863894598102],
                   [0.7386220088782393, -0.4937262287964043, -2.285498589046725]]


@pytest.mark.parametrize("tol", ["1e-8", "1e-9", "1e-10"])
def test_analyze_refuses_a_far_projective_image(tmp_path, tol, capsys):
    # On these float coordinates the rational oracle finds dim V = 3 and
    # Killing rank 3: the framework is rigid, and no numerical verdict is
    # the right answer.  In E the duality check compares the equilibrium
    # stack with the Killing matrix, not with the rigidity operator, whose
    # rank both sides share: the stack has a value of 5.9e-5 under its
    # cutoff of 7.4e-4, the Killing values are 4.1e4, 2.45 and 2.24.
    # Deciding dim F on B_T alone (ROADMAP item 13), which is -K in E,
    # would make the two sides agree and turn this refusal into "flexible".
    fw = rk.apply_projective(rk.gallery.fixture("prism3-concurrent").framework,
                             np.array(_FAR_PROJECTIVE))
    assert oc.rational_motion_dim(fw) == 3 and oc.rational_killing_rank(fw) == 3
    path = tmp_path / "far.json"
    path.write_text(json.dumps(rk.framework_to_dict(fw)))
    assert cli.main(["analyze", str(path), "--tol", tol]) == cli.EXIT_INPUT
    assert "kinematic dof 1 != static dof 2" in capsys.readouterr().err


def test_an_out_of_memory_dense_fallback_is_a_numerical_error(monkeypatch):
    # Neither stand-in allocates: the MemoryError comes before any work.
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "svd", no_memory)
    with pytest.raises(rk.errors.NumericalError, match="SVD of a 4 x 3 matrix"):
        _linalg.svd(np.ones((4, 3)), compute_uv=False)
    monkeypatch.undo()
    monkeypatch.setattr(_linalg.Entries, "toarray", no_memory)
    entries = _linalg.Entries(np.arange(3), np.arange(3), np.ones(3), (5, 3))
    with pytest.raises(rk.errors.NumericalError, match="SVD of a 5 x 3 matrix"):
        _linalg.spectrum(entries)
