"""The sparse rank decisions of `_linalg.spectrum` (shift-invert Lanczos on
the small side of a large matrix) and their dense fallback.

Lowering `SPARSE_MIN_SIDE` to 0 sends every matrix whose smaller side is at
least 2 to the sparse path; each count, verdict and exit code must then be
the dense path's, and the rational oracles'.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import _linalg, cli, statics
from rigidkit import transforms as tr

import oracles as oc
from conftest import scaled_into_chart
from test_acceptance import _criterion_01_frameworks

DENSE_ONLY = 10**9
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def grid(k, kind="E"):
    """The k x k triangulated grid (edges right, up, up-right) at
    (c, r)/k + 0.01 N(0, 1) from default_rng(0); on S/H shrunk by 0.3 and
    centrally projected."""
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
    fw = rk.build_framework(rk.graph(k * k, edges), rk.euclidean(2),
                            xy + 0.01 * rng.standard_normal((k * k, 2)))
    if kind == "E":
        return fw
    return rk.geodesic_project(tr.apply_map(tr.affine_map(np.eye(2) * 0.3), fw),
                               rk.Space(rk.SpaceKind(kind), 2))


def _recording_spectra(monkeypatch):
    """Make `_linalg.spectrum` append each Spectrum it returns to a list: the
    operator, Killing and equilibrium spectra of an analysis, then off E the
    resolution spectrum (in E the resolution rank is the operator's)."""
    spectra = []
    real = _linalg.spectrum

    def spectrum(a, tol=_linalg.RANK_TOL):
        spectra.append(real(a, tol))
        return spectra[-1]

    monkeypatch.setattr(_linalg, "spectrum", spectrum)
    return spectra


def _report(fw, monkeypatch, gate):
    """analyze's report of `fw` (None for no verdict) and its spectra, with
    the size gate at `gate`."""
    monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", gate)
    spectra = _recording_spectra(monkeypatch)
    try:
        report = cli.analyze_framework(fw).to_dict()
    except rk.errors.NumericalError:
        report = None
    monkeypatch.undo()
    return report, spectra


def _same_verdicts(dense, sparse, cutoff):
    """Every key but smallest_sigma equal; each smallest_sigma entry above the
    operator cutoff within 1e-8 relative of dense, each one at or below it
    under cutoff/100."""
    assert {k: v for k, v in dense.items() if k != "smallest_sigma"} == \
        {k: v for k, v in sparse.items() if k != "smallest_sigma"}
    for x, y in zip(dense["smallest_sigma"], sparse["smallest_sigma"]):
        if x is None:
            assert y is None
        elif x > cutoff:
            assert abs(x - y) <= 1e-8 * x
        else:
            assert y < cutoff / 100


def _gallery_and_images():
    for name in rk.gallery.GALLERY_NAMES:
        fw = rk.gallery.fixture(name).framework
        yield name, fw
        if fw.dim == 2:
            for target in (rk.spherical(2), rk.hyperbolic(2)):
                yield "%s %s" % (name, target), rk.geodesic_project(
                    scaled_into_chart(fw), target)


def test_sparse_path_matches_dense_and_oracles_on_small_frameworks(monkeypatch):
    gallery = list(_gallery_and_images())
    frameworks = gallery + list(_criterion_01_frameworks())[len(rk.gallery.GALLERY_NAMES):]
    exact = set(rk.gallery.EXACT_RATIONAL) | {label for label, _ in frameworks[len(gallery):]}
    sparse_decisions = 0
    for label, fw in frameworks:
        dense, dense_spectra = _report(fw, monkeypatch, DENSE_ONLY)
        sparse, spectra = _report(fw, monkeypatch, 0)
        assert (dense is None) == (sparse is None), label
        if dense is None:
            continue
        _same_verdicts(dense, sparse, dense_spectra[0].cutoff)
        sparse_decisions += sum(s.method == "sparse" for s in spectra)
        if label not in exact:
            continue
        assert dense["dim_F"] == oc.rational_equilibrium_dim(fw), label
        if fw.space.is_euclidean:  # exact elimination is slow on S/H floats
            assert dense["dim_V"] == oc.rational_motion_dim(fw), label
            assert dense["dim_V0"] == oc.rational_killing_rank(fw), label
            assert dense["self_stress_count"] == oc.rational_self_stress_dim(fw), label
    assert sparse_decisions > len(frameworks)


def test_sparse_path_exit_codes_match_dense_on_the_gallery(monkeypatch, tmp_path, capsys):
    for label, fw in _gallery_and_images():
        path = tmp_path / "fw.json"
        path.write_text(json.dumps(rk.framework_to_dict(fw)))
        outputs = []
        for gate in (DENSE_ONLY, 0):
            monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", gate)
            code = cli.main(["analyze", str(path)])
            outputs.append((code, capsys.readouterr().out.splitlines()[:3]))
        assert outputs[0] == outputs[1], label


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_grids_take_the_sparse_path_with_the_dense_counts(kind, monkeypatch):
    fw = grid(20, kind)
    sparse, spectra = _report(fw, monkeypatch, _linalg.SPARSE_MIN_SIDE)
    assert [s.method for s in spectra] == ["sparse", "dense", "sparse"] + (
        [] if kind == "E" else ["sparse"])
    assert all(s.partial == (s.method == "sparse") for s in spectra)
    assert sparse["rigid"] and sparse["kinematic_dof"] == sparse["static_dof"] == 0
    assert sparse["dim_V0"] == 3
    assert sparse["self_stress_count"] == fw.m - (2 * fw.n - 3) == 324
    dense, dense_spectra = _report(fw, monkeypatch, DENSE_ONLY)
    _same_verdicts(dense, sparse, dense_spectra[0].cutoff)
    for s, d in zip(spectra, dense_spectra):
        assert (s.rank, s.shape) == (d.rank, d.shape)
        assert abs(s.cutoff - d.cutoff) <= 1e-12 * d.cutoff
        if s.partial:
            # sigma_max, then the low end: the smallest value above the cutoff
            # is the dense one, those below it sit under cutoff/100
            low = s.values[:0:-1]
            assert abs(s.values[0] - d.values[0]) <= 1e-12 * d.values[0]
            above = d.values[d.rank - 1]
            assert abs(low[low > d.cutoff][0] - above) <= 1e-8 * above
            assert np.all(low[low <= d.cutoff] < d.cutoff / 100)


def test_the_euclidean_resolution_spectrum_is_the_operators():
    # In E the resolution matrix is -R^T plus n zero rows, so the spectrum
    # static_spaces takes from the operator R must be the one the resolution
    # matrix gets when decided itself (the reference): the same bits on the
    # sparse path, whose Gram matrices are the same, and equal to roundoff on
    # the dense path, whose SVDs factor R and -R^T.
    frameworks = [(name, rk.gallery.fixture(name).framework)
                  for name in rk.gallery.GALLERY_NAMES]
    frameworks = [(label, fw) for label, fw in frameworks if fw.space.is_euclidean]
    methods = set()
    for label, fw in frameworks + [("grid 20", grid(20))]:
        reference = _linalg.spectrum(statics.resolution_entries(fw))
        operator = rk.motion_spaces(fw).operator
        for spec in (statics.static_spaces(fw).resolution,
                     statics.static_spaces(fw, operator=operator).resolution):
            assert (spec.rank, spec.method) == (reference.rank, reference.method), label
            assert spec.values.shape == reference.values.shape, label
            if spec.method == "sparse":
                assert np.array_equal(spec.values, reference.values), label
                assert spec.cutoff == reference.cutoff, label
            else:
                assert np.all(np.abs(spec.values - reference.values)
                              <= 1e-14 * reference.values[0]), label
                assert abs(spec.cutoff - reference.cutoff) <= 1e-14 * reference.cutoff, label
            assert spec.nullity == fw.m - spec.rank == reference.nullity, label
            methods.add(spec.method)
    assert methods == {"dense", "sparse"}


def test_static_spaces_on_the_n900_grid_fill_no_dense_matrix():
    pytest.importorskip("scipy.sparse.linalg")
    fw = grid(30)
    statics.static_spaces(fw)  # warm: scipy imported, the graph's arrays cached
    tracemalloc.start()
    try:
        statics.static_spaces(fw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # one dense n x n(d+1) tangency block alone is 19 MB


@pytest.mark.parametrize("factor, method", [(1e3, "sparse"), (2.0, "dense"), (0.5, "dense")])
def test_a_singular_value_near_the_cutoff_goes_to_the_dense_svd(factor, method):
    # 400 x 320 with sigma_max = 1, three zero singular values and the fourth
    # smallest at `factor` times the cutoff 1e-9 * 1 * 400
    rng = np.random.RandomState(3)
    u = np.linalg.qr(rng.standard_normal((400, 320)))[0]
    v = np.linalg.qr(rng.standard_normal((320, 320)))[0]
    s = np.linspace(1.0, 0.1, 320)
    s[-4:] = [factor * 4e-7, 0.0, 0.0, 0.0]
    spec = _linalg.spectrum((u * s) @ v.T)
    assert spec.method == method
    assert spec.rank == (317 if factor > 1 else 316)


def _grid_file(tmp_path, k=18):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(rk.framework_to_dict(grid(k))))
    return path


def test_sparse_output_is_the_same_bytes_every_run(tmp_path, capsys):
    path = _grid_file(tmp_path)
    outputs = []
    for _ in range(2):
        assert cli.main(["analyze", str(path), "--json"]) == cli.EXIT_RIGID
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# --- fallback ------------------------------------------------------------------

def _analyze_dense_fallback(path, monkeypatch, capsys, argv=()):
    """analyze --json on `path`: its exit code and report, and the methods of
    the spectra decided on the way."""
    spectra = _recording_spectra(monkeypatch)
    code = cli.main(["analyze", str(path), "--json", *argv])
    monkeypatch.undo()
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None, [s.method for s in spectra]


def _dense_reference(path, monkeypatch, capsys, argv=()):
    monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", DENSE_ONLY)
    code = cli.main(["analyze", str(path), "--json", *argv])
    monkeypatch.undo()
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("error", ["no-convergence", "arpack-error"])
def test_arpack_failure_falls_back_to_dense(error, tmp_path, monkeypatch, capsys):
    from scipy.sparse import linalg as sla

    path = _grid_file(tmp_path)
    expected = _dense_reference(path, monkeypatch, capsys)

    def eigsh(*args, **kwargs):
        if error == "no-convergence":
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        raise sla.ArpackError(-9999)

    monkeypatch.setattr(sla, "eigsh", eigsh)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys)
    assert methods == ["dense"] * 3
    assert (code, report) == expected
    assert code in (0, 10, 2, 3)


def test_missing_scipy_falls_back_to_dense(tmp_path, monkeypatch, capsys):
    path = _grid_file(tmp_path)
    expected = _dense_reference(path, monkeypatch, capsys)
    monkeypatch.setitem(sys.modules, "scipy.sparse.linalg", None)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys)
    assert methods == ["dense"] * 3
    assert (code, report) == expected


def test_tolerance_below_the_squaring_floor_falls_back_to_dense(tmp_path, monkeypatch,
                                                                capsys):
    path = _grid_file(tmp_path)
    argv = ("--tol", "1e-14")
    expected = _dense_reference(path, monkeypatch, capsys, argv)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys, argv)
    assert methods == ["dense"] * 3
    assert (code, report) == expected
    assert code in (0, 10, 2, 3)


def test_analyze_below_the_size_gate_never_imports_scipy(tmp_path):
    small = oc.random_framework(np.random.RandomState(7), rk.euclidean(3), 12)
    paths = [tmp_path / "prism.json", tmp_path / "small.json"]
    paths[0].write_text(json.dumps(rk.framework_to_dict(
        rk.gallery.fixture("prism3-concurrent").framework)))
    paths[1].write_text(json.dumps(rk.framework_to_dict(small)))
    script = (
        "import sys\n"
        "from rigidkit.cli import main\n"
        "codes = [main(['analyze', p, '--json']) for p in sys.argv[1:]]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].endswith(" []")
    assert out.splitlines()[-1].startswith("[10, ")


# --- tangent frames ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["E", "S", "H"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tangent_frames_keep_the_singular_values(kind, d):
    rng = np.random.RandomState(100 * d + ord(kind))
    for n in (4, 7, 10):
        fw = oc.random_framework(rng, rk.Space(rk.SpaceKind(kind), d), n)
        ambient = np.linalg.svd(statics.resolution_matrix(fw), compute_uv=False)
        framed = statics.resolution_entries(fw, frames=True)
        assert framed.shape == (n * d, fw.m)
        framed = np.linalg.svd(framed.toarray(), compute_uv=False)
        assert np.max(np.abs(ambient[:framed.size] - framed)) <= 1e-14 * ambient[0]
        assert np.all(ambient[framed.size:] <= 1e-14 * ambient[0])


def test_a_force_off_its_tangent_space_is_an_internal_error(monkeypatch):
    fw = rk.geodesic_project(scaled_into_chart(rk.gallery.fixture("prism3-generic").framework),
                             rk.spherical(2))
    real = statics.edge_factors
    monkeypatch.setattr(statics, "edge_factors", lambda fw: (real(fw)[0], real(fw)[1] + 1e-6))
    with pytest.raises(rk.errors.InternalInvariantError):
        statics.static_spaces(fw)


def test_points_off_the_model_within_its_tolerance_are_not_an_internal_error():
    fw = rk.geodesic_project(scaled_into_chart(rk.gallery.fixture("prism3-generic").framework),
                             rk.spherical(2))
    off = rk.build_framework(fw.graph, fw.space, fw.coords * (1 + 4e-10))
    assert statics.static_spaces(off).static_dof == statics.static_spaces(fw).static_dof
