"""The sparse rank decisions of `_linalg.spectrum` (on the Gram matrix G of
the small side of a large matrix: a banded Cholesky certificate on G without
pinned coordinates where the operator's Killing columns certify its null
values, else an inertia count, the negative pivots of one symmetric LDL^T
factorization of G - c^2 I, c the cutoff; the two smallest singular values
are bounded by the Killing columns where they certify two null values, else
read by shift-invert Lanczos on a second factor) and their dense fallback.

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
from rigidkit import _linalg, cli, kinematics, statics
from rigidkit import transforms as tr

import oracles as oc
from conftest import scaled_into_chart
from test_acceptance import _criterion_01_frameworks

DENSE_ONLY = 10**9
#: The rank of the rim-1000 wheel's operator by `np.linalg.svd` (2.7 s) at
#: the default cutoff.  The exact rank is 2n - 3 = 1999: the cutoff's size
#: factor is an open question.
RIM_1000_DENSE_RANK = 1978
#: The library's operator rank of the n = 300 Henneberg framework at the
#: default cutoff.  Its rank mod p is 2n - 3 = 597, so it is rigid: two
#: singular values fall under the cutoff's size factor (ROADMAP item 15).
HENNEBERG_300_RANK = 595
#: The same at n = 500: its rank mod p is 2n - 3 = 997, the library's 996, so
#: `analyze` calls this rigid framework flexible with dof 1 (ROADMAP item 15).
HENNEBERG_500_RANK = 996
#: The same at n = 1000: its rank mod p is 1997, the library's 1993, so
#: `analyze` calls it flexible with dof 4 (ROADMAP item 15).
HENNEBERG_1000_RANK = 1993
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


def wheel(rng, rim):
    """(xy, edges) of the hub joined to every rim vertex, at evenly spread
    jittered rim angles: the wheel generator of perfbench/workloads.py,
    without its faces."""
    hub = rim
    edges = [(k, (k + 1) % rim) for k in range(rim)] + [(k, hub) for k in range(rim)]
    angles = 2 * np.pi * (np.arange(rim) + rng.uniform(0.15, 0.85, rim)) / rim
    radii = rng.uniform(0.9, 1.3, rim)
    xy = np.vstack([np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]),
                    0.05 * rng.standard_normal(2)])
    return xy, edges


class _CountingFactor:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def _counting_solves(monkeypatch):
    """Make every factor from `scipy.sparse.linalg.splu` count its solves:
    one _CountingFactor per factorization, in order."""
    sla = pytest.importorskip("scipy.sparse.linalg")

    factors = []
    real = sla.splu

    def splu(*args, **kwargs):
        factors.append(_CountingFactor(real(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(sla, "splu", splu)
    return factors


def _recording_spectra(monkeypatch):
    """Make `_linalg.spectrum` append each Spectrum it returns to a list: the
    operator and Killing spectra of an analysis (the resolution rank is the
    operator's, in every geometry; the equilibrium stack is decided by
    `statics.equilibrium_spectrum`, which never calls it)."""
    spectra = []
    real = _linalg.spectrum

    def spectrum(*args, **kwargs):
        spectra.append(real(*args, **kwargs))
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
    pytest.importorskip("scipy.sparse.linalg")
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
    pytest.importorskip("scipy.sparse.linalg")
    fw = grid(20, kind)
    sparse, spectra = _report(fw, monkeypatch, _linalg.SPARSE_MIN_SIDE)
    assert [s.method for s in spectra] == ["sparse", "dense"]
    assert all(s.partial == (s.method == "sparse") for s in spectra)
    assert sparse["rigid"] and sparse["kinematic_dof"] == sparse["static_dof"] == 0
    assert sparse["dim_V0"] == 3
    assert sparse["self_stress_count"] == fw.m - (2 * fw.n - 3) == 324
    dense, dense_spectra = _report(fw, monkeypatch, DENSE_ONLY)
    _same_verdicts(dense, sparse, dense_spectra[0].cutoff)
    for s, d in zip(spectra, dense_spectra):
        assert (s.rank, s.shape) == (d.rank, d.shape)
        # the operator's rank holds on a bracket of the cutoff read from its
        # Gram matrix's entries: the Spectrum keeps the bracket's top, from
        # an upper bound of sigma_max
        assert d.cutoff <= s.cutoff <= 1.5 * d.cutoff
        if s.partial:
            # that bound of sigma_max, then the two smallest values: each one
            # above the cutoff is the dense one, each one at or below it sits
            # under cutoff/100
            assert d.values[0] <= s.values[0] <= 1.5 * d.values[0]
            low, dense_low = s.values[:0:-1], d.values[::-1][:2]
            assert low.size == 2
            above = dense_low > d.cutoff
            assert np.all(np.abs(low - dense_low)[above] <= 1e-8 * dense_low[above])
            assert np.all(low[~above] < d.cutoff / 100)


@pytest.mark.parametrize("kind, k", [("S", 30), ("H", 30), ("S", 45), ("H", 45)])
def test_large_curved_grids_take_the_sparse_path(kind, k, monkeypatch):
    # In ambient coordinates the n tangency rows inflated sigma_max, and with
    # it the cutoff, 75-90x: these grids fell back to the dense SVD (minutes
    # at k = 45).  In tangent frames every rank decision is certified.  The
    # counts only: a dense reference at k = 45 is too slow.
    pytest.importorskip("scipy.sparse.linalg")
    fw = grid(k, kind)
    report, spectra = _report(fw, monkeypatch, _linalg.SPARSE_MIN_SIDE)
    assert [s.method for s in spectra] == ["sparse", "dense"]
    assert report["rigid"] and report["kinematic_dof"] == report["static_dof"] == 0
    assert report["dim_V0"] == 3
    assert report["self_stress_count"] == fw.m - (2 * fw.n - 3)


def _counting_eigsh(monkeypatch):
    """Make `scipy.sparse.linalg.eigsh` count its calls: a list that grows by
    one per call."""
    sla = pytest.importorskip("scipy.sparse.linalg")

    calls = []
    real = sla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(kwargs.get("sigma"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", eigsh)
    return calls


def _counting_bands(monkeypatch):
    """Make `scipy.linalg.lapack.dpbtrf` record its calls: a list that grows
    by each call's band shape (rows: bandwidth + 1, columns: order)."""
    from scipy.linalg import lapack

    calls = []
    real = lapack.dpbtrf

    def dpbtrf(band, *args, **kwargs):
        calls.append(band.shape)
        return real(band, *args, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrf", dpbtrf)
    return calls


@pytest.mark.parametrize("kind, k, operator_solves",
                         [("E", 20, 36), ("S", 20, 36), ("H", 20, 36), ("E", 30, 36),
                          ("H", 45, 35)])
def test_each_sparse_decision_factors_once_and_solves_little(kind, k, operator_solves,
                                                             monkeypatch):
    # `analyze` makes one factorization, a banded Cholesky factor of
    # G_SS - c_hi^2 I (G without three pinned coordinates) at the top of the
    # cutoff's bracket, and no SuperLU factor or Lanczos call: the
    # operator's Killing columns, which lie in its null space, certify three
    # null values, the factor shows that no others lie under c_hi, and the
    # Killing columns give the two smallest singular values.  The
    # equilibrium stack is decided by its small reduction.  Without
    # null columns a sparse decision takes a Lanczos call for sigma_max and
    # a second factor, which serves the one shift-invert Lanczos call of
    # the values step (21 solves on every grid).
    # `operator_solves` bounds that step on the operator by the Lanczos
    # decisions the count replaced, which took 36 (k = 20) and 35 (k = 45)
    # solves; k = 30 keeps the k = 20 bound.  Decided on the sparse path,
    # the stack takes the same two factors; on H it took 471 solves at
    # k = 20 and 1461 at k = 45 while its tangency rows were G p_i of length
    # 1.000-1.176, and as unit normals its values step takes 21 solves, as
    # in E and S.
    pytest.importorskip("scipy.sparse.linalg")
    fw = grid(k, kind)
    factors = _counting_solves(monkeypatch)
    eigsh_calls = _counting_eigsh(monkeypatch)
    bands = _counting_bands(monkeypatch)
    spectra = _recording_spectra(monkeypatch)
    cli.analyze_framework(fw)
    assert [s.method for s in spectra] == ["sparse", "dense"]
    assert (len(factors), eigsh_calls, len(bands)) == (0, [], 1)
    assert np.all(spectra[0].smallest() <= spectra[0].cutoff / 100)
    for matrix, bound in ((_operator(fw), operator_solves), (oc.equilibrium_stack(fw), 30)):
        del factors[:], eigsh_calls[:], bands[:]
        assert _linalg.spectrum(matrix).method == "sparse"
        assert bands == []
        count, values = factors
        assert count.solves == 1
        assert values.solves <= bound
        assert len(eigsh_calls) == 2


def _counting_products(monkeypatch):
    """Make `scipy.sparse.linalg.eigsh` count the products with its operator
    A: a list that grows by one count per call (0 for a shift-invert call,
    which applies its OPinv only)."""
    sla = pytest.importorskip("scipy.sparse.linalg")

    products = []
    real = sla.eigsh

    def eigsh(a, *args, **kwargs):
        a = sla.aslinearoperator(a)
        products.append(0)
        call = len(products) - 1

        def matvec(x):
            products[call] += 1
            return a.matvec(x)

        return real(sla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), *args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", eigsh)
    return products


@pytest.mark.parametrize("kind, k", [("E", 20), ("S", 20), ("H", 20), ("E", 30)])
def test_sigma_max_stops_at_the_probes_sqrt_eps(kind, k, monkeypatch):
    # sigma_max's Lanczos call stops once its Ritz estimate is under
    # sqrt(eps) theta, the backward error the probe solve accepts: 41
    # products on each grid of perfbench's grid-analyze, where a stop at
    # machine precision took 61 (k = 20) and 71 (k = 30).  Without its
    # Killing columns the operator's rank is not decided on the cutoff's
    # bracket, so sigma_max is read first.
    pytest.importorskip("scipy.sparse.linalg")
    fw = grid(k, kind)
    eigsh_calls = _counting_eigsh(monkeypatch)
    products = _counting_products(monkeypatch)
    assert _linalg.spectrum(_operator(fw)).method == "sparse"
    assert eigsh_calls[0] is None
    assert products[0] <= 45


def test_the_sparse_path_converts_no_sparse_format():
    # Each scipy call gets the format it works on: a CSR <-> CSC conversion
    # inside splu or a product would warn.
    pytest.importorskip("scipy.sparse.linalg")
    import warnings

    from scipy.sparse import SparseEfficiencyWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", SparseEfficiencyWarning)
        for kind in "ESH":
            assert cli.analyze_framework(grid(20, kind)).rigid
        spec = _linalg.spectrum(_wheel_operator(500))  # wide: the values step too
        assert spec.method == "sparse"


def _gallery_images(kind):
    """The gallery fixtures (all Euclidean); for kind S/H their images after
    the shrink into the chart, in every dimension."""
    for name in rk.gallery.GALLERY_NAMES:
        fw = rk.gallery.fixture(name).framework
        if kind != "E":
            fw = rk.geodesic_project(scaled_into_chart(fw), rk.Space(rk.SpaceKind(kind), fw.dim))
        yield name, fw


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_the_resolution_spectrum_is_the_operators(kind):
    # In tangent frames the resolution matrix is -R^T diag(f) (on H also up
    # to an invertible d x d block per vertex), so static_spaces takes its
    # spectrum from the operator R.  The reference is the ambient resolution
    # matrix, decided on its own.  In E (f = 1, plus n zero rows) its
    # spectrum must be the operator's: on the sparse path, whose Gram
    # matrices are the same, the reference's cutoff lies in the bracket
    # [c_lo, c_hi] on which the operator's rank was decided (with its
    # Killing columns; the reference has none) and the lows are null on
    # both sides; on the dense path, whose SVDs factor R and -R^T, the
    # values are equal to roundoff.  On S/H the singular values differ,
    # but the rank and the nullity must not.
    pytest.importorskip("scipy.sparse.linalg")
    methods = set()
    for label, fw in list(_gallery_images(kind)) + [("grid 20", grid(20, kind))]:
        reference = _linalg.spectrum(statics.resolution_entries(fw))
        operator = rk.motion_spaces(fw).operator
        for spec in (statics.static_spaces(fw).resolution,
                     statics.static_spaces(fw, operator=operator).resolution):
            assert spec.rank == reference.rank, label
            assert spec.nullity == fw.m - spec.rank == reference.nullity, label
            methods.add(spec.method)
            if kind != "E":
                continue
            assert spec.method == reference.method, label
            assert spec.values.shape == reference.values.shape, label
            if spec.method == "sparse":
                # c_lo from the largest diagonal entry of G, a lower bound of
                # sigma_max^2; c_hi, the operator's cutoff, from an upper
                # bound; the two lows, the operator's from its Killing
                # columns and the reference's from Lanczos, are null values
                # on both sides
                columns = _operator(fw).toarray()
                c_lo = _linalg._cutoff(np.sqrt(np.max(np.sum(columns**2, axis=0))),
                                       *columns.shape, _linalg.RANK_TOL)
                assert c_lo <= reference.cutoff <= spec.cutoff, label
                assert reference.values[0] <= spec.values[0], label
                assert np.all(spec.smallest() <= spec.cutoff / 100), label
                assert np.all(reference.smallest() <= spec.cutoff / 100), label
            else:
                assert np.all(np.abs(spec.values - reference.values)
                              <= 1e-14 * reference.values[0]), label
                assert abs(spec.cutoff - reference.cutoff) <= 1e-14 * reference.cutoff, label
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


def _near_cutoff_matrix(factor):
    """400 x 320 with sigma_max = 1, three zero singular values and the fourth
    smallest at `factor` times the cutoff 1e-9 * 1 * 400."""
    rng = np.random.RandomState(3)
    u = np.linalg.qr(rng.standard_normal((400, 320)))[0]
    v = np.linalg.qr(rng.standard_normal((320, 320)))[0]
    s = np.linspace(1.0, 0.1, 320)
    s[-4:] = [factor * 4e-7, 0.0, 0.0, 0.0]
    return (u * s) @ v.T


@pytest.mark.parametrize("factor", [1e3, 2.0, 0.5])
def test_a_singular_value_near_the_cutoff_is_counted_exactly(factor):
    # The count needs no margin: a value at 2x or 0.5x the cutoff falls on
    # its side of it.
    pytest.importorskip("scipy.sparse.linalg")
    spec = _linalg.spectrum(_near_cutoff_matrix(factor))
    assert spec.method == "sparse"
    assert spec.rank == (317 if factor > 1 else 316)


def _near_cutoff_null_columns():
    """The three right null vectors of every `_near_cutoff_matrix`: the last
    columns of its V, drawn from the same stream."""
    rng = np.random.RandomState(3)
    rng.standard_normal((400, 320))
    return np.linalg.qr(rng.standard_normal((320, 320)))[0][:, -3:]


@pytest.mark.parametrize("factor, rank, factors, lanczos",
                         [(1e3, 317, 0, 0), (0.5, 316, 2, 0), (2.0, 317, 3, 1)])
def test_the_cutoffs_bracket_decides_where_no_value_lies_in_it(factor, rank, factors, lanczos,
                                                               monkeypatch):
    # Gershgorin brackets the cutoff 4e-7 between c_lo = 0.68x and
    # c_hi = 2.28x of it, and the null columns certify three null values
    # under c_lo.  A banded Cholesky factor of G without three pinned
    # coordinates, shifted by c_hi^2, alone decides when no fourth value
    # lies under c_hi (at 1000x), with no SuperLU factor.  Otherwise the
    # SuperLU counts do: a count at c_lo that agrees with the one at c_hi
    # decides when the fourth value lies under c_lo (0.5x); a value inside
    # the bracket (2x) leaves the decision to sigma_max's Lanczos call and
    # a count at the exact cutoff.
    pytest.importorskip("scipy.sparse.linalg")
    a = _near_cutoff_matrix(factor)
    made = _counting_solves(monkeypatch)
    eigsh_calls = _counting_eigsh(monkeypatch)
    bands = _counting_bands(monkeypatch)
    spec = _linalg.spectrum(a, null_columns=_near_cutoff_null_columns())
    assert spec.method == "sparse"
    assert spec.rank == rank
    assert (len(made), len(eigsh_calls), len(bands)) == (factors, lanczos, 1)
    assert np.all(spec.smallest() <= 1e-12)
    monkeypatch.undo()
    assert spec.rank == _linalg.spectrum(a).rank


def test_a_gram_diagonal_that_underflows_falls_back_to_dense():
    # The squares of a column of 1e-170 underflow, so G = B^T B stores no
    # diagonal entry there to shift in place: the dense SVD decides.
    pytest.importorskip("scipy.sparse.linalg")
    a = _near_cutoff_matrix(2.0)
    a[:, 0] = 1e-170
    assert _linalg.spectrum(a).method == "dense"


def test_zero_columns_do_not_count_toward_the_size_gate(monkeypatch):
    # K_25 plus 126 isolated vertices: the 300 x 302 operator passes the
    # gate on its shape, but only its 50 columns at the K_25 vertices are
    # non-zero, so the sparse path's side check leaves it to the dense SVD.
    k25 = [(i, j) for i in range(25) for j in range(i + 1, 25)]
    fw = rk.build_framework(rk.graph(151, k25), rk.euclidean(2),
                            np.random.default_rng(0).random((151, 2)))
    operator = _operator(fw)
    spec = _linalg.spectrum(operator)
    assert operator.shape == (300, 302) and min(operator.shape) >= _linalg.SPARSE_MIN_SIDE
    assert spec.method == "dense" and spec.rank == 2 * 25 - 3
    monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", DENSE_ONLY)
    assert np.array_equal(_linalg.spectrum(operator).values, spec.values)
    monkeypatch.undo()
    report = cli.analyze_framework(fw)
    assert report.kinematic_dof == report.static_dof == 2 * 151 - 47 - 3 == 252


def _dropped_grid(kind, share):
    """The k = 30 grid without `share` of its edges, picked by default_rng(5)."""
    fw = grid(30, kind)
    drop = int(share * fw.m)
    keep = np.sort(np.random.default_rng(5).permutation(fw.m)[: fw.m - drop])
    return rk.build_framework(rk.graph(fw.n, np.asarray(fw.graph.edges)[keep]), fw.space,
                              fw.coords)


def _operator(fw):
    return rk.rigidity_operator(fw).entries


def henneberg(rng, n):
    """The edges of a Laman graph on n vertices from Henneberg type I and II
    steps: the generator of perfbench/workloads.py."""
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        if rng.random() < 0.5:
            a, b = (int(x) for x in rng.choice(v, 2, replace=False))
            edges |= {(a, v), (b, v)}
        else:
            a, b = sorted(edges)[int(rng.integers(len(edges)))]
            c = int(rng.choice([u for u in range(v) if u not in (a, b)]))
            edges.discard((a, b))
            edges |= {(a, v), (b, v), (c, v)}
    return sorted(edges)


@pytest.mark.parametrize("n, library_rank", [(100, 197), (300, HENNEBERG_300_RANK),
                                             (500, HENNEBERG_500_RANK),
                                             (1000, HENNEBERG_1000_RANK)])
def test_the_rank_mod_p_proves_the_henneberg_frameworks_rigid(n, library_rank):
    # A Laman graph at generic coordinates is rigid: rank 2n - 3.
    fw = rk.build_framework(rk.graph(n, henneberg(np.random.default_rng(0), n)),
                            rk.euclidean(2), np.random.default_rng(1).random((n, 2)))
    assert oc.rank_mod_p(fw) == 2 * n - 3
    assert rk.motion_spaces(fw).operator.rank == library_rank


def _wheel_operator(rim):
    xy, edges = wheel(np.random.default_rng(1), rim)
    return _operator(rk.build_framework(rk.graph(rim + 1, edges), rk.euclidean(2), xy))


def braced_wheel(rim):
    """The wheel with each rim vertex also joined to the next but one: tall
    (3 rim edges, 2 rim + 2 columns) and rigid, with a hub on every row of
    its Gram matrix."""
    xy, edges = wheel(np.random.default_rng(1), rim)
    braces = [(k, (k + 2) % rim) for k in range(rim)]
    return rk.build_framework(rk.graph(rim + 1, edges + braces), rk.euclidean(2), xy)


def shuffled_grid(k):
    """The k x k E grid with its vertices renumbered by default_rng(7)."""
    fw = grid(k)
    label = np.random.default_rng(7).permutation(fw.n)
    coords = np.empty_like(fw.coords)
    coords[label] = fw.coords
    return rk.build_framework(rk.graph(fw.n, label[np.asarray(fw.graph.edges)]), fw.space,
                              coords)


def lattice(k):
    """The k x k x k cubic lattice, each cube cut into six tetrahedra around
    its diagonal (edges along e_a, e_a + e_b and e_1 + e_2 + e_3), at
    (x, y, z)/k + 0.01 N(0, 1) from default_rng(0) in E^3: a tall rigid
    framework with six Killing fields."""
    index = np.arange(k**3).reshape(k, k, k)
    edges = []
    for step in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
        ends = (index[: k - step[0], : k - step[1], : k - step[2]],
                index[step[0]:, step[1]:, step[2]:])
        edges += zip(*(e.ravel().tolist() for e in ends))
    xyz = np.stack(np.meshgrid(*[np.arange(k)] * 3, indexing="ij"), -1).reshape(-1, 3) / k
    return rk.build_framework(rk.graph(k**3, edges), rk.euclidean(3),
                              xyz + 0.01 * np.random.default_rng(0).standard_normal(xyz.shape))


def _with_killing(fw):
    """The operator of `fw` and its Killing columns, as `analyze` decides it."""
    return _operator(fw), kinematics.killing_evaluation_matrix(fw)


#: label: (a function making the matrix, or the matrix and its null columns,
#: its rank by np.linalg.svd at the default cutoff, pinned where that SVD
#: takes over a second, else None: computed in the test).
_COUNT_CASES = {
    **{"matrix %g" % f: (lambda f=f: _near_cutoff_matrix(f), None) for f in (0.5, 2.0, 1e3)},
    **{"%s k=20 operator" % kind: (lambda kind=kind: _operator(grid(20, kind)), None)
       for kind in "ESH"},
    **{"%s k=20 equilibrium" % kind:
       (lambda kind=kind: oc.equilibrium_stack(grid(20, kind)), None) for kind in "ESH"},
    "E k=30 operator": (lambda: _operator(grid(30)), 1797),
    "E k=30 equilibrium": (lambda: oc.equilibrium_stack(grid(30)), None),
    "E k=45 operator": (lambda: _operator(grid(45)), 4047),
    "E k=45 equilibrium": (lambda: oc.equilibrium_stack(grid(45)), 2028),
    **{"%s k=30 %d%% dropped" % (kind, 100 * share):
       (lambda kind=kind, share=share: _operator(_dropped_grid(kind, share)), rank)
       for kind in "ESH" for share, rank in ((0.2, 1788), (0.4, 1543))},
    **{"wheel rim %d" % rim: (lambda rim=rim: _wheel_operator(rim), rank)
       for rim, rank in ((400, None), (500, None), (1000, RIM_1000_DENSE_RANK))},
    "braced wheel rim 400": (lambda: _with_killing(braced_wheel(400)), None),
    "shuffled E k=45 operator": (lambda: _with_killing(shuffled_grid(45)), 4047),
    "E^3 lattice k=7 operator": (lambda: _with_killing(lattice(7)), None),
}


@pytest.mark.parametrize("label", list(_COUNT_CASES))
def test_the_count_is_the_dense_rank(label):
    # Null spaces of 0 to 257 dimensions, and singular values within 0.3-4x
    # of the cutoff on the wheels and at 0.5x and 2x on the matrices.
    pytest.importorskip("scipy.sparse.linalg")
    build, rank = _COUNT_CASES[label]
    a = build()
    a, null_columns = a if isinstance(a, tuple) else (a, None)
    spec = _linalg.spectrum(a, null_columns=null_columns)
    assert spec.method == "sparse", label
    if rank is None:
        dense = a.toarray() if isinstance(a, _linalg.Entries) else a
        s = np.linalg.svd(dense, compute_uv=False)
        cutoff, rank = _linalg._svd_rank(s, np.count_nonzero(np.any(dense, axis=1)),
                                         np.count_nonzero(np.any(dense, axis=0)),
                                         _linalg.RANK_TOL)
        if null_columns is None:
            # sigma_max and the cutoff: ARPACK stops at a sqrt(eps) residual,
            # which leaves the Rayleigh quotient sigma_max^2 at roundoff
            assert abs(spec.values[0] - s[0]) <= 1e-12 * s[0], label
            assert abs(spec.cutoff - cutoff) <= 1e-12 * cutoff, label
        else:
            # on the cutoff's bracket: a Gershgorin bound of sigma_max, and
            # the rule's cutoff for it
            assert s[0] <= spec.values[0] * (1 + 1e-12), label
            assert cutoff <= spec.cutoff * (1 + 1e-12), label
    assert spec.rank == rank, label


@pytest.mark.parametrize("label, band_rows, factors",
                         [("braced wheel rim 400", [], 1), ("shuffled E k=45 operator", [92], 0),
                          ("E^3 lattice k=7 operator", [152], 0)])
def test_the_banded_certificate_or_the_count_decides(label, band_rows, factors, monkeypatch):
    # The hub joins every vertex, so in reverse Cuthill-McKee order the
    # pinned Gram matrix's band holds far more than twice its envelope: no
    # band is allocated and the SuperLU count decides.  The shuffled grid
    # gets the band of the grid in its own order (bandwidth 91), and the
    # d = 3 lattice pins its six Killing fields' coordinates.
    pytest.importorskip("scipy.sparse.linalg")
    a, null_columns = _COUNT_CASES[label][0]()
    made, shapes = _counting_solves(monkeypatch), _counting_bands(monkeypatch)
    spec = _linalg.spectrum(a, null_columns=null_columns)
    assert ([rows for rows, _ in shapes], len(made)) == (band_rows, factors)
    assert spec.rank == a.shape[1] - null_columns.shape[1]
    assert all(order == spec.rank for _, order in shapes)


def test_a_band_that_cannot_be_allocated_leaves_the_rank_to_the_count(monkeypatch):
    pytest.importorskip("scipy.sparse.linalg")
    a, null_columns = _with_killing(grid(20))
    reference = _linalg.spectrum(a, null_columns=null_columns)
    real = np.zeros

    def zeros(shape, *args, order="C", **kwargs):
        if order == "F":
            raise MemoryError
        return real(shape, *args, order=order, **kwargs)

    made, shapes = _counting_solves(monkeypatch), _counting_bands(monkeypatch)
    monkeypatch.setattr(np, "zeros", zeros)
    _same_spectrum(_linalg.spectrum(a, null_columns=null_columns), reference)
    assert (len(shapes), len(made)) == (0, 1)


def _line(components, n=400):
    """n random points on the line in `components` equal chains, each vertex
    joined to the next two of its chain: a tall d = 1 operator of nullity
    `components`, one Killing column."""
    x = np.random.default_rng(2).uniform(0, 1, n)
    size = n // components
    edges = [(c * size + i, c * size + j) for c in range(components)
             for i in range(size) for j in (i + 1, i + 2) if j < size]
    return rk.build_framework(rk.graph(n, edges), rk.euclidean(1), x[:, None])


def _same_spectrum(a, b):
    assert (a.cutoff, a.rank, a.shape, a.method) == (b.cutoff, b.rank, b.shape, b.method)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_killing_columns_give_the_lows_of_a_tall_flexible_operator(kind, monkeypatch):
    # 12 dimensions of motion, 3 of them Killing fields: the count at the
    # top of the cutoff's bracket finds more than the three null values
    # the Killing columns certify, and the count at its bottom finds as
    # many, so the rank holds on the whole bracket.  The Killing columns
    # bound the two smallest values: two factors and no Lanczos call.
    pytest.importorskip("scipy.sparse.linalg")
    fw = _dropped_grid(kind, 0.2)
    assert fw.m >= fw.n * fw.dim
    factors = _counting_solves(monkeypatch)
    eigsh_calls = _counting_eigsh(monkeypatch)
    spec = rk.motion_spaces(fw).operator
    assert spec.method == "sparse"
    assert spec.rank == _COUNT_CASES["%s k=30 20%% dropped" % kind][1] == 1788
    assert len(factors) == 2
    assert eigsh_calls == []
    assert np.all(spec.smallest() <= spec.cutoff / 100)


@pytest.mark.parametrize("label", ["wheel rim 500", "polytope 300"])
def test_wide_operators_keep_the_values_step(label, monkeypatch):
    # With fewer edges than n d columns the Gram matrix is the rows', and
    # its smallest values are the m row-side ones, on which the Killing
    # fields say nothing: the values step runs as without them.
    pytest.importorskip("scipy.sparse.linalg")
    if label == "polytope 300":
        from test_polytopes import _framework

        pytest.importorskip("scipy.spatial")
        fw = _framework(*oc.convex_polytope(300), "E")
    else:
        xy, edges = wheel(np.random.default_rng(1), 500)
        fw = rk.build_framework(rk.graph(501, edges), rk.euclidean(2), xy)
    assert fw.m < fw.n * fw.dim
    reference = _linalg.spectrum(_operator(fw))
    factors = _counting_solves(monkeypatch)
    spec = rk.motion_spaces(fw).operator
    assert len(factors) == 2
    _same_spectrum(spec, reference)


def test_null_columns_that_are_not_null_change_nothing():
    pytest.importorskip("scipy.sparse.linalg")
    a = _operator(grid(20))
    columns = np.random.default_rng(4).standard_normal((a.shape[1], 3))
    _same_spectrum(_linalg.spectrum(a, null_columns=columns), _linalg.spectrum(a))


@pytest.mark.parametrize("components", [1, 2])
def test_one_killing_column_leaves_the_lows_to_lanczos(components, monkeypatch):
    # d = 1 has one Killing field: the columns' QR has one column, too few
    # to bound two values, also where the count finds two null values.
    pytest.importorskip("scipy.sparse.linalg")
    fw = _line(components)
    monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", DENSE_ONLY)
    dense = rk.motion_spaces(fw).operator
    monkeypatch.undo()
    factors = _counting_solves(monkeypatch)
    spec = rk.motion_spaces(fw).operator
    assert spec.method == "sparse" and dense.method == "dense"
    assert min(spec.shape) >= _linalg.SPARSE_MIN_SIDE
    assert spec.rank == dense.rank == fw.n - components
    assert len(factors) == 2
    low, dense_low = spec.smallest(), dense.smallest()
    above = dense_low > dense.cutoff
    assert np.count_nonzero(above) == 2 - components
    assert np.all(np.abs(low - dense_low)[above] <= 1e-8 * dense_low[above])
    assert np.all(low[~above] <= dense.cutoff / 100)


def _grid_file(tmp_path, k=18):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(rk.framework_to_dict(grid(k))))
    return path


def _dropped_grid_file(tmp_path):
    """The k = 30 E grid without 20% of its edges: tall and flexible, so the
    banded certificate fails and its rank goes to the SuperLU count."""
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(rk.framework_to_dict(_dropped_grid("E", 0.2))))
    return path


def _wheel_file(tmp_path, rim=400):
    path = tmp_path / "wheel.json"
    xy, edges = wheel(np.random.default_rng(1), rim)
    path.write_text(json.dumps(rk.framework_to_dict(
        rk.build_framework(rk.graph(rim + 1, edges), rk.euclidean(2), xy))))
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
    # The rim-400 wheel's operator is wide, so its decision calls ARPACK,
    # for sigma_max and for the values step; a grid's is decided without it.
    sla = pytest.importorskip("scipy.sparse.linalg")

    path = _wheel_file(tmp_path)
    expected = _dense_reference(path, monkeypatch, capsys)
    eigsh_calls = _counting_eigsh(monkeypatch)
    assert cli.main(["analyze", str(path), "--json"]) == expected[0]
    monkeypatch.undo()
    capsys.readouterr()
    assert eigsh_calls

    def eigsh(*args, **kwargs):
        if error == "no-convergence":
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        raise sla.ArpackError(-9999)

    monkeypatch.setattr(sla, "eigsh", eigsh)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys)
    assert methods == ["dense"] * 2
    assert (code, report) == expected
    assert code in (0, 10, 2, 3)


def test_superlu_failure_falls_back_to_dense(tmp_path, monkeypatch, capsys):
    sla = pytest.importorskip("scipy.sparse.linalg")

    path = _dropped_grid_file(tmp_path)
    monkeypatch.setattr(_linalg, "SPARSE_MIN_SIDE", DENSE_ONLY)
    expected = cli.main(["analyze", str(path), "--json"]), capsys.readouterr().out
    monkeypatch.undo()

    def splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sla, "splu", splu)
    spectra = _recording_spectra(monkeypatch)
    assert (cli.main(["analyze", str(path), "--json"]), capsys.readouterr().out) == expected
    assert [s.method for s in spectra] == ["dense"] * 2


class _OffDiagonalFactor(_CountingFactor):
    """A factor whose row permutation differs from its column permutation."""

    @property
    def perm_r(self):
        return np.roll(self.lu.perm_r, 1)


class _InexactFactor(_CountingFactor):
    """A factor whose solves are off by 1e-3 of their norm along the right-hand
    side: a backward error far above sqrt(eps)."""

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        return x + 1e-3 * np.linalg.norm(x) * rhs / np.linalg.norm(rhs)


@pytest.mark.parametrize("factor", [_OffDiagonalFactor, _InexactFactor])
def test_a_factor_that_cannot_count_falls_back_to_dense(factor, tmp_path, monkeypatch,
                                                        capsys):
    # Off the diagonal, U's diagonal is no longer D of a symmetric LDL^T; a
    # probe solve with a large backward error shows a factor that is not
    # one of G - c^2 I.  Either way the count is not taken.
    sla = pytest.importorskip("scipy.sparse.linalg")

    path = _dropped_grid_file(tmp_path)
    expected = _dense_reference(path, monkeypatch, capsys)
    real = sla.splu
    monkeypatch.setattr(sla, "splu", lambda *args, **kwargs: factor(real(*args, **kwargs)))
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys)
    assert methods == ["dense"] * 2
    assert (code, report) == expected


def test_the_rim_1000_wheel_is_counted_on_the_sparse_path(monkeypatch):
    # About 24 singular values of this operator sit near the cutoff, the
    # closest at 0.99x and 1.14x of it.  The count takes one probe solve;
    # the values step, whose shift -c^2 sits below that cluster, took 650
    # solves (its two values were 0.018 and 2.4e-7 times the cutoff).
    pytest.importorskip("scipy.sparse.linalg")
    a = _wheel_operator(1000)
    factors = _counting_solves(monkeypatch)
    spec = _linalg.spectrum(a)
    assert spec.method == "sparse"
    assert spec.rank == RIM_1000_DENSE_RANK
    assert np.all(spec.smallest() <= spec.cutoff)
    count, values = factors
    assert count.solves == 1
    assert values.solves <= 1000


def test_missing_scipy_falls_back_to_dense(tmp_path, monkeypatch, capsys):
    path = _grid_file(tmp_path)
    expected = _dense_reference(path, monkeypatch, capsys)
    monkeypatch.setitem(sys.modules, "scipy.sparse.linalg", None)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys)
    assert methods == ["dense"] * 2
    assert (code, report) == expected


def test_tolerance_below_the_squaring_floor_falls_back_to_dense(tmp_path, monkeypatch,
                                                                capsys):
    path = _grid_file(tmp_path)
    argv = ("--tol", "1e-14")
    expected = _dense_reference(path, monkeypatch, capsys, argv)
    code, report, methods = _analyze_dense_fallback(path, monkeypatch, capsys, argv)
    assert methods == ["dense"] * 2
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
    # In E and S the operator with its edge rows scaled by the edge factors
    # f = d / sin d is the resolution matrix, transposed and written in
    # orthonormal tangent frames (up to sign): the ambient matrix's singular
    # values, whose n others (the normals) are 0.  The Euclidean frames are
    # not Lorentz-orthonormal, so on H only the ranks agree.
    rng = np.random.RandomState(100 * d + ord(kind))
    for n in (4, 7, 10):
        fw = oc.random_framework(rng, rk.Space(rk.SpaceKind(kind), d), n)
        resolution = statics.resolution_matrix(fw)
        scaled = statics.edge_factors(fw)[0][:, None] * rk.rigidity_operator(fw).matrix
        assert scaled.shape == (fw.m, n * d)
        if kind == "H":
            assert _linalg.spectrum(scaled).rank == _linalg.spectrum(resolution).rank
            continue
        ambient = np.linalg.svd(resolution, compute_uv=False)
        framed = np.linalg.svd(scaled, compute_uv=False)
        assert np.max(np.abs(ambient[:framed.size] - framed)) <= 1e-14 * ambient[0]
        assert np.all(ambient[framed.size:] <= 1e-14 * ambient[0])


def test_points_off_the_model_within_its_tolerance_are_not_an_internal_error():
    fw = rk.geodesic_project(scaled_into_chart(rk.gallery.fixture("prism3-generic").framework),
                             rk.spherical(2))
    off = rk.build_framework(fw.graph, fw.space, fw.coords * (1 + 4e-10))
    assert statics.static_spaces(off).static_dof == statics.static_spaces(fw).static_dof
