import numpy as np
import pytest

import rigidkit as rk
from rigidkit import statics

import oracles as oc

E2 = rk.euclidean(2)


def test_force_bivector_examples():
    p = np.array([[1.0, 0, 0]])
    bv = rk.wedges(p, [[0, 0, 1]])[0]
    # pairs (0,1), (0,2), (1,2): e0 ^ e2
    assert np.allclose(bv, [0, 1, 0])
    zero = rk.wedges(p, [[0, 0, 0]])[0]
    assert np.max(np.abs(zero)) == 0.0


def test_force_bivector_sliding_invariance():
    # moving a force along its line of action keeps the bivector
    p = np.array([1, 2.0, -1.0])
    vec = np.array([0.0, 0.3, 0.7])
    moved = p + 2.5 * vec
    b1, b2 = rk.wedges([p, moved], [vec, vec])
    assert np.allclose(b1, b2)


def _static_rows_by_vertex(fw):
    """Reference: the bivector map (column (i, a) = p_i ^ e_a) and the
    unit tangency rows (e_0 in E, G p_i / |G p_i| on S/H), filled in one
    vertex at a time."""
    amb = fw.space.ambient_dim
    pairs = rk.spaces.bivector_index_pairs(fw.dim)
    biv = np.zeros((len(pairs), fw.n * amb))
    tangency = np.zeros((fw.n, fw.n * amb))
    for i, p in enumerate(fw.coords):
        for a, e in enumerate(np.eye(amb)):
            biv[:, i * amb + a] = [p[x] * e[y] - p[y] * e[x] for x, y in pairs]
        normal = np.eye(amb)[0] if fw.space.is_euclidean else fw.space.metric_signs * p
        tangency[i, i * amb : (i + 1) * amb] = normal / np.linalg.norm(normal)
    return biv, tangency


@pytest.mark.parametrize("code", "ESH")
def test_static_matrices_match_per_vertex_loop(code, rng):
    for d, n in ((1, 4), (2, 7), (3, 6)):
        fw = oc.random_framework(rng, rk.spaces.space_from_code(code, d), n)
        biv, tangency = _static_rows_by_vertex(fw)
        assert np.array_equal(statics.bivector_map_matrix(fw), biv)
        stacked = oc.equilibrium_stack(fw).toarray()
        assert np.array_equal(stacked[:len(biv)], biv)
        # the row norms of the oracle and the loop sum in different orders;
        # in E every tangency row is exactly e_0
        tol = 0.0 if code == "E" else 4 * np.finfo(float).eps
        assert np.max(np.abs(stacked[len(biv):] - tangency)) <= tol


def _equilibrium_cases():
    """(label, framework) pairs for the reduced equilibrium spectrum: random
    frameworks (n = 0, 1 and 2 among them) and coincident vertices in E/S/H
    for d = 1, 2, 3, the gallery and its S/H images, the k = 20 grids,
    the n = 300 polytope and its S/H images, and the badly scaled prism."""
    from test_polytopes import _framework
    from test_sparse import _gallery_and_images, grid

    rng = np.random.RandomState(1717)
    for code in "ESH":
        for d in (1, 2, 3):
            space = rk.spaces.space_from_code(code, d)
            for n in (0, 1, 2, 3, 5, 8, 13):
                yield "%s%d n=%d" % (code, d, n), oc.random_framework(rng, space, n)
            # e_0 is a point of every model: the bivector rows without
            # coordinate 0 vanish there, and the non-zero row count matters
            for where, point in (("random point", oc.random_framework(rng, space, 1).coords),
                                 ("e_0", np.eye(1, d + 1))):
                for n in (1, 5):
                    yield "%s%d %d at one %s" % (code, d, n, where), rk.build_framework(
                        rk.graph(n, []), space, np.repeat(point, n, axis=0))
        yield "%s grid 20" % code, grid(20, code)
    yield from _gallery_and_images()
    doc = rk.gallery.fixture("prism3-concurrent")
    for x0 in (7693, 1e5, 1e9):
        xy = 0.2 * doc.framework.coords[:, 1:]
        xy[0, 0] = x0
        yield "prism at %g" % x0, rk.build_framework(doc.framework.graph, E2, xy)
    try:
        points, edges = oc.convex_polytope(300)
    except ImportError:  # scipy.spatial
        return
    for code in "ESH":
        yield "%s polytope 300" % code, _framework(points, edges, code)


def test_equilibrium_spectrum_is_the_stacks_dense_spectrum():
    # The reduction to [B; Q^T N] and n - r ones is exact up to roundoff:
    # every value of the stack's dense SVD, its rank and its cutoff.
    for label, fw in _equilibrium_cases():
        spec = statics.equilibrium_spectrum(fw)
        stack = oc.equilibrium_stack(fw).toarray()
        s, cutoff, rank = oc.svd_rank(stack)
        assert spec.shape == stack.shape, label
        assert spec.route == "svd" and spec.values.shape == s.shape, label
        assert spec.rank == rank and spec.nullity == fw.n * fw.space.ambient_dim - rank, label
        assert abs(spec.cutoff - cutoff) <= 1e-12 * cutoff, label
        if s.size:
            assert np.max(np.abs(spec.values - s)) <= 1e-13 * s[0], label
            assert spec.sigma_max == spec.values[0], label
            assert np.array_equal(spec.smallest, spec.values[::-1][:2]), label


def _segment():
    return rk.build_framework(rk.graph(2, [(0, 1)]), E2, [(0.0, 0.0), (1.0, 0.0)])


def test_equilibrium_examples():
    fw = _segment()
    assert rk.is_equilibrium_load(fw, statics.zero_load(fw))
    # opposite forces along the joining segment: equilibrium
    f = rk.load(fw, [[0, 1, 0], [0, -1, 0]])
    assert rk.is_equilibrium_load(fw, f)
    # force couple: perpendicular opposite forces, nonzero moment
    couple = rk.load(fw, [[0, 0, 1], [0, 0, -1]])
    assert not rk.is_equilibrium_load(fw, couple)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 0), (1, 2)], r"duplicate edge \(0, 1\)"),
    ([(0, 0), (1, 2), (0, 2)], "loop at vertex 0"),
], ids=["repeated edge", "loop"])
def test_a_stress_on_a_repeated_edge_or_a_loop_is_refused(edges, message):
    with pytest.raises(rk.errors.GraphError, match=message):
        rk.Stress(edges, [1.0, 2.0, 3.0])


def test_a_stress_reads_by_edge_and_refuses_a_non_edge():
    w = rk.Stress([(1, 0), (2, 1)], [1.0, 2.0])
    assert w.edges == ((0, 1), (1, 2))
    assert w[(0, 1)] == w[(1, 0)] == 1.0
    with pytest.raises(KeyError):
        w[(0, 2)]


def test_apply_stress_segment():
    fw = _segment()
    w = rk.Stress(fw.graph.edges, [1.0])
    f = rk.apply_stress(fw, w)
    assert np.allclose(f.vecs, [[0, 1, 0], [0, -1, 0]])
    zero = rk.apply_stress(fw, rk.Stress(fw.graph.edges, [0.0]))
    assert zero.norm() == 0.0


def test_apply_self_stress_gives_zero_load(prism_doc):
    fw = prism_doc.framework
    w = rk.stress_from_dict(fw, prism_doc.stress)
    assert rk.apply_stress(fw, w).norm() <= 1e-12


def test_resolve_load_roundtrip():
    fw = _segment()
    f = rk.apply_stress(fw, rk.Stress(fw.graph.edges, [1.0]))
    w = rk.resolve_load(fw, f)
    assert isinstance(w, rk.Stress)
    assert w.values == pytest.approx([1.0])
    zero = rk.resolve_load(fw, statics.zero_load(fw))
    assert isinstance(zero, rk.Stress) and zero.values == pytest.approx([0.0])


@pytest.mark.parametrize("code", ["E", "S", "H"])
def test_an_edgeless_framework_moves_freely_and_resolves_only_the_zero_load(code):
    fw = rk.build_framework(rk.graph(3, []), E2, [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)])
    if code != "E":
        fw = rk.geodesic_project(fw, rk.Space(rk.SpaceKind(code), 2))
    assert len(rk.motion_spaces(fw).basis_V) == fw.n * fw.dim
    vecs = np.zeros((fw.n, 3))
    vecs[0, 1] = 1.0  # vertex 0 sits at e_0 in all three models
    assert isinstance(rk.resolve_load(fw, rk.load(fw, vecs)), rk.Unresolvable)
    zero = rk.resolve_load(fw, statics.zero_load(fw))
    assert isinstance(zero, rk.Stress) and zero.values.shape == (0,)


def test_equilibrium_load_on_flexible_framework_unresolvable(prism_doc):
    # Project the flex onto the equilibrium load space: it pairs nonzero
    # with itself, so by the virtual-work principle it cannot be resolved.
    fw = prism_doc.framework
    flex = None
    trivial = rk.motion_spaces(fw).basis_V0
    for q in rk.motion_spaces(fw).basis_V:
        flat = q.vecs.ravel().copy()
        for t in trivial:
            flat -= (flat @ t.vecs.ravel()) * t.vecs.ravel()
        if np.linalg.norm(flat) > 1e-6:
            flex = flat
            break
    assert flex is not None
    stacked = oc.equilibrium_stack(fw).toarray()
    corr, *_ = np.linalg.lstsq(stacked, stacked @ flex, rcond=None)
    f_eq = rk.load(fw, (flex - corr).reshape(fw.n, 3))
    assert rk.is_equilibrium_load(fw, f_eq)
    q0 = rk.VectorField(fw, flex.reshape(fw.n, 3))
    assert abs(rk.virtual_work(q0, f_eq)) > 1e-8
    assert isinstance(rk.resolve_load(fw, f_eq), rk.Unresolvable)


def test_self_stress_space_fixtures(prism_doc):
    tri = rk.gallery.fixture("triangle").framework
    assert rk.static_spaces(tri).self_stress_basis == ()
    k4 = rk.gallery.fixture("k4-centroid").framework
    assert len(rk.static_spaces(k4).self_stress_basis) == 1
    basis = rk.static_spaces(prism_doc.framework).self_stress_basis
    assert len(basis) == 1
    assert np.min(np.abs(basis[0].values)) > 1e-3  # nonzero on all nine edges


def test_static_spaces_counts(prism_doc):
    tri = rk.gallery.fixture("triangle").framework
    ss = rk.static_spaces(tri)
    assert ss.static_dof == 0 and ss.self_stress_count == 0
    ssp = rk.static_spaces(prism_doc.framework)
    assert ssp.static_dof == 1
    assert ssp.dim_F0 + ssp.self_stress_count == prism_doc.framework.m
    sph = rk.build_framework(rk.graph(3, [(0, 1), (0, 2), (1, 2)]),
                             rk.spherical(2), np.eye(3))
    assert rk.static_spaces(sph).static_dof == 0


def test_lazy_bases_check_the_stored_counts(prism_doc):
    fw = prism_doc.framework
    ms = rk.motion_spaces(fw)
    ss = rk.static_spaces(fw)
    assert ms.basis_V is ms.basis_V  # computed once, then cached
    assert len(ss.self_stress_basis) == ss.self_stress_count == 1


def test_virtual_work_annihilators(prism_doc, rng):
    fw = prism_doc.framework
    # resolvable loads annihilate V
    w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
    f0 = rk.apply_stress(fw, w)
    for q in rk.motion_spaces(fw).basis_V:
        assert abs(rk.virtual_work(q, f0)) <= 1e-8 * max(f0.norm(), 1.0)
    # equilibrium loads annihilate V0
    raw = rng.standard_normal((fw.n, 3))
    raw[:, 0] = 0.0
    stacked = oc.equilibrium_stack(fw).toarray()
    corr, *_ = np.linalg.lstsq(stacked, stacked @ raw.ravel(), rcond=None)
    f_eq = rk.load(fw, (raw.ravel() - corr).reshape(fw.n, 3))
    assert rk.is_equilibrium_load(fw, f_eq)
    for q in rk.motion_spaces(fw).basis_V0:
        assert abs(rk.virtual_work(q, f_eq)) <= 1e-8 * max(f_eq.norm(), 1.0)


@pytest.mark.parametrize("space", [rk.euclidean(2), rk.spherical(2), rk.hyperbolic(2),
                                   rk.euclidean(3), rk.spherical(3), rk.hyperbolic(3)])
def test_apply_stress_is_equilibrium(space, rng):
    # F0 subset of F in every geometry, random stresses
    for _ in range(8):
        fw = oc.random_framework(rng, space, int(rng.randint(3, 8)))
        if fw.m == 0:
            continue
        w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
        f = rk.apply_stress(fw, w)
        if f.norm() < 1e-9:
            continue
        assert rk.is_equilibrium_load(fw, f)


@pytest.mark.parametrize("space", [rk.spherical(2), rk.hyperbolic(2), rk.spherical(3)])
def test_stress_extraction_parallelism(space, rng):
    # f_i - sum_j lambda_ij p_j stays parallel to p_i (lambda = w d / sin d)
    for _ in range(5):
        fw = oc.random_framework(rng, space, 6)
        if fw.m == 0:
            continue
        w = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
        f = rk.apply_stress(fw, w)
        for i in range(fw.n):
            acc = f.vecs[i].copy()
            for k, (a, b) in enumerate(fw.graph.edges):
                if i not in (a, b):
                    continue
                j = b if i == a else a
                dist = rk.distances(fw.coords[[i]], fw.coords[[j]], space)[0]
                lam = w.values[k] * dist / space.sin_x(dist)
                acc -= lam * fw.coords[j]
            # residual of the parallelism test: component off span(p_i)
            pi = fw.coords[i]
            coef = np.dot(acc, pi) / np.dot(pi, pi)
            resid = np.linalg.norm(acc - coef * pi)
            assert resid <= 1e-9 * max(1.0, float(np.max(np.abs(f.vecs))))


def test_static_equals_kinematic_on_fixtures():
    for name in rk.gallery.GALLERY_NAMES:
        fw = rk.gallery.fixture(name).framework
        assert rk.static_dof(fw) == rk.kinematic_dof(fw)


def test_rational_oracle_statics():
    for name in ("triangle", "prism3-concurrent", "k4-centroid", "square4bar"):
        fw = rk.gallery.fixture(name).framework
        ss = rk.static_spaces(fw)
        assert ss.dim_F0 == oc.rational_rank(oc.rational_resolution_matrix(fw))
        assert ss.dim_F == oc.rational_equilibrium_dim(fw)
        assert ss.self_stress_count == oc.rational_self_stress_dim(fw)


def test_framework_mismatch(right_triangle):
    other = rk.gallery.fixture("triangle").framework
    q = rk.motion_spaces(right_triangle).basis_V[0]
    # an equal framework (same graph/space/coordinates) is accepted
    rk.virtual_work(q, statics.zero_load(other))
    moved = rk.build_framework(other.graph, other.space, other.coords[:, 1:] + 1.0)
    with pytest.raises(rk.errors.FrameworkMismatch):
        rk.virtual_work(q, statics.zero_load(moved))


def test_disconnected_framework_duality():
    # two disjoint segments: the dof bookkeeping needs no connectivity
    fw = rk.build_framework(rk.graph(4, [(0, 1), (2, 3)]), E2,
                            [(0, 0), (1, 0), (0, 2), (1, 3)])
    assert rk.kinematic_dof(fw) == rk.static_dof(fw) == 3
