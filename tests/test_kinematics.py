import numpy as np
import pytest

import rigidkit as rk
from rigidkit import kinematics

import oracles as oc


def test_rigidity_operator_right_triangle_rank(right_triangle):
    assert rk.rigidity_operator(right_triangle).shape == (3, 6)
    rank = rk.motion_spaces(right_triangle).operator.rank
    assert rank == 3  # frozen from the exact rational oracle
    assert rank == oc.rational_rank(oc.rational_rigidity_matrix(right_triangle))


def test_rigidity_operator_single_edge():
    fw = rk.build_framework(rk.graph(2, [(0, 1)]), rk.euclidean(2), [(0, 0), (1, 0)])
    assert rk.motion_spaces(fw).operator.rank == 1
    assert len(rk.motion_spaces(fw).basis_V) == 3  # kernel dim frozen from the oracle


def test_rigidity_operator_spherical_triangle():
    fw = rk.build_framework(rk.graph(3, [(0, 1), (0, 2), (1, 2)]),
                            rk.spherical(2), np.eye(3))
    assert rk.rigidity_operator(fw).shape == (3, 6)  # 3 edge rows, 2 frame coordinates per vertex
    assert len(rk.motion_spaces(fw).basis_V) == oc.rational_motion_dim(fw) == 3
    assert rk.kinematic_dof(fw) == 0


def _operator_by_edges(fw):
    """Reference: the Euclidean rigidity operator filled in one edge at a time."""
    n, m, d = fw.n, fw.m, fw.dim
    mat = np.zeros((m, n * d))
    for r, (i, j) in enumerate(fw.graph.edges):
        diff = fw.coords[i, 1:] - fw.coords[j, 1:]
        mat[r, i * d : (i + 1) * d] = diff
        mat[r, j * d : (j + 1) * d] = -diff
    return mat


def _tangent_field(rng, fw):
    """A random tangent field: random ambient vectors minus their components
    along the vertex normals (e_0 in E, G p_i on S/H)."""
    vecs = rng.standard_normal((fw.n, fw.space.ambient_dim))
    normals = np.zeros_like(vecs)
    normals[:, 0] = 1.0
    if not fw.space.is_euclidean:
        normals = fw.space.metric_signs * fw.coords
    unit = normals / np.linalg.norm(normals, axis=1)[:, None]
    return vecs - np.sum(vecs * unit, axis=1)[:, None] * unit


@pytest.mark.parametrize("code", "ESH")
def test_rigidity_operator_matches_per_edge_loop(code, rng):
    # In E the operator is the per-edge reference bit for bit.  In every
    # geometry, on tangent fields q it gives <p_i - p_j, q_i - q_j> per edge.
    for d, n in ((1, 4), (2, 7), (3, 6)):
        fw = oc.random_framework(rng, rk.spaces.space_from_code(code, d), n)
        op = rk.rigidity_operator(fw).toarray()
        assert op.shape == (fw.m, n * d)
        if code == "E":
            assert np.array_equal(op, _operator_by_edges(fw))
        for _ in range(3):
            q = _tangent_field(rng, fw)
            i, j = fw.graph.ends
            by_edges = [rk.spaces.signed_inner(fw.coords[a] - fw.coords[b], q[a] - q[b],
                                               fw.space)
                        for a, b in zip(i, j)]
            scale = np.max(np.abs(fw.coords)) * np.max(np.abs(q))
            assert np.allclose(op @ kinematics._flatten(fw, q), by_edges,
                               rtol=0, atol=1e-13 * scale)


def test_motion_space_dims():
    tri = rk.gallery.fixture("triangle").framework
    assert len(rk.motion_spaces(tri).basis_V) == 3
    path = rk.build_framework(rk.graph(3, [(0, 1), (1, 2)]), rk.euclidean(2),
                              [(0, 0), (1, 0), (2, 0)])
    assert len(rk.motion_spaces(path).basis_V) == 4  # includes the middle-vertex flex
    jes = rk.gallery.fixture("jessen:0.5").framework
    assert len(rk.motion_spaces(jes).basis_V) >= 7


def test_trivial_motion_space_dims():
    tri = rk.gallery.fixture("triangle").framework
    assert len(rk.motion_spaces(tri).basis_V0) == 3
    edge = rk.build_framework(rk.graph(2, [(0, 1)]), rk.euclidean(2), [(0, 0), (1, 0)])
    assert len(rk.motion_spaces(edge).basis_V0) == 3  # evaluation still injective
    single = rk.build_framework(rk.graph(1, []), rk.euclidean(2), [(5.0, 2.0)])
    assert len(rk.motion_spaces(single).basis_V0) == 2  # rotations about the point die


def test_trivial_motion_space_spanning_dimension(rng):
    # dim V0 = d(d+1)/2 for spanning frameworks, all three geometries
    for space in (rk.euclidean(2), rk.spherical(2), rk.hyperbolic(2),
                  rk.euclidean(3), rk.spherical(3), rk.hyperbolic(3)):
        fw = oc.random_framework(rng, space, 7)
        if not rk.is_spanning(fw):
            continue
        d = space.dim
        assert len(rk.motion_spaces(fw).basis_V0) == d * (d + 1) // 2


def test_kinematic_dof_fixtures():
    assert rk.kinematic_dof(rk.gallery.fixture("triangle").framework) == 0
    assert rk.kinematic_dof(rk.gallery.fixture("prism3-concurrent").framework) == 1
    assert rk.kinematic_dof(rk.gallery.fixture("k33-circle").framework) >= 1


def test_is_infinitesimally_rigid():
    assert rk.is_infinitesimally_rigid(rk.gallery.fixture("triangle").framework)
    assert rk.is_infinitesimally_rigid(rk.gallery.fixture("prism3-generic").framework)
    assert not rk.is_infinitesimally_rigid(rk.gallery.fixture("octa-blaschke").framework)


def test_motion_basis_annihilates_edge_rows():
    for name in ("prism3-concurrent", "k33-circle", "jessen:0.5", "octa-blaschke"):
        fw = rk.gallery.fixture(name).framework
        for q in rk.motion_spaces(fw).basis_V:
            assert np.max(rk.edge_residuals(q)) <= 1e-8


def test_trivial_space_inside_motion_space():
    for name in ("prism3-concurrent", "schoenhardt", "cube-triangulated"):
        fw = rk.gallery.fixture(name).framework
        for q in rk.motion_spaces(fw).basis_V0:
            assert np.max(rk.edge_residuals(q)) <= 1e-8


def test_flex_finite_difference_invariance():
    # first-order length invariance of reported flexes, h = 1e-6
    for name in ("prism3-concurrent", "jessen:0.5"):
        fw = rk.gallery.fixture(name).framework
        for q in rk.motion_spaces(fw).basis_V:
            assert oc.edge_length_derivative_residual(fw, q.vecs) <= 1e-6


def test_flex_finite_difference_curved(rng):
    from conftest import scaled_into_chart
    from rigidkit import transforms

    fw = scaled_into_chart(rk.gallery.fixture("prism3-concurrent").framework)
    for target in (rk.spherical(2), rk.hyperbolic(2)):
        fwx = transforms.geodesic_project(fw, target)
        for q in rk.motion_spaces(fwx).basis_V:
            assert oc.edge_length_derivative_residual(fwx, q.vecs) <= 1e-6


def test_numerical_ranks_match_rational_oracle():
    for name in ("triangle", "square4bar", "prism3-concurrent", "k4-centroid"):
        fw = rk.gallery.fixture(name).framework
        assert (rk.motion_spaces(fw).operator.rank
                == oc.rational_rank(oc.rational_rigidity_matrix(fw)))
        assert len(rk.motion_spaces(fw).basis_V) == oc.rational_motion_dim(fw)
        assert len(rk.motion_spaces(fw).basis_V0) == oc.rational_killing_rank(fw)


def test_rank_mod_p_is_the_rational_rank_on_exact_fixtures():
    for name in rk.gallery.EXACT_RATIONAL:
        fw = rk.gallery.fixture(name).framework
        assert oc.rank_mod_p(fw) == oc.rational_rank(oc.rational_rigidity_matrix(fw)), name


def test_prism_rank_frozen_values(prism_doc):
    # exact values from the rational oracle: rank 8, dim V 4, dim V0 3
    fw = prism_doc.framework
    assert rk.motion_spaces(fw).operator.rank == 8
    assert len(rk.motion_spaces(fw).basis_V) == 4
    assert len(rk.motion_spaces(fw).basis_V0) == 3


def test_smallest_singular_values_reported(prism_doc):
    ms = rk.motion_spaces(prism_doc.framework)
    assert ms.smallest_sigma.shape == (2,)
    assert ms.smallest_sigma[0] < 1e-12  # the self-stress: the operator is 9 x 12
    assert ms.smallest_sigma[1] > 1e-3


def _killing_cases():
    from test_sparse import _gallery_and_images, grid

    yield from _gallery_and_images()
    for code in "SH":
        yield "%s grid 20" % code, grid(20, code)


def test_killing_matrix_is_minus_the_frame_part_of_the_bivector_map():
    # Column t at vertex i is -G (p_i ^ e_c)_t: in E and S (G = I) exactly
    # the negated frame coordinates B_T that `equilibrium_spectrum` reads.
    for label, fw in _killing_cases():
        biv = rk.statics.bivector_map_matrix(fw)
        framed = rk.spaces._to_frames(rk.spaces._reflectors(fw.coords, fw.space),
                                      biv.reshape(len(biv), fw.n, fw.space.ambient_dim))
        b_t = framed.reshape(len(biv), -1).T
        killing = kinematics.killing_evaluation_matrix(fw)
        if fw.space.is_hyperbolic:
            assert not np.allclose(killing, -b_t), label
        else:
            assert np.array_equal(killing, -b_t), label


def test_killing_matrix_is_the_lie_algebra_basis_up_to_sign():
    # Same columns in the same order; only the E translations (the pairs
    # (0, k), first) change sign.
    for label, fw in _killing_cases():
        killing = kinematics.killing_evaluation_matrix(fw)
        lie = kinematics._flatten(fw, oc.lie_algebra_killing_fields(fw)).T
        sign = np.ones(lie.shape[1])
        if fw.space.is_euclidean:
            sign[:fw.dim] = -1.0
        assert np.array_equal(killing, sign * lie), label


def test_vector_field_validation(right_triangle):
    with pytest.raises(rk.errors.NotTangent):
        rk.vector_field(right_triangle, np.ones((3, 3)))
    ok = np.zeros((3, 3))
    ok[:, 1] = 1.0
    assert rk.vector_field(right_triangle, ok).norm() > 0


def test_non_finite_load_and_field_rejected():
    fw = rk.gallery.fixture("triangle").framework
    with pytest.raises(rk.errors.NotTangent, match="finite"):
        rk.load(fw, [[0, np.nan, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(rk.errors.NotTangent, match="finite"):
        rk.vector_field(fw, [[0, np.inf, 0], [0, 0, 0], [0, 0, 0]])


def test_near_singular_configuration_reported(prism_doc):
    # an almost-concurrent prism is rigid at the default tolerance, but the
    # report exposes the tiny singular value so users can judge the margin
    fw = prism_doc.framework
    coords = fw.coords[:, 1:].copy()
    coords[3] += (1e-5, 0.7e-5)
    near = rk.build_framework(fw.graph, fw.space, coords, fw.embedding)
    ms = rk.motion_spaces(near)
    assert ms.kinematic_dof == 0
    assert 1e-8 < ms.smallest_sigma[0] < 1e-3
    assert ms.smallest_sigma[1] > 1e-1


def test_a_tampered_operator_rank_on_S_is_an_internal_error(monkeypatch):
    # The rank formula rank R = d n - d(d+1)/2 of a spanning rigid framework
    # holds in tangent frames in every geometry, so it cross-checks S/H too:
    # an operator rank one too high, its nullity kept (dof still 0), must not
    # pass as a verdict.
    from dataclasses import replace

    from conftest import scaled_into_chart
    from rigidkit import _linalg

    fw = rk.geodesic_project(scaled_into_chart(rk.gallery.fixture("prism3-generic").framework),
                             rk.spherical(2))
    assert rk.is_infinitesimally_rigid(fw)
    real = _linalg.spectrum
    calls = []

    def spectrum(*args, **kwargs):
        spec = real(*args, **kwargs)
        calls.append(spec)
        if len(calls) == 1:  # motion_spaces decides the operator first
            spec = replace(spec, rank=spec.rank + 1, shape=(spec.shape[0], spec.shape[1] + 1))
        return spec

    monkeypatch.setattr(_linalg, "spectrum", spectrum)
    with pytest.raises(rk.errors.InternalInvariantError, match="rank formula"):
        rk.is_infinitesimally_rigid(fw)
