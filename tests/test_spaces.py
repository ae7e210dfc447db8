import numpy as np
import pytest
from hypothesis import given, strategies as st

import rigidkit as rk
from rigidkit import spaces, statics
from rigidkit.errors import NotTangent, OffModel, WrongSheet

E2, S2, H2 = rk.euclidean(2), rk.spherical(2), rk.hyperbolic(2)


def test_signed_inner_signature():
    e0 = np.array([1.0, 0.0, 0.0])
    assert rk.signed_inner(e0, e0, S2) == 1.0
    assert rk.signed_inner(e0, e0, H2) == -1.0
    assert rk.signed_inner([1, 3, 4], [1, 1, 1], H2) == 6.0  # -1 + 3 + 4


def test_validate_point_examples():
    assert rk.validate_points([[1.0, 3.0, 4.0]], E2)[0, 0] == 1.0
    p = rk.validate_points([[0.6, 0.8, 0.0]], S2)
    assert rk.signed_inner(p, p, S2)[0] == pytest.approx(1.0)
    h = rk.validate_points([[np.sqrt(2.0), 1.0, 0.0]], H2)
    assert rk.signed_inner(h, h, H2)[0] == pytest.approx(-1.0)


def test_validate_point_errors():
    with pytest.raises(OffModel):
        rk.validate_points([[2.0, 0.0, 0.0]], E2)
    with pytest.raises(OffModel):
        rk.validate_points([[0.5, 0.5, 0.0]], S2)
    with pytest.raises(WrongSheet):
        rk.validate_points([[-np.sqrt(2.0), 1.0, 0.0]], H2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_points_rejects_non_finite(bad):
    for space, row in ((E2, [1.0, bad, 0.0]), (S2, [bad, 0.0, 1.0]), (H2, [1.0, 0.0, bad])):
        with pytest.raises(OffModel, match="finite"):
            rk.validate_points([[1.0, 0.0, 0.0], row], space, renormalize=space is S2)


def test_validate_point_renormalize():
    p = rk.validate_points([[0.3, 0.4, 0.0]], S2, renormalize=True)
    assert rk.signed_inner(p, p, S2)[0] == pytest.approx(1.0)
    q = rk.validate_points([[2.0, 6.0, 8.0]], E2, renormalize=True)
    assert np.allclose(q[0], [1.0, 3.0, 4.0])


def _dist(space, p, q):
    return float(rk.distances([p], [q], space)[0])


def test_distance_examples():
    assert _dist(E2, [1, 0, 0], [1, 3, 4]) == pytest.approx(5.0)
    assert _dist(S2, [0, 1, 0], [0, 0, 1]) == pytest.approx(np.pi / 2)
    h0 = [1, 0, 0]
    h1 = [np.cosh(1.0), np.sinh(1.0), 0.0]
    assert _dist(H2, h0, h1) == pytest.approx(1.0)


def test_distance_antipodal_edge():
    assert _dist(S2, [0, 1, 0], [0, -1, 0]) == pytest.approx(np.pi)


def _unit_tangent(space, p, q):
    """(e, dist): the unit tangent at p towards q, from the resolution-matrix
    column of the one-edge framework p-q, which holds dist * e at vertex 0."""
    fw = rk.build_framework(rk.graph(2, [(0, 1)]), space, [p, q])
    dist = float(rk.distances(fw.coords[:1], fw.coords[1:], space)[0])
    return statics.resolution_matrix(fw)[: space.ambient_dim, 0] / dist, dist


def _exp(space, p, e, dist):
    """exp_p(dist * e) for a unit tangent e at p, in closed form."""
    if space.is_euclidean:
        return p + dist * e
    return space.cos_x(dist) * p + space.sin_x(dist) * e


def test_unit_tangent_euclidean():
    e, _ = _unit_tangent(E2, [1, 0, 0], [1, 2, 0])
    assert np.allclose(e, [0.0, 1.0, 0.0])


def test_unit_tangent_spherical_quarter_turn():
    e, _ = _unit_tangent(S2, [0, 1, 0], [0, 0, 1])
    assert np.allclose(e, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("space", [E2, S2, H2, rk.spherical(3), rk.hyperbolic(3)])
def test_unit_tangent_exp_roundtrip(space, rng):
    # exp-map roundtrip oracle: e unit and exp_p(dist * e) reproduces q.
    for _ in range(20):
        if space.is_euclidean:
            a = np.r_[1.0, rng.standard_normal(space.dim)]
            b = np.r_[1.0, rng.standard_normal(space.dim)]
        elif space.is_spherical:
            raw = rng.standard_normal((2, space.dim + 1))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            a, b = rk.validate_points(raw, space)
        else:
            sp = 0.7 * rng.standard_normal((2, space.dim))
            raw = np.column_stack([np.sqrt(1 + np.sum(sp**2, axis=1)), sp])
            a, b = rk.validate_points(raw, space)
        if np.allclose(a, b):
            continue
        e, dist = _unit_tangent(space, a, b)
        assert rk.signed_inner(e, e, space) == pytest.approx(1.0, abs=1e-9)
        back = _exp(space, a, e, dist)
        assert np.max(np.abs(back - b)) < 1e-9


def test_tangent_vector_invariant():
    p = rk.build_framework(rk.graph(1, []), S2, [[1, 0, 0]])
    with pytest.raises(NotTangent):
        rk.load(p, [[1.0, 0.0, 0.0]])
    pe = rk.build_framework(rk.graph(1, []), E2, [[1, 2, 3]])
    with pytest.raises(NotTangent):
        rk.load(pe, [[0.5, 0.0, 0.0]])


def test_cross3_euclidean_basis():
    out = rk.cross3([0, 1, 0], [0, 0, 1], E2)
    assert np.allclose(out, [1, 0, 0])
    assert np.allclose(rk.cross3([0.3, 1, 2], [0.3, 1, 2], E2), 0.0)


def test_cross3_rows_match_single_products():
    rng = np.random.RandomState(5)
    u, v = rng.standard_normal((2, 7, 3))
    for space in (E2, H2):
        rows = rk.cross3(u, v, space)
        assert rows.shape == (7, 3)
        for k in range(7):
            assert np.array_equal(rows[k], rk.cross3(u[k], v[k], space))
    with pytest.raises(rk.errors.DimensionMismatch):
        rk.cross3(u, v[:6], E2)


@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
def test_cross3_orthogonality(vals):
    u = np.array(vals[:3])
    v = np.array(vals[3:])
    for space in (E2, H2):
        c = rk.cross3(u, v, space)
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            continue
        un, vn = u / np.linalg.norm(u), v / np.linalg.norm(v)
        cn = rk.cross3(un, vn, space)
        assert abs(rk.signed_inner(cn, un, space)) <= 1e-12
        assert abs(rk.signed_inner(cn, vn, space)) <= 1e-12
        # determinant identity
        w = np.array([0.4, -1.2, 0.7])
        assert rk.signed_inner(rk.cross3(u, v, space), w, space) == pytest.approx(
            float(np.linalg.det(np.array([u, v, w]))), abs=1e-9
        )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bivector_dimension(d):
    assert len(spaces.bivector_index_pairs(d)) == d * (d + 1) // 2


def test_wedge_antisymmetry(rng):
    x = rng.standard_normal((1, 4))
    y = rng.standard_normal((1, 4))
    assert np.allclose(rk.wedges(x, y), -rk.wedges(y, x))
    assert np.allclose(rk.wedges(x, x), 0.0)


def test_distance_positive_definite(rng):
    for space in (E2, S2, H2):
        if space.is_euclidean:
            p = rk.validate_points([[1.0, 0.3, -2.0]], space)
        elif space.is_spherical:
            p = rk.validate_points(np.array([[0.6, 0.8, 0.0]]), space)
        else:
            p = rk.validate_points([[np.sqrt(2.0), 1.0, 0.0]], space)
        assert rk.distances(p, p, space)[0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("code", "ESH")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_frame_map_is_orthogonal_on_tangent_vectors(code, d, rng):
    # Frame coordinates of tangent vectors keep Euclidean dot products, the
    # normal component is what `_to_frames` drops, and `_from_frames` inverts
    # it on tangent vectors.  In E it is exactly the slice x[:, 1:] and back.
    import oracles as oc

    space = rk.spaces.space_from_code(code, d)
    pts = oc.random_framework(rng, space, 6).coords
    normals = spaces._normals(pts, space)
    unit = normals / np.linalg.norm(normals, axis=1)[:, None]
    vecs = rng.standard_normal((2, 6, d + 1))
    tangent = vecs - np.sum(vecs * unit, axis=-1)[..., None] * unit
    reflectors = spaces._reflectors(pts, space)
    framed = spaces._to_frames(reflectors, vecs)
    assert framed.shape == (2, 6, d)
    assert np.allclose(framed, spaces._to_frames(reflectors, tangent), rtol=0, atol=1e-14)
    assert np.allclose(np.sum(framed[0] * framed[1], axis=-1),
                       np.sum(tangent[0] * tangent[1], axis=-1), rtol=0, atol=1e-14)
    assert np.allclose(spaces._from_frames(reflectors, framed), tangent, rtol=0, atol=1e-14)
    rows = spaces._to_frames(reflectors, vecs[0][[4, 1]], at=[4, 1])
    assert np.array_equal(rows, framed[0][[4, 1]])
    if code == "E":
        assert np.array_equal(framed, vecs[..., 1:])
        back = spaces._from_frames(reflectors, framed)
        assert np.array_equal(back[..., 1:], vecs[..., 1:]) and not np.any(back[..., 0])


@pytest.mark.parametrize("kind", ["E", "H"])
def test_analyze_computes_the_frame_reflectors_once(kind, monkeypatch):
    # The rigidity operator, the Killing columns and the equilibrium stack
    # all read their tangent frames through `Framework.reflectors`.
    from rigidkit import cli
    from test_sparse import grid

    fw = grid(30, kind)
    calls = []
    real = spaces._reflectors

    def _reflectors(points, space):
        calls.append(space)
        return real(points, space)

    monkeypatch.setattr(spaces, "_reflectors", _reflectors)
    cli.analyze_framework(fw)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [0, spaces.MAX_DIM + 1])
def test_a_dimension_outside_1_to_max_dim_is_refused(d):
    with pytest.raises(rk.errors.WrongDimension):
        rk.Space(rk.SpaceKind.EUCLIDEAN, d)
