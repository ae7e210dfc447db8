import numpy as np
import pytest

import rigidkit as rk
from rigidkit import maxwell_cremona as mc, transforms as tr
from rigidkit.errors import (
    ClosureFailure,
    CollinearFace,
    GraphError,
    NotEmbedded,
    NotPerpendicular,
    NotSelfStress,
    ZeroOnEdge,
)

from conftest import scaled_into_chart
from oracles import directed_faces


@pytest.fixture
def prism(prism_doc):
    fw = prism_doc.framework
    return fw, rk.stress_from_dict(fw, prism_doc.stress)


@pytest.fixture
def k4(request):
    doc = rk.gallery.fixture("k4-centroid")
    fw = doc.framework
    return fw, rk.stress_from_dict(fw, doc.stress)


def _curved_prism(kind):
    doc = rk.gallery.fixture("prism3-concurrent")
    fw = scaled_into_chart(doc.framework)
    target = rk.spherical(2) if kind == "S" else rk.hyperbolic(2)
    fwx = tr.geodesic_project(fw, target)
    w = rk.static_spaces(fwx).self_stress_basis[0]
    return fwx, w


# --- Euclidean -----------------------------------------------------------------

def test_euclid_reciprocal_perpendicular(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    assert np.max(rec.perpendicularity_residuals()) <= 1e-10
    assert rec.residuals["closure"] <= 1e-10


def test_euclid_stress_roundtrip(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    # a nonzero gauge: the reciprocal's base face away from the origin
    moved = mc.ReciprocalDiagram(fw, rec.positions + np.array([1.3, -0.4]))
    w2 = mc.convert(fw, moved, to="stress")
    assert np.max(np.abs(w2.values - w.values)) <= 1e-12 * np.max(np.abs(w.values))


def test_euclid_reciprocal_translation_invariance(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    moved = mc.ReciprocalDiagram(fw, rec.positions + np.array([5.0, -2.0]))
    w2 = mc.convert(fw, moved, to="stress")
    assert np.allclose(w2.values, w.values)


def test_euclid_reciprocal_scaling_linearity(prism):
    fw, w = prism
    rec1 = mc.convert(fw, w, to="reciprocal")
    rec3 = mc.convert(fw, w.scaled(3.0), to="reciprocal")
    assert np.allclose(rec3.positions, 3.0 * rec1.positions)


def test_euclid_reciprocal_perturbed_rejected(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    bad = rec.positions.copy()
    bad[2] += np.array([0.05, 0.02])
    with pytest.raises(NotPerpendicular):
        mc.convert(fw, mc.ReciprocalDiagram(fw, bad), to="stress")


def test_euclid_lift_roundtrip(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    lift = mc.convert(fw, rec, to="lift")
    assert np.max(lift.incidence_residuals()) <= 1e-10
    rec2 = mc.convert(fw, lift, to="reciprocal")
    w2 = mc.convert(fw, rec2, to="stress")
    assert np.max(np.abs(w2.values - w.values)) <= 1e-8 * np.max(np.abs(w.values))


def test_euclid_lift_gauge_freedom(prism):
    # adding a global linear function shifts the lift, keeps faces planar
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    shifted_points = lift.vertex_points.copy()
    shifted_planes = lift.face_planes.copy()
    g = np.array([0.3, -0.7])
    shifted_points[:, 2] += fw.coords[:, 1:] @ g + 2.0
    shifted_planes[:, :2] += g
    shifted_planes[:, 2] += 2.0
    shifted = mc.PolyhedralLift(fw, mc.LiftKind.VERTICAL, shifted_points, shifted_planes)
    assert np.max(shifted.incidence_residuals()) <= 1e-9
    w2 = mc.convert(fw, shifted, to="stress")
    assert np.allclose(w2.values, w.values)


def test_k4_lift_is_tetrahedron(k4):
    fw, w = k4
    lift = mc.convert(fw, w, to="lift")
    # apex over the centroid: the three interior faces share the apex height
    heights = lift.heights()
    assert np.max(lift.incidence_residuals()) <= 1e-10
    apex_rel = heights[3] - np.mean(heights[:3])
    assert abs(apex_rel) > 1e-3  # genuinely three-dimensional


def test_not_self_stress_rejected(prism):
    fw, w = prism
    bad = rk.Stress(fw.graph.edges, w.values + 0.05)
    with pytest.raises(NotSelfStress):
        mc.convert(fw, bad, to="reciprocal")


def test_zero_on_edge_rejected(k4):
    fw, _ = k4
    # the zero stress resolves the zero load but vanishes on edges
    zero = rk.Stress(fw.graph.edges, np.zeros(fw.m))
    with pytest.raises(ZeroOnEdge):
        mc.convert(fw, zero, to="reciprocal")


def test_requires_3_connected():
    fw = rk.gallery.fixture("triangle").framework
    w = rk.Stress(fw.graph.edges, np.ones(3))
    with pytest.raises(GraphError):
        mc.convert(fw, w, to="reciprocal")


def test_collinear_face_rejected(k4):
    # moving the interior vertex onto an edge makes face [0, 1, 3] collinear
    fw, _ = k4
    coords = fw.coords[:, 1:].copy()
    coords[3] = (0.5, 0.0)
    flat = rk.build_framework(fw.graph, fw.space, coords, fw.embedding)
    rec = mc.ReciprocalDiagram(flat, np.zeros((4, 2)))
    with pytest.raises(CollinearFace):
        mc.convert(flat, rec, to="lift")


def test_radial_vertical_roundtrip(prism):
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    a = np.array([0.5, 0.25, 7.0])
    radial = mc.radial_vertical_convert(fw, lift, a)
    assert radial.kind is mc.LiftKind.RADIAL
    assert radial.residuals["projection"] <= 1e-10
    back = mc.radial_vertical_convert(fw, radial, a)
    assert back.kind is mc.LiftKind.VERTICAL
    assert back.residuals["projection"] <= 1e-10
    w2 = mc.convert(fw, back, to="stress")
    assert np.allclose(w2.values, w.values, atol=1e-8)


def test_radial_vertical_autoshift(prism):
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    # place the center's plane exactly at one lifted vertex: needs the shift
    heights = lift.heights()
    z = float(heights[np.argmax(np.abs(heights))])
    radial = mc.radial_vertical_convert(fw, lift, np.array([0.0, 0.0, z]))
    assert radial.residuals["projection"] <= 1e-9


def test_convexity_classification_k4(k4):
    fw, w = k4
    rec = mc.convert(fw, w, to="reciprocal")
    lift = mc.convert(fw, rec, to="lift")
    report = mc.euclid_convexity_classify(fw, stress=w, reciprocal=rec, lift=lift)
    assert report.stress_pattern and report.reciprocal_pattern and report.lift_convex
    # negated stress: concave lift, everything flips to False
    neg = w.scaled(-1.0)
    rec_n = mc.convert(fw, neg, to="reciprocal")
    lift_n = mc.convert(fw, rec_n, to="lift")
    report_n = mc.euclid_convexity_classify(fw, stress=neg, reciprocal=rec_n, lift=lift_n)
    assert not (report_n.stress_pattern or report_n.reciprocal_pattern or
                report_n.lift_convex)


def test_convexity_classification_prism(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    lift = mc.convert(fw, rec, to="lift")
    report = mc.euclid_convexity_classify(fw, stress=w, reciprocal=rec, lift=lift)
    # convex-cap shape: all three equivalent conditions agree (positively)
    assert report.stress_pattern is True
    assert report.reciprocal_pattern is True
    assert report.lift_convex is True
    assert set(report.boundary_edges) == {(0, 1), (0, 2), (1, 2)}


def test_convexity_requires_embedding(k4):
    # moving the interior vertex outside the triangle breaks the drawing
    fw, _ = k4
    coords = fw.coords[:, 1:].copy()
    coords[3] = (2.0, 2.0)
    broken = rk.build_framework(fw.graph, fw.space, coords, fw.embedding)
    with pytest.raises((NotEmbedded, mc.NoExteriorFace)):
        mc.euclid_convexity_classify(broken, stress=None)


# --- spherical -------------------------------------------------------------------

def test_sph_lift_and_reciprocal():
    fw, w = _curved_prism("S")
    lift = mc.convert(fw, w, to="lift")
    assert np.max(lift.incidence_residuals()) <= 1e-9
    # lambda validation per edge: lambda_ij = w_ij d / sin d
    rec = mc.convert(fw, lift, to="reciprocal")
    assert np.max(rec.perpendicularity_residuals()) <= 1e-9
    assert rec.strength in ("weak", "strong")


def test_sph_roundtrips():
    fw, w = _curved_prism("S")
    lift = mc.convert(fw, w, to="lift")
    w_back = mc.convert(fw, lift, to="stress")
    assert np.max(np.abs(w_back.values - w.values)) <= 1e-9 * np.max(np.abs(w.values))
    rec = mc.convert(fw, lift, to="reciprocal")
    lift2 = mc.convert(fw, rec, to="lift")
    w2 = mc.convert(fw, lift2, to="stress")
    assert np.max(np.abs(w2.values - w.values)) <= 1e-8 * np.max(np.abs(w.values))


def test_sph_strength_propagation():
    fw, w = _curved_prism("S")
    lift = mc.convert(fw, w, to="lift")
    rec = mc.convert(fw, lift, to="reciprocal")
    if lift.kind is mc.LiftKind.SPHERICAL_STRONG:
        assert rec.strength == "strong"
        lift2 = mc.convert(fw, rec, to="lift")
        assert lift2.kind is mc.LiftKind.SPHERICAL_STRONG
    else:
        assert rec.strength == "weak"


def test_sph_corrupt_reciprocal_fails():
    fw, w = _curved_prism("S")
    rec = mc.convert(fw, w, to="reciprocal")
    bad = rec.positions.copy()
    # replace one dual vertex with a rotated point: breaks reciprocity
    th = 0.3
    rot = np.array([[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]])
    bad[2] = rot @ bad[2]
    broken = mc.ReciprocalDiagram(fw, bad, rec.strength, rec.base_scale)
    with pytest.raises((ClosureFailure, mc.NotMultiple)):
        mc.convert(fw, mc.convert(fw, broken, to="lift"), to="stress")


@pytest.mark.parametrize("kind", ["S", "H"])
def test_curved_conversion_rejects_foreign_lift_kind(kind):
    # only spherical (resp. hyperbolic) lifts carry face normals on S (resp. H)
    fw, w = _curved_prism(kind)
    lift = mc.convert(fw, w, to="lift")
    planes = np.column_stack([lift.face_planes, np.ones(fw.embedding.face_count)])
    radial = mc.PolyhedralLift(fw, mc.LiftKind.RADIAL, lift.vertex_points, planes)
    for to in ("stress", "reciprocal"):
        with pytest.raises(mc.WrongDimension):
            mc.convert(fw, radial, to=to)


@pytest.mark.parametrize("kind", ["E", "S", "H"])
def test_residuals_match_per_pair_loop(prism, kind):
    fw, w = prism if kind == "E" else _curved_prism(kind)
    rec, lift = mc.convert(fw, w, to="reciprocal"), mc.convert(fw, w, to="lift")
    lifts = [lift]
    if kind == "E":
        lifts.append(mc.radial_vertical_convert(fw, lift, np.array([0.5, 0.25, 7.0])))
    emb, sp = fw.embedding, fw.space
    left_of = directed_faces(emb.faces)
    perp = []
    for i, j in fw.graph.edges:
        a, b = left_of[(j, i)], left_of[(i, j)]
        if kind == "E":
            u = fw.coords[j, 1:] - fw.coords[i, 1:]
            v = rec.positions[b] - rec.positions[a]
            perp.append(abs(u @ v) / max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300))
        else:
            ma, mb, pi, pj = rec.positions[a], rec.positions[b], fw.coords[i], fw.coords[j]
            perp.append(abs(rk.signed_inner(ma, pi, sp) * rk.signed_inner(mb, pj, sp) -
                            rk.signed_inner(ma, pj, sp) * rk.signed_inner(mb, pi, sp)))
    np.testing.assert_allclose(rec.perpendicularity_residuals(), perp, rtol=1e-12, atol=0)
    for lf in lifts:
        inc = []
        for a, cyc in enumerate(emb.faces):
            for i in cyc:
                plane, point = lf.face_planes[a], lf.vertex_points[i]
                if lf.kind is mc.LiftKind.VERTICAL:
                    x, y = fw.coords[i, 1:]
                    inc.append(abs(plane[0] * x + plane[1] * y + plane[2] - point[2]))
                elif lf.kind is mc.LiftKind.RADIAL:
                    inc.append(abs(plane[:3] @ point - plane[3]))
                else:
                    kappa = 1.0 if kind == "S" else -1.0
                    inc.append(abs(rk.signed_inner(plane, point, sp) - kappa))
        np.testing.assert_allclose(lf.incidence_residuals(), inc, rtol=1e-12, atol=1e-300)


def test_sph_lambda_matches_stress_extraction():
    fw, w = _curved_prism("S")
    lift = mc.convert(fw, w, to="lift")
    for i, j, right, left in zip(*fw.embedding.dual_pairs()):
        dlt = lift.face_planes[left] - lift.face_planes[right]
        cp = rk.cross3(fw.coords[i], fw.coords[j], fw.space)
        lam = float(dlt @ cp) / float(cp @ cp)
        dist = rk.distances(fw.coords[[i]], fw.coords[[j]], fw.space)[0]
        expected = w[(i, j)] * dist / np.sin(dist)
        assert lam == pytest.approx(expected, rel=1e-9)


# --- hyperbolic --------------------------------------------------------------------

def test_hyp_lift_space_like_faces():
    fw, w = _curved_prism("H")
    lift = mc.convert(fw, w, to="lift")
    for m in lift.face_planes:
        assert rk.signed_inner(m, m, fw.space) < 0  # time-like normal
        assert m[0] > 0
    assert np.max(lift.incidence_residuals()) <= 1e-9
    a_vals = [rk.signed_inner(lift.vertex_points[i], fw.coords[i], fw.space) /
              rk.signed_inner(fw.coords[i], fw.coords[i], fw.space)
              for i in range(fw.n)]
    assert all(a > 0 for a in a_vals)


def test_hyp_roundtrips():
    fw, w = _curved_prism("H")
    lift = mc.convert(fw, w, to="lift")
    scale = lift.stress_scale
    w_back = mc.convert(fw, lift, to="stress")
    assert np.max(np.abs(w_back.values - scale * w.values)) <= \
        1e-9 * np.max(np.abs(scale * w.values))
    rec = mc.convert(fw, lift, to="reciprocal")
    assert np.max(rec.perpendicularity_residuals()) <= 1e-9
    lift2 = mc.convert(fw, rec, to="lift")
    w2 = mc.convert(fw, lift2, to="stress")
    assert np.max(np.abs(w2.values - scale * w.values)) <= \
        1e-8 * np.max(np.abs(scale * w.values))


def test_hyp_quadrilateral_orthogonality_identity():
    # diagonals orthogonal iff cosh a cosh c = cosh b cosh d
    fw, w = _curved_prism("H")
    rec = mc.convert(fw, w, to="reciprocal")
    for i, j, right, left in zip(*fw.embedding.dual_pairs()):
        pi = fw.coords[i]
        pj = fw.coords[j]
        ma = rec.positions[right]
        mb = rec.positions[left]
        a, b, c, d = rk.distances([ma, pi, mb, pj], [pi, mb, pj, ma], fw.space)
        assert np.cosh(a) * np.cosh(c) == pytest.approx(np.cosh(b) * np.cosh(d),
                                                        rel=1e-9)


def test_euclid_quadrilateral_orthogonality_identity(prism):
    # Euclidean analogue: a^2 + c^2 = b^2 + d^2
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    for i, j, right, left in zip(*fw.embedding.dual_pairs()):
        pi = fw.coords[i, 1:]
        pj = fw.coords[j, 1:]
        ma = rec.positions[right]
        mb = rec.positions[left]
        lhs = np.sum((ma - pi) ** 2) + np.sum((mb - pj) ** 2)
        rhs = np.sum((pi - mb) ** 2) + np.sum((pj - ma) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_object_serialization_roundtrip(prism, tmp_path):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    rec2 = mc.reciprocal_from_dict(fw, rec.to_dict())
    assert np.array_equal(rec2.positions, rec.positions)
    lift = mc.convert(fw, w, to="lift")
    lift2 = mc.lift_from_dict(fw, lift.to_dict())
    assert np.array_equal(lift2.vertex_points, lift.vertex_points)
    assert lift2.kind is lift.kind


def test_constant_lift_rejected(prism):
    # all faces on one plane: adjacent planes coincide, no reciprocal exists
    fw, _ = prism
    points = np.column_stack([fw.coords[:, 1:], np.full(fw.n, 2.0)])
    planes = np.zeros((fw.embedding.face_count, 3))
    planes[:, 2] = 2.0
    flat = mc.PolyhedralLift(fw, mc.LiftKind.VERTICAL, points, planes)
    with pytest.raises(mc.NonPlanarFace):
        mc.convert(fw, flat, to="reciprocal")


def test_k4_reciprocal_is_dual_tetrahedron_projection(k4):
    fw, w = k4
    rec = mc.convert(fw, w, to="reciprocal")
    assert rec.positions.shape == (4, 2)          # one dual vertex per face
    assert rec.dual.vertex_count == 4
    # K4 is self-dual: the dual graph is K4 again
    assert rec.dual.edge_count == 6


@pytest.fixture
def reversed_prism(prism):
    """The gallery stress with its edges and values listed backwards: every
    w[e] is equal, so every result must be equal too."""
    fw, w = prism
    rev = rk.Stress(list(reversed(w.edges)), list(reversed(w.values)))
    assert all(rev[e] == w[e] for e in w.edges)
    return fw, w, rev


def test_convert_reads_the_stress_by_edge(reversed_prism):
    fw, w, rev = reversed_prism
    assert np.array_equal(mc.convert(fw, rev, to="reciprocal").positions,
                          mc.convert(fw, w, to="reciprocal").positions)
    assert mc.euclid_convexity_classify(fw, stress=rev).stress_pattern is True


def test_stress_transport_reads_the_stress_by_edge(reversed_prism):
    fw, w, rev = reversed_prism
    fmap = tr.FrameworkMap(tr.geodesic_map("S"), scaled_into_chart(fw))
    assert np.array_equal(fmap.stress(rev).values, fmap.stress(w).values)


def test_apply_stress_reads_the_stress_by_edge(reversed_prism):
    fw, w, rev = reversed_prism
    assert np.array_equal(rk.apply_stress(fw, rev).vecs, rk.apply_stress(fw, w).vecs)


def test_stress_on_other_edges_is_refused(prism):
    fw, w = prism
    moved = rk.Stress([(0, 4)] + list(w.edges[1:]), w.values)
    for bad in (moved, rk.Stress(w.edges[1:], w.values[1:])):
        with pytest.raises(GraphError):
            rk.apply_stress(fw, bad)
        with pytest.raises(GraphError):
            mc.convert(fw, bad, to="reciprocal")
        with pytest.raises(GraphError):
            tr.FrameworkMap(tr.geodesic_map("S"), scaled_into_chart(fw)).stress(bad)


def test_lift_conversion_checks_the_planes_it_fits(prism):
    # The conversion fits the face planes to the lifted vertices; the stored
    # face_planes must not decide the adjacent-plane check.
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    expected = mc.convert(fw, lift, to="stress").values
    rng = np.random.RandomState(0)
    for planes in (np.zeros_like(lift.face_planes), rng.standard_normal(lift.face_planes.shape)):
        stored = mc.PolyhedralLift(fw, lift.kind, lift.vertex_points, planes)
        assert np.array_equal(mc.convert(fw, stored, to="stress").values, expected)
    flat = np.column_stack([fw.coords[:, 1:], np.full(fw.n, 2.0)])
    with pytest.raises(mc.NonPlanarFace, match="one plane"):
        mc.convert(fw, mc.PolyhedralLift(fw, lift.kind, flat, lift.face_planes), to="stress")
