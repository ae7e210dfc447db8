import json

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import cli, maxwell_cremona as mc, transforms as tr
from rigidkit.errors import (
    ClosureFailure,
    CollinearFace,
    GraphError,
    NotEmbedded,
    NotPerpendicular,
    NotSelfStress,
    RigidkitError,
    ZeroOnEdge,
)

from conftest import scaled_into_chart
from oracles import directed_faces, fitted_face_planes


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


def _count_walks(monkeypatch) -> list:
    """A list that gets one entry per `_stress_walk` call from now on."""
    calls, walk = [], mc._stress_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(mc, "_stress_walk", counted)
    return calls


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
    # place the critical plane z = -a_z, which the exchange map sends to
    # infinity, exactly at one lifted vertex: needs the shift
    heights = lift.heights()
    z = float(heights[np.argmax(np.abs(heights))])
    radial = mc.radial_vertical_convert(fw, lift, np.array([0.0, 0.0, -z]))
    assert radial.residuals["projection"] <= 1e-9


def test_radial_planes_pass_through_the_lifted_points(prism):
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    for a in ([0.5, 0.25, 7.0], [0.0, 0.0, 0.3], [-2.0, 1.0, -0.5]):
        radial = mc.radial_vertical_convert(fw, lift, np.array(a))
        assert np.max(radial.incidence_residuals()) <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(radial.face_planes[:, :3], axis=1), 1.0)
    bent = mc.PolyhedralLift(fw, lift.kind, lift.vertex_points.copy(), lift.face_planes)
    bent.vertex_points[4, 2] += 1e-3  # vertex 4 lies on two quadrilaterals
    with pytest.raises(mc.NonPlanarFace):
        mc.radial_vertical_convert(fw, bent, np.array([0.5, 0.25, 7.0]))


def test_radial_plane_through_the_center_is_refused(k4):
    # Vertex 3 on edge 0-1 puts face [0, 1, 3] on the line y = 0.  A radial
    # lift may carry that face on a plane through the center a, which Phi^-1
    # sends to the vertical plane y = 0, where no row (gx, gy, b) exists.
    fw, _ = k4
    coords = fw.coords[:, 1:].copy()
    coords[3] = (0.5, 0.0)
    flat = rk.build_framework(fw.graph, fw.space, coords, fw.embedding)
    a = np.array([0.5, 0.25, 7.0])
    level = mc.PolyhedralLift(flat, mc.LiftKind.VERTICAL, np.column_stack([coords, np.zeros(4)]),
                              np.zeros((4, 3)))
    radial = mc.radial_vertical_convert(flat, level, a)
    covector = np.array([0.0, 1.0, 0.0, 0.0]) @ mc._projective_exchange(a)
    radial.face_planes[0] = np.append(covector[:3], -covector[3]) / np.linalg.norm(covector[:3])
    assert np.max(radial.incidence_residuals()) <= 1e-15
    with pytest.raises(mc.NonPlanarFace, match="vertical plane"):
        mc.radial_vertical_convert(flat, radial, a)


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


def test_sph_base_is_perturbed_off_a_vertex_of_the_base_face(monkeypatch):
    # Rim vertex 0, on the exterior (base) face, lies on the plane of the
    # base face vector: <p_0, (1, 0.25, -0.4)> = 0, so c_0 = 0 on the first
    # walk and the base is perturbed before a lift can be built.
    rim = 6
    angles = np.pi + 2 * np.pi * np.arange(rim) / rim + np.array([0, .1, -.05, .08, -.1, .05])
    radii = np.array([4, 1, 1.1, 0.9, 1.2, 1.0])
    xy = np.vstack([radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]),
                    [0.05, 0.02]])
    pts = np.column_stack([np.ones(rim + 1), xy])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[0] = np.array([1.0, -4.0, 0.0]) / np.sqrt(17.0)
    edges = [(k, (k + 1) % rim) for k in range(rim)] + [(k, rim) for k in range(rim)]
    faces = [[k, (k + 1) % rim, rim] for k in range(rim)] + [list(reversed(range(rim)))]
    g = rk.graph(rim + 1, edges)
    fw = rk.build_framework(g, rk.spherical(2), pts,
                            rk.validate_embedding(g, faces, exterior_face=rim))
    base = np.array(mc._BASE_VECTOR["S"])
    assert fw.coords[0] @ base == 0.0
    w = rk.static_spaces(fw).self_stress_basis[0]
    assert np.min(np.abs(w.values)) > 1e-2
    walks = _count_walks(monkeypatch)
    lift = mc.convert(fw, w, to="lift")
    assert len(walks) == 1  # each perturbed base b reads b + W off the one walk W
    assert lift.kind is mc.LiftKind.SPHERICAL_WEAK
    assert not np.allclose(lift.face_planes[rim], base)
    assert lift.residuals["incidence"] <= 1e-12
    assert np.max(np.abs(mc.convert(fw, lift, to="stress").values - w.values)) <= 1e-12


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


@pytest.mark.parametrize("factor, scale", [(100.0, 0.0625), (1e6, 2.0 ** -18)])
def test_hyp_stress_is_halved_into_the_upper_cone(factor, scale, monkeypatch):
    # A large stress puts face normals outside the upper cone; it is halved
    # until all are in it, and the stress read back is the halved one.
    fw, w = _curved_prism("H")
    big = w.scaled(factor)
    walks = _count_walks(monkeypatch)
    lift = mc.convert(fw, big, to="lift")
    assert len(walks) == 1  # each scale s reads b + s W off the one walk W
    assert lift.stress_scale == scale
    np.testing.assert_allclose(mc.convert(fw, lift, to="stress").values,
                               scale * big.values, rtol=1e-12)


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


def test_lift_conversion_refuses_vertices_off_its_planes(prism, tmp_path, capsys):
    # A lift is read by its stored face planes, in E, S and H alike, so
    # stored planes or vertex points that disagree are refused, not refitted.
    rng = np.random.RandomState(0)
    for space in "ESH":
        fw, w = prism if space == "E" else _curved_prism(space)
        lift = mc.convert(fw, w, to="lift")
        moved = lift.vertex_points + rng.standard_normal(lift.vertex_points.shape)
        for planes, points in ((np.zeros_like(lift.face_planes), lift.vertex_points),
                               (rng.standard_normal(lift.face_planes.shape), lift.vertex_points),
                               (lift.face_planes, moved)):
            stored = mc.PolyhedralLift(fw, lift.kind, points, planes)
            for to in ("stress", "reciprocal"):
                with pytest.raises(mc.NonPlanarFace, match="off the plane"):
                    mc.convert(fw, stored, to=to)
        # Incident, but every face on the base face's plane: the dual edges
        # collapse.
        m = lift.face_planes[mc._base_face(fw)]
        if space == "E":
            flat = np.column_stack([fw.coords[:, 1:], fw.coords[:, 1:] @ m[:2] + m[2]])
        else:
            kappa = 1.0 if space == "S" else -1.0
            flat = fw.coords * (kappa / rk.signed_inner(np.tile(m, (fw.n, 1)), fw.coords,
                                                        fw.space))[:, None]
        one = mc.PolyhedralLift(fw, lift.kind, flat, np.tile(m, (len(lift.face_planes), 1)))
        with pytest.raises(mc.NonPlanarFace, match="one plane"):
            mc.convert(fw, one, to="stress")
        # The command line: one vertex moved off its planes exits 3.
        rk.save_framework(tmp_path / "fw.json", fw)
        bent = lift.to_dict()
        bent["vertex_points"][4][2] += 1e-3
        (tmp_path / "lift.json").write_text(json.dumps(bent))
        capsys.readouterr()
        assert cli.main(["mc", str(tmp_path / "fw.json"), "--direction", "lift2stress",
                         "--object", str(tmp_path / "lift.json"),
                         "-o", str(tmp_path / "out.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("conversion failed: lifted vertex 4 is off the plane of face")
        assert err.count("\n") == 1


def _gallery_stress(name, space):
    """A gallery fixture with its stress in E, or on S or H: the image of the
    fixture shrunk by 0.1, with the stress carried by the map."""
    doc = rk.gallery.fixture(name)
    fw = doc.framework
    w = rk.stress_from_dict(fw, doc.stress)
    if space == "E":
        return fw, w
    fmap = tr.FrameworkMap(tr.geodesic_map(space), scaled_into_chart(fw, 0.1))
    return fmap.image, fmap.stress(w)


@pytest.mark.parametrize("space", ["E", "S", "H"])
@pytest.mark.parametrize("name", ["k4-centroid", "prism3-concurrent"])
def test_written_lift_planes_are_the_least_squares_fit(name, space):
    # Lifts are built from their face vectors, never fitted; each plane
    # written must still be the fit through the face's lifted vertices.
    fw, w = _gallery_stress(name, space)
    lifts = [mc.convert(fw, w, to="lift"),
             mc.convert(fw, mc.convert(fw, w, to="reciprocal"), to="lift")]
    if space == "E":
        heights = lifts[0].heights()
        autoshift = [0.0, 0.0, -float(heights[np.argmax(np.abs(heights))])]
        for a in ([0.5, 0.25, 7.0], [0.0, 0.0, 0.3], [-2.0, 1.0, -0.5], autoshift):
            radial = mc.radial_vertical_convert(fw, lifts[0], a)
            lifts += [radial, mc.radial_vertical_convert(fw, radial, a)]
    for lift in lifts:
        fit = fitted_face_planes(lift)
        assert np.max(np.abs(lift.face_planes - fit)) <= 1e-9 * np.max(np.abs(fit))


# --- non-finite objects built in Python ----------------------------------------
#
# Files are checked by `_numeric`; objects built in Python are checked by
# `convert` and `radial_vertical_convert` before any arithmetic.  Unchecked,
# NaN passes every residual test `worst > limit` and comes out as NaN.

@pytest.mark.parametrize("to", ["lift", "reciprocal"])
def test_stress_with_nan_is_refused(prism, to):
    fw, w = prism
    values = w.values.copy()
    values[0] = np.nan
    with pytest.raises(RigidkitError, match="values must be finite"):
        mc.convert(fw, rk.Stress(fw.graph, values), to=to)


def test_reciprocal_with_nan_is_refused(prism):
    fw, w = prism
    rec = mc.convert(fw, w, to="reciprocal")
    rec.positions[1, 0] = np.nan
    with pytest.raises(RigidkitError, match="positions must be finite"):
        mc.convert(fw, rec, to="stress")
    rec = mc.convert(fw, w, to="reciprocal")
    rec.base_scale = np.inf
    with pytest.raises(RigidkitError, match="base_scale must be finite"):
        mc.convert(fw, rec, to="lift")


@pytest.mark.parametrize("a", [[np.nan, 0, 1], [np.inf, 0, 1], [0, 0, np.nan]])
def test_non_finite_projection_center_is_refused(prism, a):
    # unchecked: a NaN lift with a NaN projection residual, a RuntimeWarning,
    # and a misleading UnremovableIncidence
    fw, w = prism
    lift = mc.convert(fw, w, to="lift")
    with pytest.raises(RigidkitError, match="projection center must be finite"):
        mc.radial_vertical_convert(fw, lift, a)


def _with_nan(obj, key):
    """`obj` with NaN in the first entry of its field `key`."""
    if np.ndim(getattr(obj, key)):
        getattr(obj, key)[0] = np.nan
    else:
        setattr(obj, key, np.nan)
    return obj


@pytest.mark.parametrize("key", ["vertex_points", "face_planes", "stress_scale"])
def test_lift_with_nan_is_refused(prism, key):
    fw, w = prism
    lift = _with_nan(mc.convert(fw, w, to="lift"), key)
    with pytest.raises(RigidkitError, match="%s must be finite" % key):
        mc.convert(fw, lift, to="stress")
    with pytest.raises(RigidkitError, match="%s must be finite" % key):
        mc.radial_vertical_convert(fw, lift, [0.5, 0.25, 7.0])


def test_radial_lift_with_nan_center_is_refused(prism):
    fw, w = prism
    radial = mc.radial_vertical_convert(fw, mc.convert(fw, w, to="lift"), [0.5, 0.25, 7.0])
    _with_nan(radial, "radial_center")
    with pytest.raises(RigidkitError, match="radial_center must be finite"):
        mc.radial_vertical_convert(fw, radial, [0.5, 0.25, 7.0])
