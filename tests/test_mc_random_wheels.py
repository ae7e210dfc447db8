"""Randomized Maxwell-Cremona property tests on wheel frameworks.

Wheels (hub joined to every rim vertex) are planar and 3-connected with
2n + 1 edges on n + 1 vertices, so a generic realization carries exactly one
self-stress that is nonzero on every edge; faces vary in size, which
exercises the dual-walk closure far beyond the fixed fixtures.
"""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import maxwell_cremona as mc, transforms as tr
from rigidkit.errors import NoExteriorFace, NotEmbedded

from oracles import convexity_classify, is_convex_ccw


def make_wheel(rng, n_rim):
    hub = n_rim
    edges = [(k, (k + 1) % n_rim) for k in range(n_rim)]
    edges += [(k, hub) for k in range(n_rim)]
    # jittered evenly-spread angles: every gap below pi, so the rim polygon
    # winds around the origin and the hub sits inside every triangle's side
    angles = 2 * np.pi * (np.arange(n_rim) + rng.uniform(0.15, 0.85, n_rim)) / n_rim
    radii = rng.uniform(0.9, 1.3, n_rim)
    rim = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    hub_xy = 0.05 * rng.standard_normal(2)
    coords = np.vstack([rim, hub_xy])
    faces = [[k, (k + 1) % n_rim, hub] for k in range(n_rim)]
    faces.append(list(reversed(range(n_rim))))
    g = rk.graph(n_rim + 1, edges)
    emb = rk.validate_embedding(g, faces, exterior_face=n_rim)
    return rk.build_framework(g, rk.euclidean(2), coords, emb)


@pytest.mark.parametrize("seed", [3, 17, 29, 404])
def test_wheel_conversion_loops(seed):
    rng = np.random.RandomState(seed)
    done = 0
    while done < 4:
        fw = make_wheel(rng, int(rng.randint(4, 9)))
        if fw is None:
            continue
        basis = rk.static_spaces(fw).self_stress_basis
        assert len(basis) == 1
        w = basis[0]
        assert np.min(np.abs(w.values)) > 1e-8
        scale = np.max(np.abs(w.values))
        rec = mc.convert(fw, w, to="reciprocal")
        assert np.max(rec.perpendicularity_residuals()) <= 1e-9
        w2 = mc.convert(fw, rec, to="stress")
        assert np.max(np.abs(w2.values - w.values)) <= 1e-9 * scale
        lift = mc.convert(fw, rec, to="lift")
        assert np.max(lift.incidence_residuals()) <= 1e-9
        w3 = mc.convert(fw, lift, to="stress")
        assert np.max(np.abs(w3.values - w.values)) <= 1e-8 * scale
        # curved loops on the shrunk copy
        small = tr.apply_map(tr.affine_map(np.eye(2) * 0.3), fw)
        for target in ("S", "H"):
            fx = tr.apply_map(tr.geodesic_map(target), small)
            wx = rk.static_spaces(fx).self_stress_basis[0]
            ref_scale = np.max(np.abs(wx.values))
            liftx = mc.convert(fx, wx, to="lift")
            factor = liftx.stress_scale  # 1 on S; the cone halving on H
            recx = mc.convert(fx, liftx, to="reciprocal")
            wx2 = mc.convert(fx, mc.convert(fx, recx, to="lift"), to="stress")
            assert np.max(recx.perpendicularity_residuals()) <= 1e-9
            assert np.max(np.abs(wx2.values - factor * wx.values)) <= \
                1e-8 * factor * ref_scale
        done += 1


@pytest.mark.parametrize("seed", [5, 23])
def test_wheel_classification_booleans_agree(seed):
    # convex-variant equivalence on convex-rim wheels: the three sign
    # patterns agree for the canonical hub-positive stress (and all hold).
    rng = np.random.RandomState(seed)
    done = 0
    while done < 3:
        fw = make_wheel(rng, int(rng.randint(4, 8)))
        if fw is None:
            continue
        rim = fw.coords[:-1, 1:]
        if not is_convex_ccw(rim):
            continue
        w = rk.static_spaces(fw).self_stress_basis[0]
        hub_edge = (0, fw.n - 1)
        if w[hub_edge] < 0:
            w = w.scaled(-1.0)
        rec = mc.convert(fw, w, to="reciprocal")
        lift = mc.convert(fw, rec, to="lift")
        report = mc.euclid_convexity_classify(fw, stress=w, reciprocal=rec, lift=lift)
        assert report.stress_pattern == report.reciprocal_pattern == report.lift_convex
        assert report.stress_pattern is True
        done += 1


def _classified(fw, w, rec, lift):
    """euclid_convexity_classify's fields, or its error as (class name, message)."""
    try:
        r = mc.euclid_convexity_classify(fw, stress=w, reciprocal=rec, lift=lift)
    except (NotEmbedded, NoExteriorFace) as exc:
        return type(exc).__name__, str(exc)
    return {"exterior_face": r.exterior_face, "boundary_edges": r.boundary_edges,
            **r.classifications}


def _dented(fw, rng):
    """The wheel with one rim vertex pulled towards the hub: a reflex rim corner."""
    xy = fw.coords[:, 1:].copy()
    k = int(rng.randint(fw.n - 1))
    xy[k] = 0.6 * xy[k] + 0.4 * xy[-1]
    return rk.build_framework(fw.graph, fw.space, xy, fw.embedding)


def _outside(fw):
    """The wheel with its hub moved outside the rim: clockwise triangles."""
    xy = fw.coords[:, 1:].copy()
    xy[-1] = (3.0, 0.5)
    return rk.build_framework(fw.graph, fw.space, xy, fw.embedding)


def test_classification_matches_per_face_reference():
    rng = np.random.RandomState(61)
    cases = [(doc.framework, rk.stress_from_dict(doc.framework, doc.stress))
             for doc in map(rk.gallery.fixture, ("prism3-concurrent", "k4-centroid"))]
    while len(cases) < 26:
        fw = make_wheel(rng, int(rng.randint(4, 12)))
        for fx in (fw, _dented(fw, rng), _outside(fw)):
            cases.append((fx, rk.static_spaces(fx).self_stress_basis[0]))
    outcomes = []
    for fw, w in cases:
        # both signs of the self-stress with their reciprocals and lifts, then
        # random objects with mixed signs
        for sign in (1.0, -1.0):
            ws = w.scaled(sign)
            rec = mc.convert(fw, ws, to="reciprocal")
            lift = mc.convert(fw, rec, to="lift")
            objects = [(ws, rec, lift), (ws, None, None), (None, rec, None), (None, None, lift)]
            for w_, rec_, lift_ in objects:
                got = _classified(fw, w_, rec_, lift_)
                assert got == convexity_classify(
                    fw, None if w_ is None else w_.values_on(fw.graph),
                    None if rec_ is None else rec_.positions,
                    None if lift_ is None else lift_.face_planes)
                outcomes.append(got if isinstance(got, tuple) else tuple(got.values())[2:])
        planes = lift.face_planes + 0.05 * rng.standard_normal(lift.face_planes.shape)
        noise = mc.PolyhedralLift(fw, mc.LiftKind.VERTICAL, lift.vertex_points, planes)
        w_mixed = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
        rec_mixed = mc.ReciprocalDiagram(fw, rng.standard_normal(rec.positions.shape))
        got = _classified(fw, w_mixed, rec_mixed, noise)
        assert got == convexity_classify(fw, w_mixed.values_on(fw.graph), rec_mixed.positions,
                                         noise.face_planes)
    # prism3-concurrent drawn with a flat corner (a zero turn) in face 2, and
    # with reflex corners in faces 2 and 4: the error names the lowest face
    prism = cases[0][0]
    for moves in ({3: (-1.0, 1.5)}, {4: (-3.0, -1.0), 5: (3.5, -1.0)}):
        xy = prism.coords[:, 1:].copy()
        for v, p in moves.items():
            xy[v] = p
        fw = rk.build_framework(prism.graph, prism.space, xy, prism.embedding)
        w_mixed = rk.Stress(fw.graph.edges, rng.standard_normal(fw.m))
        got = _classified(fw, w_mixed, None, None)
        assert got == convexity_classify(fw, w_mixed.values_on(fw.graph))
        assert got == ("NotEmbedded", "face 2 is not a convex polygon in the drawing")
    # every outcome occurs: both errors, and each pattern both true and false
    kinds = {o[0] for o in outcomes if isinstance(o[0], str)}
    assert kinds == {"NotEmbedded", "NoExteriorFace"}
    patterns = [o for o in outcomes if not isinstance(o[0], str)]
    for k in range(3):
        assert {o[k] for o in patterns} >= {True, False}
