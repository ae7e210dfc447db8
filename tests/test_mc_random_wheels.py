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
from rigidkit.maxwell_cremona import _is_convex_ccw


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
        if not _is_convex_ccw(rim):
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
