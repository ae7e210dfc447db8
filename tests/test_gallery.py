import numpy as np
import pytest

import rigidkit as rk
from rigidkit import kinematics


def test_names_and_lookup():
    for name in rk.gallery.GALLERY_NAMES:
        doc = rk.gallery.fixture(name)
        assert doc.framework.n > 0
        assert doc.description
    with pytest.raises(KeyError):
        rk.gallery.fixture("nonesuch")


def test_expected_verdicts():
    expected = {
        "triangle": 0,
        "square4bar": 1,
        "prism3-concurrent": 1,
        "prism3-generic": 0,
        "k33-generic": 0,
        "octa-blaschke": 1,
        "octa-generic": 0,
        "schoenhardt": 1,
        "cube-triangulated": 0,
        "k4-centroid": 0,
        "jessen:0.5": 1,
    }
    for name, dof in expected.items():
        fw = rk.gallery.fixture(name).framework
        assert rk.kinematic_dof(fw) == dof, name
    assert rk.kinematic_dof(rk.gallery.fixture("k33-circle").framework) >= 1


def test_prism_stress_attachment_exact(prism_doc):
    # frozen from the exact rational nullspace: outer -1/6, inner 1/3, spokes 1
    s = prism_doc.stress
    assert s[(0, 3)] == 1.0
    for e in ((1, 4), (2, 5)):
        assert s[e] == pytest.approx(1.0, abs=1e-12)
    for e in ((0, 1), (1, 2), (0, 2)):
        assert s[e] == pytest.approx(-1.0 / 6.0, abs=1e-12)
    for e in ((3, 4), (4, 5), (3, 5)):
        assert s[e] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_k4_stress_attachment():
    s = rk.gallery.fixture("k4-centroid").stress
    for e in ((0, 3), (1, 3), (2, 3)):
        assert s[e] == pytest.approx(1.0, abs=1e-9)
    for e in ((0, 1), (0, 2), (1, 2)):
        assert s[e] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_k33_circle_flex_attachment():
    doc = rk.gallery.fixture("k33-circle")
    fw = doc.framework
    q = rk.vector_field(fw, doc.field)
    assert np.max(kinematics.edge_residuals(q)) <= 1e-12
    # and it is nontrivial: it stretches a non-edge pair (two part-A vertices)
    trivial = rk.motion_spaces(fw).basis_V0
    flat = q.vecs.ravel().copy()
    for t in trivial:
        flat -= (flat @ t.vecs.ravel()) * t.vecs.ravel()
    assert np.linalg.norm(flat) > 1e-6


def test_schoenhardt_geometry():
    fw = rk.gallery.fixture("schoenhardt").framework
    xy = fw.coords[:, 1:3]
    # concentric regular triangles of equal circumradius
    assert np.allclose(np.linalg.norm(xy, axis=1), 1.0)
    # projected base edges pairwise perpendicular
    bottom_dirs = [xy[j] - xy[i] for i, j in ((0, 1), (1, 2), (2, 0))]
    top_dirs = [xy[j] - xy[i] for i, j in ((3, 4), (4, 5), (5, 3))]
    dots = sorted(abs(float(np.dot(b, t))) for b in bottom_dirs for t in top_dirs)
    assert np.allclose(dots[:3], 0.0, atol=1e-12)
    # white faces (top triangle + the three bottom-edge triangles) meet at
    # the apex of the axis, which certifies the flexibility criterion
    apex = np.array([0.0, 0.0, 1.0])
    for tri in ((3, 4, 5), (0, 1, 4), (1, 2, 5), (2, 0, 3)):
        pts = fw.coords[list(tri), 1:]
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        assert abs(float(normal @ (apex - pts[0]))) <= 1e-12


def test_octa_blaschke_white_planes_concurrent():
    fw = rk.gallery.fixture("octa-blaschke").framework
    # white faces: all triangles of vertices sharing one defining plane
    whites = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    for tri in whites:
        pts = fw.coords[list(tri), 1:]
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        # the plane passes through the origin
        assert abs(float(normal @ pts[0])) <= 1e-12


def test_jessen_counts():
    fw = rk.gallery.fixture("jessen:0.5").framework
    assert (fw.n, fw.m) == (12, 30)
    degrees = np.zeros(12, dtype=int)
    for i, j in fw.graph.edges:
        degrees[i] += 1
        degrees[j] += 1
    assert set(degrees) == {5}  # icosahedral graph is 5-regular
    with pytest.raises(ValueError):
        rk.gallery.fixture("jessen:1.5")


def test_cube_triangulated_counts():
    fw = rk.gallery.fixture("cube-triangulated").framework
    assert (fw.n, fw.m) == (8, 18)
    assert rk.generic_dof_count(fw.graph, 3) == 0
