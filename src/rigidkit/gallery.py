"""Named example frameworks used by the CLI and the test suite.

Most fixtures realize classical flexibility criteria: the homothetic
3-prism (spoke lines concurrent), K_{3,3} on a circle (vertices on a
conic), an octahedron whose four white-face planes meet at a point, the
twisted-prism octahedron, and the one-parameter icosahedron family whose
t and 1-t members are isometric.
"""

import numpy as np

from . import statics
from .frameworks import Framework, FrameworkDocument, build_framework
from .graphs import graph, validate_embedding
from .spaces import euclidean


def _doc(fw: Framework, description, stress=None, field=None) -> FrameworkDocument:
    return FrameworkDocument(fw, stress=stress, field=field, description=description)


def _euclidean_framework(n, edges, coords, faces=None, exterior=None) -> Framework:
    g = graph(n, edges)
    emb = validate_embedding(g, faces, exterior) if faces is not None else None
    return build_framework(g, euclidean(len(coords[0])), coords, emb)


def _canonical_self_stress(fw: Framework, positive_edge) -> dict:
    """The 1-dim self-stress, scaled to +1 on `positive_edge`."""
    basis = statics.static_spaces(fw).self_stress_basis
    if len(basis) != 1:
        raise RuntimeError("fixture expected a one-dimensional self-stress space")
    w = basis[0]
    anchor = w[positive_edge]
    values = w.values / anchor
    return {e: float(v) for e, v in zip(w.edges, values)}


def triangle() -> FrameworkDocument:
    fw = _euclidean_framework(
        3, [(0, 1), (0, 2), (1, 2)],
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        faces=[[0, 1, 2], [0, 2, 1]], exterior=1,
    )
    return _doc(fw, "rigid triangle in the plane")


def square4bar() -> FrameworkDocument:
    fw = _euclidean_framework(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        faces=[[0, 1, 2, 3], [0, 3, 2, 1]], exterior=1,
    )
    return _doc(fw, "four-bar linkage: a flexible quadrilateral")


_PRISM_OUTER = [(0.0, 4.0), (-4.0, -2.0), (4.0, -2.0)]
_PRISM_EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
_PRISM_FACES = [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 3, 5]]


def prism3_concurrent() -> FrameworkDocument:
    inner = [(x / 2.0, y / 2.0) for x, y in _PRISM_OUTER]
    fw = _euclidean_framework(6, _PRISM_EDGES, _PRISM_OUTER + inner,
                              faces=_PRISM_FACES, exterior=0)
    stress = _canonical_self_stress(fw, (0, 3))
    return _doc(fw, "triangular prism framework, spoke lines concurrent at the "
                    "homothety center; infinitesimally flexible", stress=stress)


def prism3_generic() -> FrameworkDocument:
    inner = [(x / 2.0, y / 2.0) for x, y in _PRISM_OUTER]
    inner[0] = (inner[0][0] + 0.1, inner[0][1] + 0.07)
    fw = _euclidean_framework(6, _PRISM_EDGES, _PRISM_OUTER + inner,
                              faces=_PRISM_FACES, exterior=0)
    return _doc(fw, "triangular prism framework with one inner vertex displaced; "
                    "the spoke lines are no longer concurrent")


def _k33_circle_coords():
    part_a = [0.0, 120.0, 240.0]
    part_b = [60.0, 180.0, 300.0]
    coords = []
    for deg in part_a + part_b:
        rad = np.deg2rad(deg)
        coords.append((float(np.cos(rad)), float(np.sin(rad))))
    return coords


def k33_circle() -> FrameworkDocument:
    coords = _k33_circle_coords()
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    fw = _euclidean_framework(6, edges, coords)
    # Radial flex: outward on one part, inward on the other.
    field = np.zeros((6, 3))
    for i in range(6):
        sign = 1.0 if i < 3 else -1.0
        field[i, 1:] = sign * np.asarray(coords[i])
    return _doc(fw, "K(3,3) with both parts on the unit circle; flexible because "
                    "the six vertices lie on a conic", field=field)


def k33_generic() -> FrameworkDocument:
    rng = np.random.RandomState(2024)
    coords = [
        (x + 0.15 * rng.standard_normal(), y + 0.15 * rng.standard_normal())
        for x, y in _k33_circle_coords()
    ]
    edges = [(a, b) for a in range(3) for b in range(3, 6)]
    fw = _euclidean_framework(6, edges, coords)
    return _doc(fw, "K(3,3) with seeded generic positions, off any conic")


def octa_blaschke() -> FrameworkDocument:
    # Vertices chosen on the pairwise intersection lines of four planes
    # through the origin, so the four white faces are concurrent there.
    coords = [
        (0.0, 0.0, 1.0),   # planes 1,2
        (0.0, 1.0, 0.0),   # planes 1,3
        (0.0, 1.0, -1.0),  # planes 1,4
        (1.0, 0.0, 0.0),   # planes 2,3
        (1.0, 0.0, -1.0),  # planes 2,4
        (1.0, -1.0, 0.0),  # planes 3,4
    ]
    non_edges = {(0, 5), (1, 4), (2, 3)}
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if (i, j) not in non_edges]
    fw = _euclidean_framework(6, edges, coords)
    return _doc(fw, "octahedron with the four white-face planes meeting at the "
                    "origin; infinitesimally flexible")


def octa_generic() -> FrameworkDocument:
    """Seeded generic octahedron (rigid); companion to octa-blaschke."""
    rng = np.random.RandomState(7)
    base = np.array([
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    ])
    coords = base + 0.1 * rng.standard_normal(base.shape)
    non_edges = {(0, 1), (2, 3), (4, 5)}
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if (i, j) not in non_edges]
    fw = _euclidean_framework(6, edges, [tuple(c) for c in coords])
    return _doc(fw, "perturbed regular octahedron; generic, hence rigid")


def schoenhardt() -> FrameworkDocument:
    """Twisted-prism octahedron: regular concentric bases whose edges project
    to pairwise perpendicular directions; infinitesimally flexible."""
    bottom = [90.0, 210.0, 330.0]
    top = [120.0, 240.0, 0.0]
    coords = [(float(np.cos(np.deg2rad(a))), float(np.sin(np.deg2rad(a))), 0.0)
              for a in bottom]
    coords += [(float(np.cos(np.deg2rad(a))), float(np.sin(np.deg2rad(a))), 1.0)
               for a in top]
    edges = [(0, 1), (1, 2), (2, 0),      # bottom triangle
             (3, 4), (4, 5), (5, 3),      # top triangle
             (0, 3), (1, 4), (2, 5),      # prism verticals
             (0, 4), (1, 5), (2, 3)]      # reflex diagonals
    fw = _euclidean_framework(6, edges, coords)
    return _doc(fw, "twisted triangular prism octahedron with perpendicular "
                    "projected base edges; infinitesimally flexible")


def jessen(t: float) -> FrameworkDocument:
    """One-parameter icosahedral family: rectangles (+-1, +-t, 0) and cyclic
    rotations, long rectangle sides kept, short sides replaced by the eight
    equilateral-triangle edge cycles."""
    if not 0.0 < t < 1.0:
        raise ValueError("jessen parameter must satisfy 0 < t < 1")
    signs = (1.0, -1.0)
    index = {}
    coords = []

    def vid(kind, s1, s2):
        key = (kind, s1, s2)
        if key not in index:
            index[key] = len(coords)
            if kind == "a":
                coords.append((s1, s2 * t, 0.0))
            elif kind == "b":
                coords.append((0.0, s1, s2 * t))
            else:
                coords.append((s2 * t, 0.0, s1))
        return index[key]

    edges = set()
    for e1 in signs:
        for e2 in signs:
            for e3 in signs:
                a = vid("a", e1, e2)
                b = vid("b", e2, e3)
                c = vid("c", e3, e1)
                edges.update({tuple(sorted(p)) for p in ((a, b), (b, c), (c, a))})
    for kind in ("a", "b", "c"):
        for s in signs:
            edges.add(tuple(sorted((vid(kind, 1.0, s), vid(kind, -1.0, s)))))
    fw = _euclidean_framework(12, sorted(edges), coords)
    return _doc(fw, "icosahedral framework p(t) with t = %g; p(t) and p(1-t) "
                    "are isometric and p(1/2) is infinitesimally flexible" % t)


def cube_triangulated() -> FrameworkDocument:
    coords = [((i >> 2 & 1) * 2.0 - 1.0, (i >> 1 & 1) * 2.0 - 1.0, (i & 1) * 2.0 - 1.0)
              for i in range(8)]
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if bin(i ^ j).count("1") == 1]
    # One diagonal per face, through the face's smallest vertex index.
    for axis in range(3):
        for side in (0, 1):
            face = [i for i in range(8) if (i >> (2 - axis)) & 1 == side]
            edges.append((face[0], face[3]))
    fw = _euclidean_framework(8, edges, coords)
    return _doc(fw, "cube skeleton with one diagonal per face; rigid by the "
                    "convex-polyhedron criterion")


def k4_centroid() -> FrameworkDocument:
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0 / 3.0, 1.0 / 3.0)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    faces = [[0, 1, 3], [1, 2, 3], [2, 0, 3], [0, 2, 1]]
    fw = _euclidean_framework(4, edges, coords, faces=faces, exterior=3)
    stress = _canonical_self_stress(fw, (0, 3))
    return _doc(fw, "K4 on a triangle plus its centroid; rigid with a "
                    "one-dimensional self-stress, positive on the spokes",
                stress=stress)


_FIXTURES = {
    "triangle": triangle,
    "square4bar": square4bar,
    "prism3-concurrent": prism3_concurrent,
    "prism3-generic": prism3_generic,
    "k33-circle": k33_circle,
    "k33-generic": k33_generic,
    "octa-blaschke": octa_blaschke,
    "octa-generic": octa_generic,
    "schoenhardt": schoenhardt,
    "cube-triangulated": cube_triangulated,
    "k4-centroid": k4_centroid,
}

#: Fixtures whose defining coordinates are exact binary rationals, so the
#: exact rational rank oracle certifies their verdicts.
EXACT_RATIONAL = (
    "triangle", "square4bar", "prism3-concurrent", "prism3-generic",
    "k33-generic", "octa-blaschke", "octa-generic", "cube-triangulated",
    "k4-centroid", "jessen:0.5",
)

#: The gallery names of the acceptance suite (jessen is parametrized).
GALLERY_NAMES = tuple(sorted(_FIXTURES)) + ("jessen:0.5",)


def names():
    return tuple(sorted(_FIXTURES)) + ("jessen:<t>",)


def fixture(name: str) -> FrameworkDocument:
    """Look up a fixture by CLI name; jessen takes a parameter, e.g. jessen:0.5."""
    if name.startswith("jessen:"):
        return jessen(float(name.split(":", 1)[1]))
    if name == "jessen":
        return jessen(0.5)
    if name not in _FIXTURES:
        raise KeyError(
            "unknown example %r; available: %s" % (name, ", ".join(names()))
        )
    return _FIXTURES[name]()
