import numpy as np
import pytest

import rigidkit as rk
from rigidkit.errors import EdgeFaceMismatch, EulerViolation, GraphError, OrientationInconsistent
from test_sparse import wheel
from rigidkit.graphs import is_23_sparse

from oracles import (
    brute_force_23_sparse,
    brute_force_3_connected,
    brute_force_laman,
    check_edges_reference,
    directed_faces,
    random_graph,
    random_plane_graph,
    validate_embedding_reference,
)
from rigidkit.errors import RigidkitError

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TETRA_FACES = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]

CUBE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
              (0, 4), (1, 5), (2, 6), (3, 7)]
CUBE_FACES = [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
              [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]

PRISM_EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
PRISM_FACES = [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 3, 5]]


def test_graph_validation():
    with pytest.raises(GraphError):
        rk.graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        rk.graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        rk.graph(2, [(0, 5)])


def _outcome(check, *args):
    """(error class, message) of the RigidkitError `check` raises, else None."""
    try:
        check(*args)
    except RigidkitError as exc:
        return type(exc), str(exc)
    return None


def _graph_outcome(n, edges):
    return _outcome(rk.Graph, n, tuple(edges))


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 1), (2, 5)],          # a loop before an edge out of range
    [(0, 1), (3, 0), (1, 1)],          # out of range, then a loop
    [(0, 1), (1, 2), (-1, 2)],         # out of range below
    [(0, 1), (1, 2), (2, 1), (0, 1)],  # a duplicate, either way round
    [(0, 1), (1, 2, 0), (1, 1)],       # not a pair before a loop
    [(0, 0), (1, 2, 0)],               # a loop before an edge that is not a pair
    [(0, 1), (0, 2), (1, 2)],          # fine
])
def test_graph_refuses_what_the_edge_loop_refuses(edges):
    ref = _outcome(check_edges_reference, 3, edges)
    assert _graph_outcome(3, edges) == ref
    assert (ref is None) == (edges == [(0, 1), (0, 2), (1, 2)])


def test_graph_matches_the_edge_loop_on_mutated_edge_lists():
    rng = np.random.RandomState(5)
    refused = 0
    for _ in range(400):
        n = int(rng.randint(2, 9))
        edges = random_graph(rng, n)
        for _ in range(int(rng.randint(0, 3))):
            k = int(rng.randint(len(edges)))
            i, j = edges[k]
            edges[k] = [(j, i), (i, i), (i, n + int(rng.randint(3))), (i, -1)][rng.randint(4)]
            edges.insert(int(rng.randint(len(edges) + 1)), edges[int(rng.randint(len(edges)))])
        ref = _outcome(check_edges_reference, n, edges)
        assert _graph_outcome(n, edges) == ref, edges
        refused += ref is not None
    assert 100 < refused < 400


def _embedding_outcome(g, faces, exterior=None):
    ref = _outcome(validate_embedding_reference, g, faces, exterior)
    assert _outcome(rk.validate_embedding, g, faces, exterior) == ref
    return ref


@pytest.mark.parametrize("faces, error, message", [
    # a short face before a face with a non-edge, and after one
    ([[0, 2], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 4, 5]],
     EdgeFaceMismatch, "face 0 has fewer than 3 vertices"),
    ([[0, 2, 1], [3, 0, 5], [0, 1, 4, 3], [1, 2], [2, 0, 3, 5]],
     EdgeFaceMismatch, "face 1 uses non-edge (0, 5)"),
    # a short face and a non-edge in one face: the face is short first
    ([[0, 2, 1], [3, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 4, 5]],
     EdgeFaceMismatch, "face 1 has fewer than 3 vertices"),
    ([[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 4, 5]],
     EdgeFaceMismatch, "face 4 uses non-edge (0, 4)"),
    ([[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 9, 5]],
     EdgeFaceMismatch, "face 4 uses non-edge (0, 9)"),
    # a directed edge on two faces
    ([[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [0, 2, 5, 3]],
     OrientationInconsistent, "directed edge (0, 2) used by faces 0 and 4"),
    # Euler's count
    ([[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4]],
     EulerViolation, "n - m + f = 6 - 9 + 4 != 2"),
])
def test_validate_embedding_refuses_what_the_corner_loop_refuses(faces, error, message):
    g = rk.graph(6, PRISM_EDGES)
    assert _embedding_outcome(g, faces) == (error, message)


def test_edges_on_one_face_and_on_three_as_the_corner_loop():
    faces = TETRA_FACES[:3] + [[0, 1, 2]]  # 0-1 and 0-2 on three faces, 1-3 and 2-3 on one
    assert _embedding_outcome(rk.graph(4, K4_EDGES), faces) == (
        EdgeFaceMismatch, "edges not on exactly two faces: [(0, 1), (0, 2), (1, 3), (2, 3)]")


@pytest.mark.parametrize("exterior", [-1, 5, 7])
def test_exterior_face_out_of_range_as_the_corner_loop(exterior):
    g = rk.graph(6, PRISM_EDGES)
    assert _embedding_outcome(g, PRISM_FACES, exterior) == (
        GraphError, "exterior face index out of range")


def test_validate_embedding_matches_the_corner_loop_on_mutated_faces():
    rng = np.random.RandomState(11)
    outcomes = set()
    for _ in range(600):
        n = int(rng.randint(4, 11))
        edges, faces = random_plane_graph(rng, n, int(rng.randint(0, 4)))
        faces = [list(cyc) for cyc in faces]
        for _ in range(int(rng.randint(1, 3))):
            mutable = [b for b, cyc in enumerate(faces) if len(cyc) >= 3]
            if not mutable:
                break
            a = int(rng.choice(mutable))
            cyc, k = faces[a], int(rng.randint(len(faces[a])))
            kind = rng.randint(8)
            if kind == 0:
                cyc[k] = int(rng.randint(-1, n + 2))      # any vertex, maybe out of range
            elif kind == 1:
                del cyc[k]                                # a shorter face
            elif kind == 2:
                faces[a] = cyc[::-1]                      # the other orientation
            elif kind == 3:
                cyc[k], cyc[-1] = cyc[-1], cyc[k]         # two corners swapped
            elif kind == 4:
                faces[a] = cyc[:2]                        # a face of two vertices
            elif kind == 5:
                faces.append(faces.pop(a)[::-1])          # reversed and moved last
            elif kind == 6:
                faces[a], faces[-1] = faces[-1], faces[a]  # two faces swapped
            else:
                del faces[a]                              # a face fewer
        outcome = _embedding_outcome(rk.graph(n, edges), faces, int(rng.randint(-1, 4)))
        outcomes.add(None if outcome is None else outcome[0])
    assert outcomes == {None, EulerViolation, EdgeFaceMismatch, OrientationInconsistent,
                        GraphError}


def test_validate_embedding_tetrahedron():
    g = rk.graph(4, K4_EDGES)
    emb = rk.validate_embedding(g, TETRA_FACES)
    assert emb.face_count == 4


def test_validate_embedding_triangle_two_faces():
    g = rk.graph(3, [(0, 1), (1, 2), (0, 2)])
    emb = rk.validate_embedding(g, [[0, 1, 2], [0, 2, 1]])
    assert emb.face_count == 2


def test_validate_embedding_errors():
    g = rk.graph(4, K4_EDGES)
    with pytest.raises(EdgeFaceMismatch):  # one face listed twice
        rk.validate_embedding(g, [[0, 1, 2], [0, 1, 2], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(EulerViolation):
        rk.validate_embedding(g, TETRA_FACES[:3])
    bad = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 2, 3]]  # last face flipped
    with pytest.raises(OrientationInconsistent):
        rk.validate_embedding(g, bad)


def test_dual_graph_tetrahedron_self_dual():
    g = rk.graph(4, K4_EDGES)
    emb = rk.validate_embedding(g, TETRA_FACES)
    dual = rk.dual_graph(emb)
    assert dual.vertex_count == 4
    assert dual.edge_count == 6
    assert all(len(a) == 6 for a in emb.dual_pairs())


def test_dual_graph_cube_octahedron():
    g = rk.graph(8, CUBE_EDGES)
    emb = rk.validate_embedding(g, CUBE_FACES)
    dual = rk.dual_graph(emb)
    assert dual.vertex_count == 6      # |faces|
    assert dual.edge_count == 12       # one per primal edge
    assert all(len(a) == 12 for a in emb.dual_pairs())
    degs = [0] * 6
    for i, j in dual.edges:
        degs[i] += 1
        degs[j] += 1
    assert degs == [4] * 6             # octahedron graph
    # Euler on the dual
    assert dual.vertex_count - dual.edge_count + len(CUBE_EDGES) - 4 == 2


def test_dual_graph_prism():
    g = rk.graph(6, PRISM_EDGES)
    emb = rk.validate_embedding(g, PRISM_FACES)
    dual = rk.dual_graph(emb)
    assert dual.vertex_count == 5
    assert all(len(a) == 9 for a in emb.dual_pairs())


def test_dual_pairs_are_read_only_arrays_in_edge_order():
    g = rk.graph(6, PRISM_EDGES)
    emb = rk.validate_embedding(g, PRISM_FACES)
    tails, heads, rights, lefts = emb.dual_pairs()
    assert emb.dual_pairs() is emb.dual_pairs()
    assert list(zip(tails.tolist(), heads.tolist())) == list(g.edges)
    left_of = directed_faces(PRISM_FACES)
    for i, j, a, b in zip(tails, heads, rights, lefts):
        assert (a, b) == (left_of[(j, i)], left_of[(i, j)])
    for arr in (tails, heads, rights, lefts):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_incidences_in_cycle_order():
    # the corner table: one face-vertex incidence per corner, in cycle order
    emb = rk.validate_embedding(rk.graph(6, PRISM_EDGES), PRISM_FACES)
    faces, vertices, nexts, twins = emb.corners
    assert emb.corners is emb.corners
    assert faces.tolist() == [a for a, cyc in enumerate(PRISM_FACES) for _ in cyc]
    assert vertices.tolist() == [i for cyc in PRISM_FACES for i in cyc]
    assert nexts.tolist() == [1, 2, 0, 4, 5, 3, 7, 8, 9, 6, 11, 12, 13, 10, 15, 16, 17, 14]
    for arr in (faces, vertices, nexts, twins):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_face_right_left():
    g = rk.graph(6, PRISM_EDGES)
    emb = rk.validate_embedding(g, PRISM_FACES)
    # quad [0,1,4,3] contains directed (0,1): it lies left of 0->1.
    tails, heads, rights, lefts = emb.dual_pairs()
    k = g.edge_index()[(0, 1)]
    assert (tails[k], heads[k]) == (0, 1)
    assert lefts[k] == 2
    assert rights[k] == 0  # exterior triangle [0,2,1]
    # the same faces from the corner table: the corner leaving 0 -> 1, its twin
    faces, vertices, nexts, twins = emb.corners
    t = [c for c in range(vertices.size) if (vertices[c], vertices[nexts[c]]) == (0, 1)]
    assert (faces[t[0]], faces[twins[t[0]]]) == (2, 0)


def test_is_3_connected():
    assert rk.is_3_connected(rk.validate_embedding(rk.graph(4, K4_EDGES), TETRA_FACES))
    path = rk.graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not rk.is_3_connected(rk.validate_embedding(path, [[0, 1, 2, 3, 2, 1]]))
    assert rk.is_3_connected(rk.validate_embedding(rk.graph(6, PRISM_EDGES), PRISM_FACES))
    triangle = rk.graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not rk.is_3_connected(rk.validate_embedding(triangle, [[0, 1, 2], [0, 2, 1]]))


def _graph_of(faces):
    """The graph on vertices 0..n-1 whose edges are read off the face cycles."""
    edges = {tuple(sorted((c[k], c[(k + 1) % len(c)]))) for c in faces for k in range(len(c))}
    return rk.graph(1 + max(max(c) for c in faces), sorted(edges))


def _embedded(faces):
    """The embedding of face cycles on vertices 0..n-1, edges read off the faces."""
    return rk.validate_embedding(_graph_of(faces), faces)


def _agrees_with_brute_force(emb):
    g = emb.graph
    return rk.is_3_connected(emb) == brute_force_3_connected(g.vertex_count, g.edges)


@pytest.mark.parametrize("name", ["triangle", "square4bar", "prism3-concurrent",
                                  "prism3-generic", "k4-centroid"])
def test_is_3_connected_matches_brute_force_on_gallery(name):
    assert _agrees_with_brute_force(rk.gallery.fixture(name).framework.embedding)


def test_is_3_connected_matches_brute_force_on_wheels():
    for rim in range(4, 41):
        faces = [[k, (k + 1) % rim, rim] for k in range(rim)] + [list(range(rim))[::-1]]
        emb = _embedded(faces)
        assert rk.is_3_connected(emb) and _agrees_with_brute_force(emb)


def _wheel_faces(rim):
    return [[k, (k + 1) % rim, rim] for k in range(rim)] + [list(range(rim))[::-1]]


def test_is_3_connected_on_wheels_without_a_spoke_or_with_a_chord():
    for rim in range(4, 41):
        faces = _wheel_faces(rim)
        # without the spoke 0-hub, triangles rim-1 and 0 merge into one face
        no_spoke = faces[1:rim - 1] + [[rim - 1, 0, 1, rim], faces[rim]]
        emb = _embedded(no_spoke)
        assert not rk.is_3_connected(emb) and _agrees_with_brute_force(emb)
        # the chord 0-2 outside the rim cuts the triangle 2, 1, 0 off the exterior face
        chord = faces[:rim] + [[2, 1, 0], list(range(rim))[:2:-1] + [2, 0]]
        emb = _embedded(chord)
        assert rk.is_3_connected(emb) and _agrees_with_brute_force(emb)


def test_is_3_connected_on_the_rim_1000_wheel():
    _, edges = wheel(np.random.default_rng(1), 1000)
    emb = rk.validate_embedding(rk.graph(1001, edges), _wheel_faces(1000), 1000)
    assert rk.is_3_connected(emb)


def test_is_3_connected_matches_brute_force_on_random_plane_graphs():
    rng = np.random.RandomState(2024)
    verdicts, repeated = [], 0
    for _ in range(1200):
        n = int(rng.randint(4, 13))
        edges, faces = random_plane_graph(rng, n, int(rng.randint(0, n + 1)))
        emb = rk.validate_embedding(rk.graph(n, edges), faces)
        assert _agrees_with_brute_force(emb), faces
        verdicts.append(rk.is_3_connected(emb))
        repeated += any(len(set(cyc)) < len(cyc) for cyc in faces)
    # both verdicts and faces with a repeated vertex occur often
    assert 100 < sum(verdicts) < 1100 and repeated > 100


def _agrees_with_directed_faces(emb):
    """The corner table and dual pairs of `emb` against the directed-edge dict."""
    left_of = directed_faces(emb.faces)
    faces, vertices, nexts, twins = emb.corners
    heads = vertices[nexts]
    assert vertices.tolist() == [i for cyc in emb.faces for i in cyc]
    assert heads.tolist() == [cyc[(k + 1) % len(cyc)] for cyc in emb.faces for k in range(len(cyc))]
    assert np.array_equal(faces, [left_of[e] for e in zip(vertices.tolist(), heads.tolist())])
    assert np.array_equal(twins[twins], np.arange(twins.size))
    assert np.array_equal(vertices[twins], heads) and np.array_equal(heads[twins], vertices)
    tails, heads, rights, lefts = emb.dual_pairs()
    assert list(zip(tails.tolist(), heads.tolist())) == list(emb.graph.edges)
    assert np.array_equal(lefts, [left_of[(i, j)] for i, j in emb.graph.edges])
    assert np.array_equal(rights, [left_of[(j, i)] for i, j in emb.graph.edges])
    return True


@pytest.mark.parametrize("name", rk.gallery.GALLERY_NAMES)
def test_corners_match_directed_faces_on_gallery(name):
    emb = rk.gallery.fixture(name).framework.embedding
    assert emb is None or _agrees_with_directed_faces(emb)


def test_corners_match_directed_faces_on_wheels_and_random_plane_graphs():
    for rim in range(4, 41):
        faces = [[k, (k + 1) % rim, rim] for k in range(rim)] + [list(range(rim))[::-1]]
        assert _agrees_with_directed_faces(_embedded(faces))
    rng = np.random.RandomState(77)
    for _ in range(500):
        n = int(rng.randint(3, 13))
        edges, faces = random_plane_graph(rng, n, int(rng.randint(0, n + 1)))
        assert _agrees_with_directed_faces(rk.validate_embedding(rk.graph(n, edges), faces))


def test_direct_construction_matches_validated():
    path = [(0, 1), (1, 2), (2, 3)]
    for n, edges, faces in ((4, K4_EDGES, TETRA_FACES), (8, CUBE_EDGES, CUBE_FACES),
                            (6, PRISM_EDGES, PRISM_FACES), (4, path, [[0, 1, 2, 3, 2, 1]])):
        g = rk.graph(n, edges)
        direct = rk.PlanarEmbedding(g, tuple(map(tuple, faces)))
        valid = rk.validate_embedding(g, faces)
        for a, b in zip(direct.dual_pairs(), valid.dual_pairs()):
            assert np.array_equal(a, b)
        assert rk.is_3_connected(direct) == rk.is_3_connected(valid)


OCTAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
              [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]]


def _refused_off_the_sphere(faces):
    """Validation refuses `faces`, which pass Euler's count and use every
    directed edge once; returns their graph."""
    g = _graph_of(faces)
    assert g.vertex_count - g.edge_count + len(faces) == 2
    with pytest.raises(GraphError, match="do not glue to a sphere"):
        rk.validate_embedding(g, faces)
    return g


def test_is_3_connected_needs_the_graph_connected():
    # K7 on the torus beside a tetrahedron: n - m + f = 11 - 27 + 18 = 2 and
    # every face condition holds, but the graph has two components.
    torus = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)] + \
            [[i, (i + 3) % 7, (i + 2) % 7] for i in range(7)]
    faces = torus + [[v + 7 for v in cyc] for cyc in TETRA_FACES]
    g = _refused_off_the_sphere(faces)
    assert (g.vertex_count, g.edge_count, len(faces)) == (11, 27, 18)
    assert not brute_force_3_connected(g.vertex_count, g.edges)


def test_is_3_connected_needs_one_rotation_per_vertex():
    # Two octahedra sharing their apexes 0 and 5: every face pair meets in at
    # most an edge, but {0, 5} separates the two equators, and the faces
    # around each apex form two rotations, not one.
    second = {0: 0, 5: 5, 1: 6, 2: 7, 3: 8, 4: 9}
    g = _refused_off_the_sphere(OCTAHEDRON + [[second[v] for v in cyc] for cyc in OCTAHEDRON])
    assert not brute_force_3_connected(g.vertex_count, g.edges)


def test_is_3_connected_refuses_faces_off_the_sphere():
    # Four edge-disjoint triangles of the octahedron, each listed in both
    # orientations (6 - 12 + 8 = 2), glue to four spheres pinched at the
    # vertices.  The graph is 3-connected; the face list is not an embedding
    # on the sphere.
    triangles = [OCTAHEDRON[k] for k in (0, 2, 5, 7)]
    g = _refused_off_the_sphere(triangles + [cyc[::-1] for cyc in triangles])
    assert brute_force_3_connected(6, g.edges)


def test_laman_examples():
    assert rk.laman_check(rk.graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not rk.laman_check(rk.graph(4, K4_EDGES))  # 6 > 2*4 - 3
    assert rk.laman_check(rk.graph(6, PRISM_EDGES))
    # two K4 blocks joined by one edge: m = 13 = 2*8 - 3 but K4 violates 2k-3
    edges = K4_EDGES + [(i + 4, j + 4) for i, j in K4_EDGES] + [(0, 4)]
    g = rk.graph(8, edges)
    assert g.edge_count == 2 * 8 - 3
    assert not rk.laman_check(g)
    assert not brute_force_laman(8, edges)


def test_pebble_game_matches_brute_force(rng):
    for _ in range(60):
        n = int(rng.randint(3, 8))
        edges = random_graph(rng, n)
        assert is_23_sparse(rk.graph(n, edges)) == brute_force_23_sparse(n, edges)


def test_generic_dof_count():
    assert rk.generic_dof_count(rk.graph(3, [(0, 1), (1, 2), (0, 2)]), 2) == 0
    assert rk.generic_dof_count(rk.graph(4, K4_EDGES), 2) == -1
    icosa = rk.gallery.fixture("jessen:0.5").framework.graph  # n = 12, m = 30
    assert rk.generic_dof_count(icosa, 3) == 0
