"""Graphs, supplied planar embeddings, dual graphs and counting checks.

Embeddings are input data, never computed: validation via the Euler relation
and directed-edge orientation consistency is cheap and catches malformed
input, while planarity testing and embedding search stay out of scope.

An embedding derives one corner table from its face cycles, built once: per
corner, face by face in cycle order, its face, vertex, next corner and twin
(the corner on the reversed edge).  Dual pairs and vertex rotations are read
from it.  3-connectivity is read from the faces: on the sphere a simple
graph with at least 4 vertices is 3-connected exactly when its embedding is
polyhedral (Mohar and Thomassen, *Graphs on Surfaces*, 2001), which one pass
over the corners decides.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import (
    EdgeFaceMismatch,
    EulerViolation,
    GraphError,
    OrientationInconsistent,
)


def canonical_edge(i: int, j: int) -> tuple:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a fixed edge order."""

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise GraphError("edge %r is not a pair" % (e,))
            i, j = e
            if i == j:
                raise GraphError("loop at vertex %d" % i)
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise GraphError("edge %r out of range" % (e,))
            if canonical_edge(i, j) in seen:
                raise GraphError("duplicate edge %r" % (e,))
            seen.add(canonical_edge(i, j))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_index(self) -> MappingProxyType:
        return MappingProxyType(
            {canonical_edge(i, j): k for k, (i, j) in enumerate(self.edges)}
        )

    def edge_index(self) -> MappingProxyType:
        """Canonical edge tuple -> position in the edge order.

        Built once per graph and shared by every caller, hence read-only.
        """
        return self._edge_index

    @cached_property
    def ends(self) -> tuple:
        """(tails, heads): the edge order as two index arrays, built once."""
        tails, heads = np.array(self.edges, dtype=int).reshape(-1, 2).T
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    def has_edge(self, i, j) -> bool:
        return canonical_edge(i, j) in self.edge_index()


def graph(n: int, edges) -> Graph:
    return Graph(n, tuple(canonical_edge(i, j) for i, j in edges))


def _is_connected(g: Graph) -> bool:
    """Breadth-first from vertex 0, one level per pass over the edge arrays."""
    tails, heads = g.ends
    seen = np.arange(g.vertex_count) == 0
    while True:
        step = seen[tails] != seen[heads]
        if not step.any():
            return bool(seen.all())
        seen[tails[step]] = seen[heads[step]] = True


def generic_dof_count(g: Graph, d: int) -> int:
    """Generic degree-of-freedom count d*n - m - d(d+1)/2 (may be negative)."""
    return d * g.vertex_count - g.edge_count - d * (d + 1) // 2


# --- (2,3) pebble game -------------------------------------------------------

class _PebbleGame23:
    """Lee-Streinu pebble game for (2,3)-sparsity.

    Each vertex holds 2 pebbles; inserting an edge consumes one and needs 4
    pebbles available on its endpoints, gathered by reversing directed paths.
    """

    def __init__(self, n):
        self.n = n
        self.pebbles = [2] * n
        self.out = [set() for _ in range(n)]  # directed edges v -> w

    def _find_pebble_path(self, root, forbidden):
        # DFS for a vertex with a free pebble, avoiding `forbidden` roots.
        seen = {root} | set(forbidden)
        stack = [root]
        parent = {root: None}
        while stack:
            v = stack.pop()
            for w in self.out[v]:
                if w in seen:
                    continue
                parent[w] = v
                if self.pebbles[w] > 0:
                    # reverse the path w <- ... <- root
                    self.pebbles[w] -= 1
                    cur = w
                    while parent[cur] is not None:
                        prev = parent[cur]
                        self.out[prev].remove(cur)
                        self.out[cur].add(prev)
                        cur = prev
                    self.pebbles[root] += 1
                    return True
                seen.add(w)
                stack.append(w)
        return False

    def insert(self, i, j):
        """Try to insert edge ij; False means it violates (2,3)-sparsity."""
        while self.pebbles[i] + self.pebbles[j] < 4:
            if self.pebbles[i] < 2 and self._find_pebble_path(i, (j,)):
                continue
            if self.pebbles[j] < 2 and self._find_pebble_path(j, (i,)):
                continue
            return False
        if self.pebbles[i] > 0:
            self.pebbles[i] -= 1
            self.out[i].add(j)
        else:
            self.pebbles[j] -= 1
            self.out[j].add(i)
        return True


def is_23_sparse(g: Graph) -> bool:
    """True iff every subgraph on k vertices has at most 2k - 3 edges."""
    game = _PebbleGame23(g.vertex_count)
    return all(game.insert(i, j) for i, j in g.edges)


def laman_check(g: Graph) -> bool:
    """Laman condition: m = 2n - 3 and (2,3)-sparsity, via the pebble game."""
    if g.vertex_count < 2:
        raise GraphError("Laman check needs at least 2 vertices")
    if g.edge_count != 2 * g.vertex_count - 3:
        return False
    return is_23_sparse(g)


# --- planar embeddings -------------------------------------------------------

@dataclass(frozen=True)
class PlanarEmbedding:
    """A graph together with oriented face cycles.

    Convention: every face lies to the left of its own directed boundary, so
    interior faces run counterclockwise in a drawing and the exterior face
    clockwise.  The face on the right of a directed edge (i, j) is then the
    face whose cycle uses (j, i).
    """

    graph: Graph
    faces: tuple
    exterior_face: int = None

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def corners(self) -> tuple:
        """(faces, vertices, nexts, twins): one entry per face corner, face by
        face in cycle order; four read-only index arrays, built once.

        Corner t of face faces[t] sits at vertices[t] and leaves along the
        directed edge vertices[t] -> vertices[nexts[t]]; twins[t] is the
        corner leaving along the reversed edge.
        """
        sizes = np.fromiter(map(len, self.faces), dtype=int, count=self.face_count)
        faces = np.repeat(np.arange(self.face_count), sizes)
        vertices = np.fromiter(chain.from_iterable(self.faces), dtype=int, count=faces.size)
        last = np.cumsum(sizes) - 1
        nexts = np.arange(faces.size) + 1
        nexts[last] = last + 1 - sizes
        twins = _leaving(self.graph.vertex_count, vertices, nexts, vertices[nexts], vertices)
        faces.flags.writeable = vertices.flags.writeable = False
        nexts.flags.writeable = twins.flags.writeable = False
        return faces, vertices, nexts, twins

    @cached_property
    def _dual_pairs(self) -> tuple:
        tails, heads = self.graph.ends
        faces, vertices, nexts, twins = self.corners
        lead = _leaving(self.graph.vertex_count, vertices, nexts, tails, heads)
        rights, lefts = faces[twins[lead]], faces[lead]
        rights.flags.writeable = lefts.flags.writeable = False
        return tails, heads, rights, lefts

    def dual_pairs(self) -> tuple:
        """(tails, heads, rights, lefts): per primal edge, in edge order, the
        edge directed tail -> head with face `right` on its right (the cycle
        of `right` traverses head -> tail) and face `left` on its left.

        Four read-only index arrays, built once per embedding.
        """
        return self._dual_pairs

    @cached_property
    def _three_connected(self) -> bool:
        return _polyhedral(self)


def validate_embedding(g: Graph, faces, exterior_face=None) -> PlanarEmbedding:
    """Validate face data against the Euler relation and orientation rules,
    and check that the faces glue to a sphere."""
    faces = tuple(tuple(f) for f in faces)
    n, m = g.vertex_count, g.edge_count
    if n - m + len(faces) != 2:
        raise EulerViolation(
            "n - m + f = %d - %d + %d != 2" % (n, m, len(faces))
        )
    edge_idx = g.edge_index()
    directed = {}
    duplicated = []
    edge_use = {e: 0 for e in edge_idx}
    for a, cyc in enumerate(faces):
        if len(cyc) < 3:
            raise EdgeFaceMismatch("face %d has fewer than 3 vertices" % a)
        for k, i in enumerate(cyc):
            j = cyc[(k + 1) % len(cyc)]
            e = canonical_edge(i, j)
            if e not in edge_idx:
                raise EdgeFaceMismatch("face %d uses non-edge %r" % (a, (i, j)))
            if (i, j) in directed:
                duplicated.append(((i, j), directed[(i, j)], a))
            directed[(i, j)] = a
            edge_use[e] += 1
    bad = [e for e, c in edge_use.items() if c != 2]
    if bad:
        raise EdgeFaceMismatch("edges not on exactly two faces: %r" % bad)
    if duplicated:
        (i, j), a, b = duplicated[0]
        raise OrientationInconsistent(
            "directed edge %r used by faces %d and %d" % ((i, j), a, b)
        )
    # edge_use == 2 everywhere and no duplicated directed edge imply every
    # directed edge appears exactly once.
    if exterior_face is not None and not (0 <= exterior_face < len(faces)):
        raise GraphError("exterior face index out of range")
    emb = PlanarEmbedding(g, faces, exterior_face)
    if not (_is_connected(g) and _one_rotation_per_vertex(emb)):
        raise GraphError("the faces do not glue to a sphere: the graph is "
                         "disconnected or some vertex has more than one rotation of faces")
    return emb


def _leaving(n: int, vertices, nexts, tails, heads) -> np.ndarray:
    """The corners of (vertices, nexts) on n vertices leaving along tails -> heads."""
    out = vertices * n + vertices[nexts]
    order = np.argsort(out)
    return order[np.searchsorted(out, tails * n + heads, sorter=order)]


def _one_rotation_per_vertex(emb: PlanarEmbedding) -> bool:
    """True iff the faces around every vertex form one rotation.

    With a connected graph, n - m + f = 2 and every directed edge on exactly
    one face, this makes the faces glue to a sphere.  The next corner around
    a vertex is the successor of the twin corner.
    """
    _, _, nexts, twins = emb.corners
    return _cycle_count(nexts[twins]) == emb.graph.vertex_count


def is_3_connected(embedding: PlanarEmbedding) -> bool:
    """True iff the embedded graph is 3-connected, read from the faces by
    `_polyhedral` once per embedding and cached on it."""
    return embedding._three_connected


def _polyhedral(emb: PlanarEmbedding) -> bool:
    """The face condition of a polyhedral embedding, on faces that
    `validate_embedding` has glued to a sphere.

    n >= 4; every face cycle has distinct vertices; and two faces sharing two
    or more vertices share exactly two and are adjacent across an edge.
    """
    n, f = emb.graph.vertex_count, emb.face_count
    if n < 4:
        return False
    faces, verts, _, twins = emb.corners
    if np.unique(faces * n + verts).size != verts.size:
        return False
    # Face pairs meeting at a vertex: all pairs within each vertex's corners.
    by_vertex = np.argsort(verts, kind="stable")
    stop = np.cumsum(np.bincount(verts, minlength=n))[verts[by_vertex]]
    later = stop - np.arange(verts.size) - 1
    left = np.repeat(np.arange(verts.size), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    a, b = faces[by_vertex[left]], faces[by_vertex[right]]
    pairs, shared = np.unique(np.minimum(a, b) * f + np.maximum(a, b), return_counts=True)
    adjacent = np.minimum(faces, faces[twins]) * f + np.maximum(faces, faces[twins])
    return bool(np.all(shared <= 2) and np.all(np.isin(pairs[shared == 2], adjacent)))


def _cycle_count(perm: np.ndarray) -> int:
    """Number of cycles of a permutation of 0..k-1, by pointer doubling."""
    label, step = np.arange(perm.size), perm
    for _ in range(perm.size.bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    return np.unique(label).size


def dual_graph(embedding: PlanarEmbedding) -> Graph:
    """Dual graph: one vertex per face, one edge per pair of adjacent faces.

    The dual may have parallel edges combinatorially (e.g. for the triangle);
    they are collapsed, in the order of their first primal edge.
    """
    _, _, rights, lefts = embedding.dual_pairs()
    lo, hi = np.minimum(rights, lefts), np.maximum(rights, lefts)
    _, first = np.unique(lo * embedding.face_count + hi, return_index=True)
    first.sort()
    return Graph(embedding.face_count, tuple(zip(lo[first].tolist(), hi[first].tolist())))
