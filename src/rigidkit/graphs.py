"""Graphs, supplied planar embeddings, dual graphs and counting checks.

Embeddings are input data, never computed: validation via the Euler relation
and directed-edge orientation consistency is cheap and catches malformed
input, while planarity testing and embedding search stay out of scope.

An embedding derives one corner table from its face cycles, built once: per
corner, face by face in cycle order, its face, vertex, next corner and twin
(the corner on the reversed edge).  Validation, dual pairs and vertex
rotations are read from it, with edges looked up by sorted keys, never one
at a time.  3-connectivity is read from the faces: on the sphere a simple
graph with at least 4 vertices is 3-connected exactly when its embedding is
polyhedral (Mohar and Thomassen, *Graphs on Surfaces*, 2001).  That face
condition is decided by counting the 4-cycles of the face-vertex incidence
graph with degree-ordered wedge listing (Chiba and Nishizeki, 1985), in time
linear in the corners rather than quadratic in the vertex degrees.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from .errors import (
    EdgeFaceMismatch,
    EulerViolation,
    GraphError,
    OrientationInconsistent,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a fixed edge order."""

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        """Refuse the first edge, in edge order, that is not a pair, is a loop,
        leaves 0..n-1 or repeats an earlier edge."""
        if not set(map(len, self.edges)) <= {2}:
            sizes = np.fromiter(map(len, self.edges), dtype=int, count=len(self.edges))
            k = int(np.argmax(sizes != 2))
            Graph(self.vertex_count, self.edges[:k])  # an earlier offender comes first
            raise GraphError("edge %r is not a pair" % (self.edges[k],))
        n = self.vertex_count
        tails, heads = self.ends
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        loop = tails == heads
        out = (lo < 0) | (hi >= n)
        # An edge out of range is refused as such: its key need only differ
        # from every other edge's.
        key = np.where(out, -1 - np.arange(lo.size), lo * n + hi)
        order = np.argsort(key, kind="stable")
        again = np.zeros(lo.size, dtype=bool)
        again[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(loop | out | again)
        if bad.size:
            k = bad[0]
            e = self.edges[k]
            if loop[k]:
                raise GraphError("loop at vertex %d" % e[0])
            if out[k]:
                raise GraphError("edge %r out of range" % (e,))
            raise GraphError("duplicate edge %r" % (e,))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def ends(self) -> tuple:
        """(tails, heads): the edge order as two index arrays, built once."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=int, count=2 * len(self.edges))
        tails, heads = flat.reshape(-1, 2).T
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    @cached_property
    def _sorted_keys(self) -> tuple:
        """The edge keys lo * n + hi, sorted, and the position of each in the
        edge order; both end in a sentinel -1."""
        tails, heads = self.ends
        key = np.minimum(tails, heads) * self.vertex_count + np.maximum(tails, heads)
        order = np.argsort(key)
        return np.append(key[order], -1), np.append(order, -1)

    def edge_positions(self, tails, heads) -> np.ndarray:
        """Per pair tails[k], heads[k], either way round: its position in the
        edge order, or -1 when it is no edge.  One sorted lookup for all pairs."""
        n = self.vertex_count
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        key = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
        keys, positions = self._sorted_keys
        at = np.searchsorted(keys[:-1], key)
        return np.where(keys[at] == key, positions[at], -1)

    def has_edge(self, i, j) -> bool:
        return bool(self.edge_positions(i, j) >= 0)


def graph(n: int, edges) -> Graph:
    """The Graph on n vertices with edges (i, j) stored as (min(i, j), max(i, j))."""
    ends = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=int)
    if ends.size == 0:
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise GraphError("every edge must be a pair of vertices")
    return Graph(n, tuple(map(tuple, np.sort(ends, axis=1).tolist())))


class EdgeValues:
    """One value per edge of a graph, in its edge order, read by edge either
    way round.

    An edge list given instead of a Graph becomes graph(1 + largest vertex,
    edges), so a repeated edge or a loop raises GraphError.
    """

    def __init__(self, g, values):
        if not isinstance(g, Graph):
            pairs = list(g)
            g = graph(1 + max(chain.from_iterable(pairs), default=-1), pairs)
        self.graph = g
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (g.edge_count,):
            raise GraphError("expected one value per edge")

    @property
    def edges(self) -> tuple:
        return self.graph.edges

    def __getitem__(self, edge):
        at = int(self.graph.edge_positions(*edge))
        if at < 0:
            raise KeyError(edge)
        return float(self.values[at])

    def __len__(self):
        return self.graph.edge_count

    def __iter__(self):
        return iter(self.graph.edges)

    def values_on(self, g: Graph) -> np.ndarray:
        """The values in the edge order of `g`, read by edge; GraphError unless
        there is one value on each edge of `g` and on no other."""
        if g == self.graph:
            return self.values
        at = self.graph.edge_positions(*g.ends)
        if g.edge_count != self.graph.edge_count or np.any(at < 0):
            raise GraphError("edges do not match the graph's edges")
        return self.values[at]


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
        # A vertex never holds more than 2 pebbles, so both ends hold 2 here.
        self.pebbles[i] -= 1
        self.out[i].add(j)
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
    def _cycles(self) -> tuple:
        """(faces, vertices, nexts) of the corner table, read-only: valid for
        any face lists, so validation can read them before the twins exist."""
        sizes = np.fromiter(map(len, self.faces), dtype=int, count=self.face_count)
        faces = np.repeat(np.arange(self.face_count), sizes)
        vertices = np.fromiter(chain.from_iterable(self.faces), dtype=int, count=faces.size)
        last = (np.cumsum(sizes) - 1)[sizes > 0]
        nexts = np.arange(faces.size) + 1
        nexts[last] = last + 1 - sizes[sizes > 0]
        faces.flags.writeable = vertices.flags.writeable = nexts.flags.writeable = False
        return faces, vertices, nexts

    @cached_property
    def corners(self) -> tuple:
        """(faces, vertices, nexts, twins): one entry per face corner, face by
        face in cycle order; four read-only index arrays, built once.

        Corner t of face faces[t] sits at vertices[t] and leaves along the
        directed edge vertices[t] -> vertices[nexts[t]]; twins[t] is the
        corner leaving along the reversed edge.
        """
        faces, vertices, nexts = self._cycles
        twins = _leaving(self.graph.vertex_count, vertices, nexts, vertices[nexts], vertices)
        twins.flags.writeable = False
        return faces, vertices, nexts, twins

    @cached_property
    def face_groups(self) -> tuple:
        """(faces, cycles) per face length, shortest first: the indices of the
        faces of that length and their vertex cycles as one (count, length)
        array, so per-face work runs as one stacked call per length."""
        faces, vertices, _ = self._cycles
        sizes = np.bincount(faces, minlength=self.face_count)
        starts = np.cumsum(sizes) - sizes
        groups = []
        for length in np.unique(sizes).tolist():
            ids = np.flatnonzero(sizes == length)
            groups.append((ids, vertices[starts[ids, None] + np.arange(length)]))
        return tuple(groups)

    def face_lists(self) -> list:
        """The face cycles as lists of Python ints, read from the corner table."""
        faces, vertices, _ = self._cycles
        sizes = np.bincount(faces, minlength=self.face_count).tolist()
        return list(map(list, map(islice, repeat(iter(vertices.tolist())), sizes)))

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
    and check that the faces glue to a sphere.

    The checks run on the corner table, in this order, each naming its
    first offender: Euler's count; a face of fewer than 3 vertices or a
    corner on a non-edge, whichever comes first in face order; edges not on
    exactly two corners; a directed edge on two corners; the exterior face
    index; connectivity and one rotation of faces per vertex.
    """
    faces = tuple(map(tuple, faces))
    n, m = g.vertex_count, g.edge_count
    if n - m + len(faces) != 2:
        raise EulerViolation(
            "n - m + f = %d - %d + %d != 2" % (n, m, len(faces))
        )
    emb = PlanarEmbedding(g, faces, exterior_face)
    face, tails, nexts = emb._cycles
    heads = tails[nexts]
    edge = g.edge_positions(tails, heads)
    short = np.flatnonzero(np.bincount(face, minlength=len(faces)) < 3)
    off = np.flatnonzero(edge < 0)
    if off.size and (not short.size or face[off[0]] < short[0]):
        t = off[0]
        raise EdgeFaceMismatch("face %d uses non-edge %r"
                               % (face[t], (int(tails[t]), int(heads[t]))))
    if short.size:
        raise EdgeFaceMismatch("face %d has fewer than 3 vertices" % short[0])
    bad = np.flatnonzero(np.bincount(edge, minlength=m) != 2)
    if bad.size:
        lo, hi = np.sort(np.column_stack(g.ends)[bad], axis=1).T
        raise EdgeFaceMismatch("edges not on exactly two faces: %r"
                               % list(zip(lo.tolist(), hi.tolist())))
    directed = tails * n + heads
    order = np.argsort(directed, kind="stable")
    again = np.flatnonzero(directed[order[1:]] == directed[order[:-1]])
    if again.size:
        # the first corner in cycle order on a directed edge seen before, and
        # the one corner before it on that edge
        first = again[np.argmin(order[again + 1])]
        s, t = order[first], order[first + 1]
        raise OrientationInconsistent(
            "directed edge %r used by faces %d and %d"
            % ((int(tails[t]), int(heads[t])), face[s], face[t])
        )
    # Every edge on two corners and no directed edge on two make every
    # directed edge appear exactly once.
    if exterior_face is not None and not (0 <= exterior_face < len(faces)):
        raise GraphError("exterior face index out of range")
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

    Two faces sharing k vertices make C(k, 2) 4-cycles face-vertex-face-vertex
    in the incidence graph of faces and vertices.  Each edge makes one, with
    its two faces and its two ends; with distinct vertices per face, n >= 4
    and the faces on a sphere, any other pair sharing two vertices, or a pair
    sharing more, makes more 4-cycles than edges.  So the condition holds
    exactly when the incidence graph has m 4-cycles.
    """
    n, f = emb.graph.vertex_count, emb.face_count
    if n < 4:
        return False
    faces, verts, _ = emb._cycles
    if np.unique(faces * n + verts).size != verts.size:
        return False
    tails = np.concatenate([verts, n + faces])
    heads = np.concatenate([n + faces, verts])
    return _four_cycle_count(tails, heads, n + f) == emb.graph.edge_count


def _four_cycle_count(tails, heads, count: int) -> int:
    """4-cycles of the simple graph on nodes 0..count-1 whose edges are the
    arcs tails -> heads, each edge given both ways round.

    Degree-ordered wedge listing (Chiba and Nishizeki, "Arboricity and
    subgraph listing algorithms", 1985): rank the nodes by degree; each
    4-cycle is counted once, at its top-ranked node v, as a pair of wedges
    v - u - w that meet again at the node w opposite v.  Only wedges whose
    first arc goes down in rank are listed: at most the sum over edges of
    the smaller end degree, which is linear in the arcs of a planar graph.
    """
    degree = np.bincount(tails, minlength=count)
    rank = np.empty(count, dtype=int)
    rank[np.argsort(degree, kind="stable")] = np.arange(count)
    start = np.cumsum(degree) - degree
    by_tail = np.argsort(tails, kind="stable")
    down = rank[heads] < rank[tails]
    top, middle = tails[down], heads[down]
    far = heads[by_tail[_ranges(start[middle], degree[middle])]]
    top = np.repeat(top, degree[middle])
    below = rank[far] < rank[top]
    _, wedges = np.unique(top[below] * count + far[below], return_counts=True)
    return int(np.sum(wedges * (wedges - 1) // 2))


def _ranges(starts, lengths) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + lengths[k] - 1, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts + lengths - ends, lengths)


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
