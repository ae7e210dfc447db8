"""Graphs, supplied planar embeddings, dual graphs and counting checks.

Embeddings are input data, never computed: validation via the Euler relation
and directed-edge orientation consistency is cheap and catches malformed
input, while planarity testing and embedding search stay out of scope.
"""

from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def _three_connected(self) -> bool:
        return _three_connected_brute_force(self)

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def has_edge(self, i, j) -> bool:
        return canonical_edge(i, j) in self.edge_index()


def graph(n: int, edges) -> Graph:
    return Graph(n, tuple(canonical_edge(i, j) for i, j in edges))


def _is_connected(n, adj, skip=()):
    skip = set(skip)
    verts = [v for v in range(n) if v not in skip]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in skip and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def is_3_connected(g: Graph) -> bool:
    """True iff the graph is connected, has at least 4 vertices, and stays
    connected after deleting any two vertices.

    Decided once per graph by brute force over vertex pairs (target graphs
    are small) and cached on it, like the edge index.
    """
    return g._three_connected


def _three_connected_brute_force(g: Graph) -> bool:
    n = g.vertex_count
    if n < 4:
        return False
    adj = g.adjacency()
    if not _is_connected(n, adj):
        return False
    for a in range(n):
        for b in range(a + 1, n):
            if not _is_connected(n, adj, skip=(a, b)):
                return False
    return True


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
class DualPair:
    """A primal edge with its two incident faces.

    Stored in consistent orientation: face `right` lies on the right of the
    edge directed tail -> head (equivalently, the cycle of `right` traverses
    head -> tail).  Swapping the edge direction or the face order toggles
    consistency.
    """

    tail: int
    head: int
    right: int
    left: int

    @property
    def edge(self):
        return canonical_edge(self.tail, self.head)

    def is_consistent(self, i, j, alpha, beta) -> bool:
        """Orientation flag of the ordered pairing ((i, j), (alpha, beta))."""
        if {i, j} != {self.tail, self.head} or {alpha, beta} != {self.right, self.left}:
            raise GraphError("pairing does not match this dual pair")
        flip = (i, j) != (self.tail, self.head)
        flip ^= (alpha, beta) != (self.right, self.left)
        return not flip


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
    _directed_to_face: dict = field(default=None, repr=False, compare=False)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def face_right_of(self, i, j) -> int:
        return self._directed_to_face[(j, i)]

    def face_left_of(self, i, j) -> int:
        return self._directed_to_face[(i, j)]

    @cached_property
    def _dual_pairs(self) -> tuple:
        return tuple(DualPair(i, j, self.face_right_of(i, j), self.face_left_of(i, j))
                     for i, j in self.graph.edges)

    def dual_pairs(self) -> tuple:
        """One consistently oriented DualPair per primal edge, in edge order.

        Built once per embedding and shared by every caller, hence a tuple.
        """
        return self._dual_pairs


def validate_embedding(g: Graph, faces, exterior_face=None) -> PlanarEmbedding:
    """Validate face data against the Euler relation and orientation rules."""
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
    return PlanarEmbedding(g, faces, exterior_face, directed)


def dual_graph(embedding: PlanarEmbedding):
    """Dual graph (one vertex per face, one edge per primal edge) and its dual pairs.

    The dual may have parallel edges combinatorially (e.g. for the triangle);
    they are collapsed in the returned Graph but each primal edge keeps its
    own DualPair.
    """
    pairs = embedding.dual_pairs()
    dual_edges = []
    seen = set()
    for p in pairs:
        e = canonical_edge(p.right, p.left)
        if e not in seen:
            seen.add(e)
            dual_edges.append(e)
    return Graph(embedding.face_count, tuple(dual_edges)), pairs
