"""Frameworks: a graph with vertex positions in one model space.

Includes edge lengths, isometry comparison, the spanning test, and the JSON
interchange format used by the CLI and the example gallery.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import spaces
from ._linalg import RANK_TOL, spectrum
from .errors import (
    AntipodalEdge,
    DegenerateEdge,
    DimensionMismatch,
    GraphError,
    GraphMismatch,
)
from .graphs import Graph, PlanarEmbedding, canonical_edge, graph, validate_embedding
from .spaces import EPS_MODEL, Space


@dataclass(frozen=True, eq=False)
class Framework:
    """A framework (Gamma, p): graph, space, and embedded vertex coordinates.

    `coords` has shape (n, d+1); Euclidean rows carry an explicit leading 1.
    """

    graph: Graph
    space: Space
    coords: np.ndarray
    embedding: PlanarEmbedding = None

    @property
    def n(self) -> int:
        return self.graph.vertex_count

    @property
    def m(self) -> int:
        return self.graph.edge_count

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return "Framework(%s, n=%d, m=%d)" % (self.space, self.n, self.m)


class EdgeLengthMap:
    """Edge-indexed positive lengths, aligned with the graph's edge order."""

    def __init__(self, edges, values):
        self.edges = tuple(edges)
        self.values = np.asarray(values, dtype=float)
        self._index = {canonical_edge(i, j): k for k, (i, j) in enumerate(self.edges)}

    def __getitem__(self, edge):
        return float(self.values[self._index[canonical_edge(*edge)]])

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


def _ambient_rows(coords, space: Space) -> np.ndarray:
    """Per-vertex coordinate rows as one (n, d+1) array.

    A Euclidean row may be a d-vector, and gets the leading 1; rows of the
    two widths may be mixed.
    """
    amb = space.ambient_dim
    widths = np.fromiter(map(len, coords), dtype=int)
    flat = np.concatenate([np.zeros(0), *coords], dtype=float)
    short = widths == space.dim if space.is_euclidean else np.zeros(widths.size, bool)
    if np.any((widths != amb) & ~short):
        raise DimensionMismatch("every coordinate row must be a (%d,)-vector" % amb)
    rows = np.ones((widths.size, amb))
    given = np.ones(rows.shape, bool)
    given[short, 0] = False
    rows[given] = flat
    return rows


def build_framework(g: Graph, space: Space, coords, embedding=None,
                    renormalize=False) -> Framework:
    """Validate all points and edge non-degeneracy, then assemble a Framework.

    `coords` may be given per vertex either as full (d+1)-vectors or, for
    Euclidean space, as d-vectors (the leading 1 is added).
    """
    rows = _ambient_rows(coords, space)
    if len(rows) != g.vertex_count:
        raise GraphError(
            "graph has %d vertices but %d coordinate rows given" % (g.vertex_count, len(rows))
        )
    mat = spaces.validate_points(rows, space, renormalize)
    i, j = g.ends
    coincident = np.max(np.abs(mat[i] - mat[j]), axis=1) <= EPS_MODEL
    if np.any(coincident):
        raise DegenerateEdge(
            "edge (%d, %d) has coincident endpoints" % g.edges[np.argmax(coincident)]
        )
    if space.is_spherical:
        antipodal = np.max(np.abs(mat[i] + mat[j]), axis=1) <= EPS_MODEL
        if np.any(antipodal):
            raise AntipodalEdge(
                "edge (%d, %d) joins antipodal points" % g.edges[np.argmax(antipodal)]
            )
    if embedding is not None and embedding.graph != g:
        raise GraphMismatch("embedding belongs to a different graph")
    return Framework(g, space, mat, embedding)


def edge_lengths(fw: Framework) -> EdgeLengthMap:
    i, j = fw.graph.ends
    lengths = spaces.distances(fw.coords[i], fw.coords[j], fw.space)
    return EdgeLengthMap(fw.graph.edges, lengths)


def is_isometric(fw1: Framework, fw2: Framework, tol=1e-9) -> bool:
    """True iff the two frameworks have the same edge-length map within tol."""
    if fw1.graph != fw2.graph or fw1.space != fw2.space:
        raise GraphMismatch("frameworks differ in graph or space")
    l1 = edge_lengths(fw1).values
    l2 = edge_lengths(fw2).values
    if l1.size == 0:
        return True
    return bool(np.max(np.abs(l1 - l2)) <= tol)


def is_spanning(fw: Framework, tol=RANK_TOL) -> bool:
    """True iff the vertices are not contained in a proper geodesic subspace.

    In the canonical embeddings this is a single linear-rank test: geodesic
    subspaces are intersections with linear subspaces of R^(d+1), and the
    Euclidean affine-span condition is equivalent because of the constant
    leading coordinate.
    """
    if fw.n == 0:
        return False
    return spectrum(fw.coords, tol).rank == fw.space.ambient_dim


# --- JSON interchange --------------------------------------------------------

@dataclass
class FrameworkDocument:
    """A framework plus the optional attachments of the file format."""

    framework: Framework
    stress: dict = None      # canonical edge tuple -> float
    load: np.ndarray = None  # (n, d+1) ambient vectors
    field: np.ndarray = None
    description: str = None


def framework_to_dict(fw: Framework, stress=None, load=None, field=None,
                      description=None) -> dict:
    d = {
        "space": fw.space.kind.value,
        "dim": fw.space.dim,
        "vertices": np.asarray(fw.coords[:, 1:] if fw.space.is_euclidean else fw.coords,
                               dtype=float).tolist(),
        "edges": [[int(i), int(j)] for i, j in fw.graph.edges],
    }
    if description is not None:
        d["description"] = description
    if fw.embedding is not None:
        d["faces"] = [list(map(int, f)) for f in fw.embedding.faces]
        if fw.embedding.exterior_face is not None:
            d["exterior_face"] = int(fw.embedding.exterior_face)
    if stress is not None:
        d["stress"] = {"%d-%d" % e: float(w) for e, w in sorted(stress.items())}
    if load is not None:
        d["load"] = np.asarray(load, dtype=float).tolist()
    if field is not None:
        d["field"] = np.asarray(field, dtype=float).tolist()
    return d


def _indices(values) -> list:
    """JSON integers as ints; a float, string or other value raises TypeError."""
    return [operator.index(v) for v in values]


def _finite(values, what: str):
    """`values` unchanged; NaN or infinity raises ValueError."""
    if not np.all(np.isfinite(values)):
        raise ValueError("%s must be finite" % what)
    return values


def framework_from_dict(data: dict) -> FrameworkDocument:
    try:
        space = spaces.space_from_code(data["space"], int(data["dim"]))
        vertices = _ambient_rows(data["vertices"], space)
        g = graph(len(vertices), [tuple(_indices(e)) for e in data["edges"]])
        faces = [_indices(f) for f in data["faces"]] if "faces" in data else None
        exterior = data.get("exterior_face")
        exterior = None if faces is None or exterior is None else operator.index(exterior)
        stress = None
        if "stress" in data:
            stress = {}
            for key, w in data["stress"].items():
                i, j = (int(t) for t in key.split("-"))
                stress[(i, j)] = float(w)
            _finite(list(stress.values()), "stress")
        arrays = {name: _finite(np.array(data[name], dtype=float), name)
                  for name in ("load", "field") if name in data}
    except (AttributeError, KeyError, OverflowError, ValueError, TypeError) as exc:
        raise GraphError("malformed framework data: %s" % exc) from None
    embedding = None if faces is None else validate_embedding(g, faces, exterior)
    fw = build_framework(g, space, vertices, embedding)
    doc = FrameworkDocument(fw, description=data.get("description"))
    if stress is not None:
        for i, j in stress:
            if not g.has_edge(i, j):
                raise GraphError("stress on non-edge %d-%d" % (i, j))
        doc.stress = {canonical_edge(i, j): w for (i, j), w in stress.items()}
    for name, arr in arrays.items():
        if arr.shape != (fw.n, space.ambient_dim):
            raise GraphError("%s must be %d ambient (d+1)-vectors" % (name, fw.n))
        setattr(doc, name, arr)
    return doc


def save_framework(path, fw: Framework, **attachments):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(framework_to_dict(fw, **attachments), fh, indent=1)
        fh.write("\n")


def load_framework(path) -> FrameworkDocument:
    with open(path, encoding="utf-8") as fh:
        return framework_from_dict(json.load(fh))
