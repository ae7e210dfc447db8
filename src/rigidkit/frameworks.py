"""Frameworks: a graph with vertex positions in one model space.

Includes edge lengths, isometry comparison, the spanning test, and the JSON
interchange format used by the CLI and the example gallery.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import getitem

import numpy as np

from . import spaces
from ._linalg import RANK_TOL, spectrum
from .errors import (
    AntipodalEdge,
    DegenerateEdge,
    DimensionMismatch,
    GraphError,
    GraphMismatch,
    RigidkitError,
)
from .graphs import EdgeValues, Graph, PlanarEmbedding, graph, validate_embedding
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

    @cached_property
    def reflectors(self) -> np.ndarray:
        """Per vertex, the Householder vector of its tangent frame
        (`spaces._reflectors`), computed on first access: the rigidity
        operator, the Killing columns and the equilibrium stack of one
        analysis all read their frames through it."""
        v = spaces._reflectors(self.coords, self.space)
        v.flags.writeable = False
        return v

    def __repr__(self):
        return "Framework(%s, n=%d, m=%d)" % (self.space, self.n, self.m)


class EdgeLengthMap(EdgeValues):
    """Positive edge lengths, one per edge of `graph`."""


def _ambient_rows(coords, space: Space) -> np.ndarray:
    """Per-vertex coordinate rows as one (n, d+1) array.

    A Euclidean row may be a d-vector, and gets the leading 1; rows of the
    two widths may be mixed in a list.  A 2-d ndarray is read as one array:
    it holds no JSON booleans, so only its dtype is checked.
    """
    amb = space.ambient_dim
    if isinstance(coords, np.ndarray) and coords.ndim == 2:
        if coords.dtype.kind not in "iuf":
            raise TypeError("coordinates must be numbers")
        if coords.shape[1] == amb:
            return coords.astype(float)
        if not (space.is_euclidean and coords.shape[1] == space.dim):
            raise DimensionMismatch("every coordinate row must be a (%d,)-vector" % amb)
        rows = np.ones((len(coords), amb))
        rows[:, 1:] = coords
        return rows
    if isinstance(coords, np.ndarray):
        coords = coords.tolist()
    widths = np.fromiter(map(len, coords), dtype=int, count=len(coords))
    flat = _numbers(list(chain.from_iterable(coords)), "coordinates")
    if flat.shape != (widths.sum(),):
        raise TypeError("coordinates must be numbers")
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
    return _assemble(g, space, _ambient_rows(coords, space), embedding, renormalize)


def _assemble(g: Graph, space: Space, rows, embedding, renormalize) -> Framework:
    """`build_framework` on coordinates already read by `_ambient_rows`."""
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
    return EdgeLengthMap(fw.graph, lengths)


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
        "edges": np.column_stack(fw.graph.ends).tolist(),
    }
    if description is not None:
        d["description"] = description
    if fw.embedding is not None:
        d["faces"] = fw.embedding.face_lists()
        if fw.embedding.exterior_face is not None:
            d["exterior_face"] = int(fw.embedding.exterior_face)
    if stress is not None:
        edges = sorted(stress)
        d["stress"] = dict(zip(map("%d-%d".__mod__, edges),
                               map(float, map(stress.__getitem__, edges))))
    if load is not None:
        d["load"] = np.asarray(load, dtype=float).tolist()
    if field is not None:
        d["field"] = np.asarray(field, dtype=float).tolist()
    return d


def _integer(value, what: str) -> int:
    """A JSON integer as an int; a boolean, float, string or other value
    raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError("%s must be an integer, not %s" % (what, json.dumps(value, default=repr)))
    return int(value)


def _indices(values) -> np.ndarray:
    """JSON integers as an int array; booleans, a float, string or other
    value raise TypeError."""
    arr = np.array(values)
    if arr.size and arr.dtype.kind != "i":
        raise TypeError("indices must be integers, not %s" % arr.dtype)
    _no_booleans(values, arr, "indices")
    return arr.astype(int)


def _numbers(values, what: str) -> np.ndarray:
    """JSON numbers, in nested lists of equal lengths, as a float array; a
    boolean, string or other value raises TypeError, ragged lists ValueError."""
    arr = np.array(values)
    if arr.dtype.kind not in "iuf":
        raise TypeError("%s must be numbers" % what)
    _no_booleans(values, arr, what)
    return arr.astype(float)


def _no_booleans(values, arr, what: str):
    """TypeError when a boolean is among `values`, which numpy read as `arr`.
    Among numbers it reads one as 0 or 1, so only the items equal to 0 or 1
    are looked up, one index level at a time."""
    if arr.ndim == 0:
        values, arr = [values], arr[None]
    at = np.nonzero((arr == 0) | (arr == 1))
    items = repeat(values, at[0].size)
    for index in at:
        items = map(getitem, items, index.tolist())
    if not {bool, np.bool_}.isdisjoint(map(type, items)):
        raise TypeError("%s must be numbers, not booleans" % what)


def _finite(values, what: str):
    """`values` unchanged; NaN or infinity raises RigidkitError."""
    if not np.all(np.isfinite(values)):
        raise RigidkitError("%s must be finite" % what)
    return values


def stress_positions(g: Graph, pairs: np.ndarray) -> np.ndarray:
    """The edge positions of the stress keys (i, j), rows of `pairs`, either
    way round; GraphError names the first key on a non-edge, else the first
    on an edge that an earlier key took."""
    at = g.edge_positions(pairs[:, 0], pairs[:, 1])
    off = np.flatnonzero(at < 0)
    if off.size:
        raise GraphError("stress on non-edge %d-%d" % tuple(pairs[off[0]]))
    again = np.ones(at.size, dtype=bool)
    again[np.unique(at, return_index=True)[1]] = False
    if np.any(again):
        raise GraphError("stress on edge %d-%d given twice"
                         % tuple(np.sort(pairs[np.argmax(again)])))
    return at


#: Stress keys joined by commas: i-j in ASCII digits, one pair per key.
_STRESS_KEYS = re.compile(r"[0-9]+-[0-9]+(?:,[0-9]+-[0-9]+)*")


def framework_from_dict(data: dict) -> FrameworkDocument:
    try:
        space = spaces.space_from_code(data["space"], _integer(data["dim"], "dim"))
        vertices = _ambient_rows(data["vertices"], space)
        edges = _indices(data["edges"])
        if edges.shape[1:] != (2,) and edges.shape != (0,):
            raise ValueError("every edge must be a pair of vertex indices")
        g = graph(len(vertices), edges)
        faces = None
        if "faces" in data:
            faces = data["faces"]
            corners = _indices(list(chain.from_iterable(faces)))
            if corners.shape != (sum(map(len, faces)),):
                raise ValueError("every face must be a list of vertex indices")
        exterior = data.get("exterior_face")
        exterior = (None if faces is None or exterior is None
                    else _integer(exterior, "exterior_face"))
        stress = None
        if "stress" in data:
            keys = list(data["stress"])
            text = ",".join(keys)  # a key holding a comma adds a comma
            if keys and not (_STRESS_KEYS.fullmatch(text) and text.count(",") == len(keys) - 1):
                raise ValueError("stress keys must read i-j in ASCII digits")
            pairs = np.array(text.replace("-", ",").split(",") if keys else [],
                             dtype=int).reshape(-1, 2)
            values = _finite(_numbers(list(data["stress"].values()), "stress"), "stress")
            if values.shape != (len(pairs),):
                raise ValueError("stress values must be numbers")
            stress = pairs, values
        arrays = {name: _finite(_numbers(data[name], name), name)
                  for name in ("load", "field") if name in data}
    except (AttributeError, KeyError, OverflowError, ValueError, TypeError) as exc:
        raise GraphError("malformed framework data: %s" % exc) from None
    embedding = None if faces is None else validate_embedding(g, faces, exterior)
    fw = _assemble(g, space, vertices, embedding, False)
    doc = FrameworkDocument(fw, description=data.get("description"))
    if stress is not None:
        pairs, values = stress
        at = stress_positions(g, pairs)
        doc.stress = dict(zip(map(g.edges.__getitem__, at.tolist()), values.tolist()))
    for name, arr in arrays.items():
        if arr.shape != (fw.n, space.ambient_dim):
            raise GraphError("%s must be %d ambient (d+1)-vectors" % (name, fw.n))
        setattr(doc, name, arr)
    return doc


def json_text(data) -> str:
    """`json.dumps(data, indent=1)` for dicts with string keys, lists, tuples,
    strings, numbers, booleans and None, byte for byte, built by one
    recursive `str.join` instead of the generator-based encoder."""
    return _json_text(data, "\n")


def _json_text(value, newline: str) -> str:
    if isinstance(value, float):
        # NaN and the infinities are the floats x with x - x != 0.
        return float.__repr__(value) if value - value == 0 else _nonfinite_text(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + " "
    # Finite plain floats and plain ints, most of what is written, are
    # formatted in place rather than by a call per item.
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ("," + inner).join([
            float.__repr__(v) if type(v) is float and v - v == 0
            else int.__repr__(v) if type(v) is int
            else _json_text(v, inner) for v in value])
        return "[" + inner + items + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + inner).join([
            encode_basestring_ascii(k) + ": " + (
                float.__repr__(v) if type(v) is float and v - v == 0
                else _json_text(v, inner)) for k, v in value.items()])
        return "{" + inner + items + newline + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _nonfinite_text(x: float) -> str:
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def write_json(path, data):
    """Write `data` as `json.dump(data, fh, indent=1)` and a newline would."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(data) + "\n")


def save_framework(path, fw: Framework, **attachments):
    write_json(path, framework_to_dict(fw, **attachments))


def read_json(path):
    """The JSON value in the file at `path`.  A file that is not valid JSON,
    not UTF-8 text, nested deeper than the parser's recursion limit or
    holding an integer too long to convert raises RigidkitError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise RigidkitError("invalid JSON at line %d column %d: %s"
                                % (exc.lineno, exc.colno, exc.msg)) from None
        except (RecursionError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise RigidkitError("%s cannot be read as JSON: %s" % (path, exc)) from None


def load_framework(path) -> FrameworkDocument:
    return framework_from_dict(read_json(path))
