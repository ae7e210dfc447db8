"""Statics: loads, stresses, equilibrium, resolution, and virtual work.

Equilibrium is tested through one uniform criterion in all three geometries:
the total force bivector sum_i p_i ^ f_i must vanish.  Loads are kept in
ambient (d+1)-coordinates with tangency enforced at construction, so the
same code path serves E, S and H.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg, spaces
from ._linalg import RANK_TOL
from .errors import DegenerateEdge, GraphError, InternalInvariantError
from .frameworks import Framework
from .graphs import Graph, canonical_edge
from .kinematics import (
    VectorField,
    require_same_framework,
    validate_tangent_field,
    virtual_work_field,
)
from .spaces import EPS_MODEL

#: Relative tolerance for the bivector equilibrium test (max-abs norm).
EQUILIBRIUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Load:
    """A tangent force vector per vertex of a framework."""

    framework: Framework
    vecs: np.ndarray

    def __getitem__(self, i):
        return self.vecs[i]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vecs))


def load(fw: Framework, vecs, eps=EPS_MODEL) -> Load:
    return Load(fw, validate_tangent_field(fw, vecs, eps))


def zero_load(fw: Framework) -> Load:
    return Load(fw, np.zeros((fw.n, fw.space.ambient_dim)))


class Stress:
    """Symmetric edge weights w_ij = w_ji, stored per undirected edge.

    `edges` is a sequence of vertex pairs, or a Graph: then the stress takes
    the graph's canonical edges in edge order and reuses its cached edge
    index instead of building its own.
    """

    def __init__(self, edges, values):
        if isinstance(edges, Graph):
            self._index = edges.edge_index()
            self.edges = tuple(self._index)
        else:
            self.edges = tuple(canonical_edge(i, j) for i, j in edges)
            self._index = {e: k for k, e in enumerate(self.edges)}
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.edges),):
            raise GraphError("stress needs one value per edge")

    def __getitem__(self, edge):
        return float(self.values[self._index[canonical_edge(*edge)]])

    def __len__(self):
        return len(self.edges)

    def values_on(self, g: Graph) -> np.ndarray:
        """The values in the edge order of `g`, read by edge; GraphError unless
        the stress has one value on each edge of `g` and on no other."""
        index = g.edge_index()
        if self._index is index:
            return self.values
        if len(self.edges) != len(index) or self._index.keys() != index.keys():
            raise GraphError("stress edges do not match the graph's edges")
        return self.values[[self._index[e] for e in index]]

    def scaled(self, factor: float) -> "Stress":
        return Stress(self.edges, self.values * factor)

    def as_dict(self) -> dict:
        return {e: float(w) for e, w in zip(self.edges, self.values)}

    def __repr__(self):
        return "Stress(%s)" % (self.as_dict(),)


def stress_from_dict(fw: Framework, mapping: dict) -> Stress:
    vals = np.zeros(fw.m)
    idx = fw.graph.edge_index()
    for e, w in mapping.items():
        key = canonical_edge(*e)
        if key not in idx:
            raise GraphError("stress on non-edge %r" % (e,))
        vals[idx[key]] = float(w)
    return Stress(fw.graph, vals)


def is_equilibrium_load(fw: Framework, ld: Load, tol=EQUILIBRIUM_TOL) -> bool:
    """True iff the total force bivector sum_i p_i ^ f_i vanishes, in max-abs
    norm relative to the largest single p_i ^ f_i."""
    require_same_framework(fw, ld.framework)
    per_vertex = spaces.wedges(fw.coords, ld.vecs)
    scale = float(np.max(np.abs(per_vertex))) if per_vertex.size else 0.0
    if scale == 0.0:
        return True
    return float(np.max(np.abs(per_vertex.sum(axis=0)))) <= tol * scale


def edge_factors(fw: Framework):
    """Per edge (lambda_ij / w_ij, c_ij): (1, 1) in E, (d / sin d, cos d) on
    S/H, d the edge length.

    The only place that knows how a stress enters the bivector picture: the
    edge bivector is lambda_ij p_i ^ p_j, and f (p_j - c p_i) is the force
    d e_ij at p_i along the edge.
    """
    if fw.space.is_euclidean:
        return np.ones(fw.m), np.ones(fw.m)
    i, j = fw.graph.ends
    dist = spaces.distances(fw.coords[i], fw.coords[j], fw.space)
    sin, cos = fw.space.sin_x(dist), fw.space.cos_x(dist)
    if np.any(np.abs(sin) <= EPS_MODEL) or np.any(cos <= -1.0 + EPS_MODEL):
        raise DegenerateEdge("an edge has coincident or antipodal endpoints")
    return dist / sin, cos


def resolution_entries(fw: Framework, frames=False) -> _linalg.Entries:
    """The map stress -> resolved load, shape (n*(d+1), m): column k, for
    edge ij with (f_k, c_k) from `edge_factors`, holds the force
    dist(p_i, p_j) e_ij = f_k (p_j - c_k p_i) at vertex i and
    f_k (p_i - c_k p_j) at vertex j; in the Euclidean case this is just
    p_j - p_i and its negative.

    With `frames`, each force is written in the tangent frame of its vertex
    instead, shape (n*d, m): a Householder reflection sends the unit normal
    of the tangent space (e_0 in E, G p_i / |G p_i| on S/H) to e_0, and the
    then-zero coordinate 0 is dropped.  The map is orthogonal per vertex, so
    the singular values stay, while the n left null vectors (the normals)
    go.  In E it drops exactly the zero rows.  A dropped coordinate larger
    than the model residual and roundoff allow is an InternalInvariantError.
    """
    f, c = edge_factors(fw)
    i, j = fw.graph.ends
    k = np.arange(fw.m)
    at, to = np.concatenate([i, j]), np.concatenate([j, i])
    f, c = np.concatenate([f, f])[:, None], np.concatenate([c, c])[:, None]
    forces = f * (fw.coords[to] - c * fw.coords[at])
    if frames:
        size = np.linalg.norm(fw.coords, axis=1)
        scale = f[:, 0] * (size[to] + np.abs(c[:, 0]) * size[at])
        forces = _in_tangent_frames(fw, at, forces, scale)
    return _linalg.block_entries(np.concatenate([k, k]), at, forces,
                                 (fw.m, fw.n * forces.shape[1])).T


def _in_tangent_frames(fw: Framework, at, forces, scale) -> np.ndarray:
    """Forces[t], tangent at vertex at[t], in that vertex's tangent frame.

    A normal component above 16 EPS_MODEL * scale[t] (the model residual
    allowed in a point, and roundoff, on terms of size scale[t]) means the
    force was not tangent: InternalInvariantError.
    """
    normal = _normals(fw)
    normal = normal / np.linalg.norm(normal, axis=1)[:, None]
    v = normal.copy()  # I - 2 v v^T / (v.v) sends the normal to -+e_0
    v[:, 0] += np.where(normal[:, 0] < 0.0, -1.0, 1.0)
    u, v = normal[at], v[at]
    dropped = np.abs(np.einsum("ka,ka->k", u, forces))
    if np.any(dropped > 16.0 * EPS_MODEL * scale):
        raise InternalInvariantError(
            "a resolved force has normal component %.3g at its vertex" % np.max(dropped))
    reflect = 2.0 * np.einsum("ka,ka->k", v, forces) / np.einsum("ka,ka->k", v, v)
    return forces[:, 1:] - reflect[:, None] * v[:, 1:]


def resolution_matrix(fw: Framework) -> np.ndarray:
    """Ambient matrix of the map stress -> resolved load, shape (n*(d+1), m);
    see `resolution_entries`."""
    return resolution_entries(fw).toarray()


def apply_stress(fw: Framework, w: Stress) -> Load:
    """The load resolved by `w`: f_i = sum_j w_ij dist(p_i, p_j) e_ij."""
    flat = resolution_matrix(fw) @ w.values_on(fw.graph)
    return Load(fw, flat.reshape(fw.n, fw.space.ambient_dim))


@dataclass(frozen=True)
class Unresolvable:
    """Returned by resolve_load when no stress reproduces the load."""

    residual: float


def resolve_load(fw: Framework, ld: Load, tol=1e-8):
    """Minimum-norm least-squares stress resolving `ld`, or Unresolvable.

    When self-stresses exist the resolving stress is non-unique; the
    minimum-norm representative is the deterministic choice.
    """
    require_same_framework(fw, ld.framework)
    target = ld.vecs.ravel()
    w, resid = _linalg.min_norm_lstsq(resolution_matrix(fw), target)
    scale = np.linalg.norm(target)
    if scale == 0.0:
        return Stress(fw.graph, np.zeros(fw.m))
    if resid > tol * scale:
        return Unresolvable(resid)
    return Stress(fw.graph, w)


def bivector_map_matrix(fw: Framework) -> np.ndarray:
    """Matrix of (ambient load) -> total bivector, shape (C(d+1,2), n*(d+1)).

    Column (i, a) holds p_i ^ e_a, the bivector of a unit force along axis a
    at vertex i.
    """
    amb = fw.space.ambient_dim
    per_column = spaces.wedges(fw.coords[:, None, :], np.eye(amb))  # (n, amb, pairs)
    return per_column.reshape(fw.n * amb, per_column.shape[-1]).T


def _normals(fw: Framework) -> np.ndarray:
    """Per vertex, the ambient normal of its tangent space: e_0 in E, G p_i
    on S/H."""
    if fw.space.is_euclidean:
        normals = np.zeros((fw.n, fw.space.ambient_dim))
        normals[:, 0] = 1.0
        return normals
    return fw.space.metric_signs * fw.coords


def tangency_matrix(fw: Framework) -> np.ndarray:
    """Rows constraining ambient per-vertex vectors to the tangent spaces."""
    amb = fw.space.ambient_dim
    mat = np.zeros((fw.n, fw.n, amb))
    v = np.arange(fw.n)
    mat[v, v] = _normals(fw)
    return mat.reshape(fw.n, fw.n * amb)


@dataclass(frozen=True, eq=False)
class StaticSpaces:
    """The equilibrium load space F and the resolvable load space F_0.

    `equilibrium` and `resolution` are the spectra of the stacked
    bivector/tangency matrix and of the resolution matrix: dim F is the
    nullity of the bivector map restricted to tangent loads (explicit
    tangency rows handle non-spanning frameworks), dim F_0 the rank of the
    resolution matrix and the self-stress count its nullity.  On S/H the
    resolution rank is decided in per-vertex tangent frames
    (`resolution_entries(fw, frames=True)`): the same singular values, but
    a left null space of the small dimension the sparse path needs.  The
    self-stress basis is built on first access, by one SVD with vectors of
    the rebuilt ambient resolution matrix, whose right null space is the
    same, cut at the stored rank; no matrix is kept.
    """

    framework: Framework
    equilibrium: _linalg.Spectrum
    resolution: _linalg.Spectrum

    @property
    def dim_F(self) -> int:
        return self.equilibrium.nullity

    @property
    def dim_F0(self) -> int:
        return self.resolution.rank

    @property
    def static_dof(self) -> int:
        return self.dim_F - self.dim_F0

    @property
    def self_stress_count(self) -> int:
        return self.resolution.nullity

    @cached_property
    def self_stress_basis(self) -> tuple:
        """Orthonormal basis of the stresses resolving the zero load."""
        fw = self.framework
        rows = _linalg.nullspace(resolution_matrix(fw), self.resolution.rank)
        return tuple(Stress(fw.graph, row) for row in rows)


def static_spaces(fw: Framework, tol=RANK_TOL) -> StaticSpaces:
    """The spectra of the stacked bivector/tangency matrix and the resolution
    matrix (in tangent frames off E), one rank decision each; no bases."""
    stacked = np.vstack([bivector_map_matrix(fw), tangency_matrix(fw)])
    resolution = resolution_entries(fw, frames=not fw.space.is_euclidean)
    return StaticSpaces(fw, _linalg.spectrum(stacked, tol), _linalg.spectrum(resolution, tol))


def static_dof(fw: Framework, tol=RANK_TOL) -> int:
    return static_spaces(fw, tol).static_dof


def virtual_work(q: VectorField, f: Load) -> float:
    """The pairing <q, f> = sum_i <q_i, f_i> (signed products, per vertex)."""
    require_same_framework(q.framework, f.framework)
    return virtual_work_field(q, f.vecs)
