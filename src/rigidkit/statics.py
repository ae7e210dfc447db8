"""Statics: loads, stresses, equilibrium, resolution, and virtual work.

Equilibrium is tested through one uniform criterion in all three geometries:
the total force bivector sum_i p_i ^ f_i must vanish.  Loads are kept in
ambient (d+1)-coordinates with tangency enforced at construction, so the
same code path serves E, S and H.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _linalg, spaces
from ._linalg import RANK_TOL
from .errors import DegenerateEdge, GraphError
from .frameworks import Framework, stress_positions
from .graphs import Graph, canonical_edge
from .kinematics import (
    VectorField,
    require_same_framework,
    rigidity_operator,
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
        return dict(zip(self.edges, self.values.tolist()))

    def __repr__(self):
        return "Stress(%s)" % (self.as_dict(),)


def stress_from_dict(fw: Framework, mapping: dict) -> Stress:
    """The stress with value mapping[(i, j)] on edge ij, keys either way
    round, and 0 on the edges not given; GraphError on a key that is no edge
    or names an edge a second time."""
    pairs = np.array(list(mapping), dtype=int).reshape(len(mapping), 2)
    vals = np.zeros(fw.m)
    vals[stress_positions(fw.graph, pairs)] = np.fromiter(mapping.values(), dtype=float,
                                                          count=len(mapping))
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


def resolution_entries(fw: Framework) -> _linalg.Entries:
    """The map stress -> resolved load, shape (n*(d+1), m): column k, for
    edge ij with (f_k, c_k) from `edge_factors`, holds the force
    dist(p_i, p_j) e_ij = f_k (p_j - c_k p_i) at vertex i and
    f_k (p_i - c_k p_j) at vertex j; in the Euclidean case this is just
    p_j - p_i and its negative.

    It has the rank of the rigidity operator R, from whose spectrum
    `static_spaces` reads it; see `StaticSpaces`.
    """
    f, c = edge_factors(fw)
    i, j = fw.graph.ends
    k = np.arange(fw.m)
    at, to = np.concatenate([i, j]), np.concatenate([j, i])
    f, c = np.concatenate([f, f])[:, None], np.concatenate([c, c])[:, None]
    forces = f * (fw.coords[to] - c * fw.coords[at])
    return _linalg.block_entries(np.concatenate([k, k]), at, forces,
                                 (fw.m, fw.n * fw.space.ambient_dim)).T


def resolution_matrix(fw: Framework) -> np.ndarray:
    """Ambient matrix of the map stress -> resolved load, shape (n*(d+1), m);
    see `resolution_entries`."""
    return resolution_entries(fw).toarray()


def apply_stress(fw: Framework, w: Stress) -> Load:
    """The load resolved by `w`: f_i = sum_j w_ij dist(p_i, p_j) e_ij."""
    flat = resolution_entries(fw).matvec(w.values_on(fw.graph))
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


def equilibrium_entries(fw: Framework) -> _linalg.Entries:
    """The bivector map stacked over one tangency row per vertex, shape
    (C(d+1,2) + n, n*(d+1)): its right null space is the equilibrium load
    space F, with explicit tangency rows for non-spanning frameworks.

    Row C(d+1,2) + i holds the unit normal of vertex i's tangent space
    (`spaces._normals`, scaled to length 1) at that vertex's columns:
    e_0 in E, G p_i / |G p_i| on S/H.  Scaling a row keeps the null space
    and the rank.  Unit rows keep the Gram matrix's n near-unit eigenvalues
    in one tight cluster; the rows G p_i, of lengths 1.00-1.18 on the H
    grids, spread them, which cost shift-invert Lanczos 20-70 times more
    solves.  Nothing of size n x n is filled.
    """
    biv = bivector_map_matrix(fw)
    rows, cols = np.indices(biv.shape).reshape(2, -1)
    v = np.arange(fw.n)
    shape = (len(biv) + fw.n, biv.shape[1])
    normals = spaces._normals(fw.coords, fw.space)
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    tangency = _linalg.block_entries(len(biv) + v, v, normals, shape)
    return _linalg.Entries(np.concatenate([rows, tangency.rows]),
                           np.concatenate([cols, tangency.cols]),
                           np.concatenate([biv.ravel(), tangency.vals]), shape)


@dataclass(frozen=True, eq=False)
class StaticSpaces:
    """The equilibrium load space F and the resolvable load space F_0.

    `equilibrium` and `resolution` are the spectra of the stacked
    bivector/tangency matrix (`equilibrium_entries`) and of the resolution
    map: dim F is the nullity of the bivector map restricted to tangent
    loads (explicit tangency rows, unit normals, handle non-spanning
    frameworks), dim F_0 the rank of the resolution map and the self-stress
    count its nullity.
    Written in per-vertex tangent frames, the resolution matrix is
    -R^T diag(f) in E and S, R the rigidity operator and f the edge factors
    (1 in E, d / sin d on S); on H also up to an invertible d x d block per
    vertex, the Minkowski form read in the Euclidean frames.  The frames,
    diag(f) and the blocks are invertible, so `resolution` is the operator's
    spectrum with its shape swapped: one rank decision serves R and R^T in
    every geometry.  Its values are R's singular values, those of the
    resolution matrix in E only.  The self-stress basis is built on first
    access, by one SVD with vectors of the rebuilt ambient resolution
    matrix cut at the stored rank; no matrix is kept.
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


def static_spaces(fw: Framework, tol=RANK_TOL, operator=None) -> StaticSpaces:
    """The spectra of the stacked bivector/tangency matrix and of the
    resolution map; no bases.  The resolution spectrum is the rigidity
    operator's (see `StaticSpaces`): `operator`, its Spectrum at `tol` when
    the caller has it, else decided here.
    """
    equilibrium = _linalg.spectrum(equilibrium_entries(fw), tol)
    if operator is None:
        operator = _linalg.spectrum(rigidity_operator(fw).entries, tol)
    return StaticSpaces(fw, equilibrium, replace(operator, shape=operator.shape[::-1]))


def static_dof(fw: Framework, tol=RANK_TOL) -> int:
    return static_spaces(fw, tol).static_dof


def virtual_work(q: VectorField, f: Load) -> float:
    """The pairing <q, f> = sum_i <q_i, f_i> (signed products, per vertex)."""
    require_same_framework(q.framework, f.framework)
    return virtual_work_field(q, f.vecs)
