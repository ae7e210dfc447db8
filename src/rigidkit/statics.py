"""Statics: loads, stresses, equilibrium, resolution, and virtual work.

Equilibrium is tested through one uniform criterion in all three geometries:
the total force bivector sum_i p_i ^ f_i must vanish.  Loads are kept in
ambient (d+1)-coordinates with tangency enforced at construction, so the
same code path serves E, S and H.  Beyond tangency equilibrium is only
C(d+1,2) bivector conditions: dim F is decided on 2 C(d+1,2) rows at most.
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
    operator_spectrum,
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


def equilibrium_spectrum(fw: Framework, tol=RANK_TOL) -> _linalg.Spectrum:
    """The Spectrum of the equilibrium stack, shape (k + n, n*(d+1)),
    k = C(d+1,2): the bivector map B (`bivector_map_matrix`) over one unit
    tangency row per vertex (e_0 in E, G p_i / |G p_i| on S/H).  Its right
    null space is F, with explicit tangency rows for non-spanning frameworks.

    Per vertex, the Householder reflection of `spaces._reflect` is
    orthogonal and sends the unit normal to -+e_0 and the tangent frame to
    e_1..e_d.  So [B; N] has the singular values of [[B_nu, B_T], [I_n, 0]]:
    B_nu (k x n) holds the normal components of B's per-vertex columns (up
    to a sign per vertex), B_T (k x n d) their frame coordinates, the
    `spaces._to_frames` of those columns.  With R the R factor of B_nu^T
    (r x k, r = min(n, k)), this has the row Gram matrix of
    [[R^T, B_T], [I_r, 0]] plus n - r unit rows orthogonal to them.  So the
    values are those of that small matrix, by one values-only SVD of its
    (r + n d) x (k + r) transpose, and n - r ones.  R comes from one R-only
    QR; no Q factor is formed, and LAPACK's SVD QR-factors the tall
    transpose itself.  The cutoff is the dense rule of `_linalg.spectrum`.
    """
    biv = bivector_map_matrix(fw)
    amb = fw.space.ambient_dim
    reflected = spaces._reflect(fw.coords, fw.space, biv.reshape(len(biv), fw.n, amb))
    r = np.linalg.qr(reflected[..., 0].T, mode="r")
    tall = np.zeros((len(r) + fw.n * fw.dim, len(biv) + len(r)))
    tall[:len(r)] = np.concatenate([r, np.eye(len(r))], axis=1)
    tall[len(r):, :len(biv)] = reflected[..., 1:].reshape(len(biv), -1).T
    s = _linalg.svd(tall, compute_uv=False) if tall.size else np.zeros(0)
    values = np.sort(np.concatenate([s, np.ones(fw.n - len(r))]))[::-1]
    # every column is non-zero: column (i, a) holds p_i[x], x != a, in its
    # bivector entries, and where these all vanish (p_i on the a-axis) its
    # tangency entry is not 0
    cutoff, rank = _linalg._svd_rank(values, np.count_nonzero(np.any(biv, axis=1)) + fw.n,
                                     fw.n * amb, tol)
    return _linalg.Spectrum(values, cutoff, rank, (len(biv) + fw.n, fw.n * amb))


@dataclass(frozen=True, eq=False)
class StaticSpaces:
    """The equilibrium load space F and the resolvable load space F_0.

    `equilibrium` and `resolution` are the spectra of the stacked
    bivector/tangency matrix (`equilibrium_spectrum`: every singular value,
    from its small reduction) and of the resolution map: dim F is the
    nullity of the bivector map restricted to tangent loads (explicit
    tangency rows, unit normals, handle non-spanning frameworks), dim F_0
    the rank of the resolution map and the self-stress count its nullity.
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
        """Orthonormal basis of the stresses resolving the zero load.  It
        stays dense, also where the rank came from the sparse path: it is the
        large side's null space (784 vectors on the 900-vertex grid)."""
        fw = self.framework
        rows = _linalg.nullspace(resolution_matrix(fw), self.resolution.rank)
        return tuple(Stress(fw.graph, row) for row in rows)


def static_spaces(fw: Framework, tol=RANK_TOL, operator=None) -> StaticSpaces:
    """The spectra of the stacked bivector/tangency matrix, by
    `equilibrium_spectrum` at every size, and of the resolution map; no
    bases.  The resolution spectrum is the rigidity operator's (see
    `StaticSpaces`): `operator`, its Spectrum at `tol` when the caller has
    it, else decided here by `kinematics.operator_spectrum`, as in
    `motion_spaces`.
    """
    equilibrium = equilibrium_spectrum(fw, tol)
    if operator is None:
        operator = operator_spectrum(fw, tol)
    return StaticSpaces(fw, equilibrium, replace(operator, shape=operator.shape[::-1]))


def static_dof(fw: Framework, tol=RANK_TOL) -> int:
    """dim F - dim F_0, both at the same rank tolerance.  Independent of
    `kinematics.kinematic_dof`, which can differ on badly scaled input; only
    `cli.analyze_framework` compares them (NumericalError)."""
    return static_spaces(fw, tol).static_dof


def virtual_work(q: VectorField, f: Load) -> float:
    """The pairing <q, f> = sum_i <q_i, f_i> (signed products, per vertex)."""
    require_same_framework(q.framework, f.framework)
    return virtual_work_field(q, f.vecs)
