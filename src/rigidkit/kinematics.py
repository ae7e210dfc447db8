"""Infinitesimal isometric deformations and the rigidity operator.

The operator realizes the linearized length constraints

    <p_i - p_j, q_i - q_j> = 0        (Euclidean)
    <p_i, q_j> + <q_i, p_j> = 0       (spherical / hyperbolic)

one row per edge; in the non-Euclidean cases candidate fields are ambient
(d+1)-vectors and one tangency row <p_i, q_i> = 0 is appended per vertex, so
a single numerical nullspace yields exactly the motion space V.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _linalg
from ._linalg import RANK_TOL
from .errors import FrameworkMismatch, InternalInvariantError, NotTangent
from .frameworks import Framework, is_spanning
from .spaces import EPS_MODEL


def _same_framework(a: Framework, b: Framework) -> bool:
    return a is b or (
        a.graph == b.graph and a.space == b.space and np.array_equal(a.coords, b.coords)
    )


def validate_tangent_field(fw: Framework, vecs, eps=EPS_MODEL) -> np.ndarray:
    """Check per-vertex tangency of an (n, d+1) array of ambient vectors."""
    vecs = np.array(vecs, dtype=float)
    if vecs.shape != (fw.n, fw.space.ambient_dim):
        raise NotTangent(
            "expected an (%d, %d) array of ambient vectors" % (fw.n, fw.space.ambient_dim)
        )
    if not np.all(np.isfinite(vecs)):
        raise NotTangent("vectors must be finite")
    scale = max(1.0, float(np.max(np.abs(vecs))) if vecs.size else 0.0)
    if fw.space.is_euclidean:
        bad = np.abs(vecs[:, 0]) > eps * scale
    else:
        g = fw.space.metric_signs
        bad = np.abs(np.einsum("ia,a,ia->i", fw.coords, g, vecs)) > eps * scale * np.maximum(
            1.0, np.max(np.abs(fw.coords), axis=1)
        )
    if np.any(bad):
        raise NotTangent("vectors at vertices %s are not tangent" % np.nonzero(bad)[0].tolist())
    vecs.flags.writeable = False
    return vecs


@dataclass(frozen=True, eq=False)
class VectorField:
    """A tangent vector per vertex, stored as (n, d+1) ambient coordinates."""

    framework: Framework
    vecs: np.ndarray

    def __getitem__(self, i):
        return self.vecs[i]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vecs))


def vector_field(fw: Framework, vecs, eps=EPS_MODEL) -> VectorField:
    return VectorField(fw, validate_tangent_field(fw, vecs, eps))


def _flatten(fw: Framework, vecs: np.ndarray) -> np.ndarray:
    if fw.space.is_euclidean:
        return np.asarray(vecs)[:, 1:].ravel()
    return np.asarray(vecs).ravel()


def _unflatten(fw: Framework, flat: np.ndarray) -> np.ndarray:
    if fw.space.is_euclidean:
        out = np.zeros((fw.n, fw.space.ambient_dim))
        out[:, 1:] = flat.reshape(fw.n, fw.dim)
        return out
    return flat.reshape(fw.n, fw.space.ambient_dim)


@dataclass(frozen=True, eq=False)
class RigidityOperator:
    """Linearized edge constraints: one row per edge, then (S/H) one tangency
    row per vertex."""

    framework: Framework
    matrix: np.ndarray

    @property
    def edge_rows(self) -> np.ndarray:
        return self.matrix[: self.framework.m]

    def rank(self, tol=RANK_TOL) -> int:
        return _linalg.numerical_rank(self.matrix, tol)

    def smallest_singular_values(self, k=2) -> np.ndarray:
        return _linalg.smallest_singular_values(self.matrix, k)

    def edge_residuals(self, q: VectorField) -> np.ndarray:
        """|row . q| per edge, normalized by ||row|| ||q||; for flex checks."""
        flat = _flatten(self.framework, q.vecs)
        vals = self.edge_rows @ flat
        scale = np.linalg.norm(self.edge_rows, axis=1) * max(np.linalg.norm(flat), 1e-300)
        return np.abs(vals) / np.where(scale > 0, scale, 1.0)


def rigidity_operator(fw: Framework) -> RigidityOperator:
    n, m = fw.n, fw.m
    i, j = fw.graph.ends
    k = np.arange(m)
    if fw.space.is_euclidean:
        mat = np.zeros((m, n, fw.dim))
        diff = fw.coords[i, 1:] - fw.coords[j, 1:]
        mat[k, i] = diff
        mat[k, j] = -diff
        return RigidityOperator(fw, mat.reshape(m, n * fw.dim))
    amb = fw.space.ambient_dim
    gp = fw.space.metric_signs * fw.coords
    v = np.arange(n)
    mat = np.zeros((m + n, n, amb))
    mat[k, i] = gp[j]
    mat[k, j] = gp[i]
    mat[m + v, v] = gp
    return RigidityOperator(fw, mat.reshape(m + n, n * amb))


def motion_space(fw: Framework, tol=RANK_TOL) -> list:
    """Orthonormal basis of V(Gamma, p) as a list of VectorFields."""
    op = rigidity_operator(fw)
    basis = _linalg.nullspace(op.matrix, tol)
    return [VectorField(fw, _unflatten(fw, row)) for row in basis]


def killing_matrices(space) -> list:
    """Ambient matrices whose evaluation q_i = B p_i spans the Killing fields.

    Euclidean: translations plus spatial rotations, as the affine subalgebra
    of gl(d+1) with zero first row.  Spherical: skew matrices.  Hyperbolic:
    G A with A skew (the Lorentz algebra, B^T G = -G B).
    """
    amb = space.ambient_dim
    out = []
    if space.is_euclidean:
        for k in range(1, amb):
            b = np.zeros((amb, amb))
            b[k, 0] = 1.0
            out.append(b)
        for a, b_idx in combinations(range(1, amb), 2):
            m = np.zeros((amb, amb))
            m[a, b_idx] = 1.0
            m[b_idx, a] = -1.0
            out.append(m)
        return out
    g = np.diag(space.metric_signs)
    for a, b_idx in combinations(range(amb), 2):
        skew = np.zeros((amb, amb))
        skew[a, b_idx] = 1.0
        skew[b_idx, a] = -1.0
        out.append(g @ skew)
    return out


def killing_evaluation_matrix(fw: Framework) -> np.ndarray:
    """Columns: each Killing basis field evaluated at the vertices, flattened."""
    mats = killing_matrices(fw.space)
    cols = [
        _flatten(fw, (b @ fw.coords.T).T) for b in mats
    ]
    if not cols:
        return np.zeros((0, 0))
    return np.column_stack(cols)


def trivial_motion_space(fw: Framework, tol=RANK_TOL) -> list:
    """Orthonormal basis of V_0: the Killing fields evaluated at the vertices.

    The dimension is the rank of the evaluation map, which handles
    non-spanning frameworks (where some Killing fields evaluate to zero or
    become dependent).
    """
    basis = _linalg.column_space(killing_evaluation_matrix(fw), tol)
    return [VectorField(fw, _unflatten(fw, col)) for col in basis.T]


def trivial_motion_dim(fw: Framework, tol=RANK_TOL) -> int:
    return _linalg.numerical_rank(killing_evaluation_matrix(fw), tol)


def checked_basis(basis: list, count: int, what: str) -> tuple:
    """`basis` as a tuple, after checking it has the `count` vectors a
    values-only SVD found; a mismatch is a rank-decision bug."""
    if len(basis) != count:
        raise InternalInvariantError(
            "%s basis has %d vectors but the values-only SVD counted %d"
            % (what, len(basis), count)
        )
    return tuple(basis)


@dataclass(frozen=True, eq=False)
class MotionSpaces:
    """Dimensions of the motion space V and trivial space V_0, bases on request.

    The counts and the smallest singular values of the rigidity operator come
    from values-only SVDs; the bases are computed on first access and checked
    against the stored counts.
    """

    framework: Framework
    dim_V: int
    dim_V0: int
    smallest_sigma: np.ndarray
    tol: float = RANK_TOL

    @property
    def kinematic_dof(self) -> int:
        return self.dim_V - self.dim_V0

    @cached_property
    def basis_V(self) -> tuple:
        return checked_basis(motion_space(self.framework, self.tol), self.dim_V, "V")

    @cached_property
    def basis_V0(self) -> tuple:
        return checked_basis(
            trivial_motion_space(self.framework, self.tol), self.dim_V0, "V0"
        )


def motion_spaces(fw: Framework, tol=RANK_TOL) -> MotionSpaces:
    """dim V, dim V_0 and the smallest operator singular values; no bases.

    One values-only SVD of the rigidity operator and one of the Killing
    evaluation matrix.
    """
    op = rigidity_operator(fw)
    spec = _linalg.spectrum(op.matrix, tol)
    ms = MotionSpaces(
        fw, op.matrix.shape[1] - spec.rank, trivial_motion_dim(fw, tol), spec.smallest(), tol
    )
    if ms.kinematic_dof < 0:
        raise InternalInvariantError(
            "dim V = %d < dim V0 = %d; rank tolerance is inconsistent" % (ms.dim_V, ms.dim_V0)
        )
    return ms


def kinematic_dof(fw: Framework, tol=RANK_TOL) -> int:
    """dim V - dim V_0, both at the same rank tolerance."""
    return motion_spaces(fw, tol).kinematic_dof


def is_infinitesimally_rigid(fw: Framework, tol=RANK_TOL) -> bool:
    ms = motion_spaces(fw, tol)
    rigid = ms.kinematic_dof == 0
    if fw.space.is_euclidean and is_spanning(fw, tol):
        # Rank-formula cross-check on the operator rank behind dim V; a
        # mismatch would mean the operator and Killing ranks disagree, not
        # that the input is bad.
        d = fw.dim
        rank = d * fw.n - ms.dim_V
        formula = rank == d * fw.n - d * (d + 1) // 2
        if formula != rigid:
            raise InternalInvariantError(
                "kinematic dof and rank formula disagree (dof=%d)" % ms.kinematic_dof
            )
    return rigid


def virtual_work_field(q: VectorField, load_vecs: np.ndarray) -> float:
    """Sum over vertices of the signed inner products <q_i, f_i>."""
    fw = q.framework
    g = fw.space.metric_signs
    return float(np.einsum("ia,a,ia->", q.vecs, g, load_vecs))


def require_same_framework(a: Framework, b: Framework):
    if not _same_framework(a, b):
        raise FrameworkMismatch("objects belong to different frameworks")
