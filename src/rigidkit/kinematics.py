"""Infinitesimal isometric deformations and the rigidity operator.

The operator realizes the linearized length constraints

    <p_i - p_j, q_i - q_j> = 0

one row per edge, in the same way in all three geometries: candidate fields
are written in per-vertex tangent frames (`spaces._to_frames`), d
coordinates per vertex, so the operator is m x n*d and its null space is
exactly the motion space V, mapped back to ambient (d+1)-vectors by
`spaces._from_frames`.  In E the frames are the coordinates 1..d.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg, spaces
from ._linalg import RANK_TOL
from .errors import FrameworkMismatch, InternalInvariantError, NotTangent, TooLarge
from .frameworks import Framework, is_spanning
from .spaces import EPS_MODEL


def _same_framework(a: Framework, b: Framework) -> bool:
    return a is b or (
        a.graph == b.graph and a.space == b.space and np.array_equal(a.coords, b.coords)
    )


def validate_tangent_field(fw: Framework, vecs, eps=EPS_MODEL) -> np.ndarray:
    """Check per-vertex tangency of an (n, d+1) array of ambient vectors v:
    |<nu_i, v_i>| <= eps max(1, max |v|) max(1, max |nu_i|), nu = `spaces._normals`."""
    vecs = np.array(vecs, dtype=float)
    if vecs.shape != (fw.n, fw.space.ambient_dim):
        raise NotTangent(
            "expected an (%d, %d) array of ambient vectors" % (fw.n, fw.space.ambient_dim)
        )
    if not np.all(np.isfinite(vecs)):
        raise NotTangent("vectors must be finite")
    scale = max(1.0, float(np.max(np.abs(vecs))) if vecs.size else 0.0)
    nu = spaces._normals(fw.coords, fw.space)
    bad = np.abs(np.einsum("ia,ia->i", nu, vecs)) > eps * scale * np.maximum(
        1.0, np.max(np.abs(nu), axis=1))
    if np.any(bad):
        raise NotTangent("vectors at vertices %s are not tangent" % np.nonzero(bad)[0].tolist())
    vecs.flags.writeable = False
    return vecs


@dataclass(frozen=True, eq=False)
class TangentVectors:
    """A tangent vector per vertex of a framework, stored as (n, d+1) ambient
    coordinates: velocities (`VectorField`) or forces (`statics.Load`), the
    two sides that virtual work pairs."""

    framework: Framework
    vecs: np.ndarray

    def __getitem__(self, i):
        return self.vecs[i]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vecs))


class VectorField(TangentVectors):
    """A tangent velocity per vertex."""


def vector_field(fw: Framework, vecs, eps=EPS_MODEL) -> VectorField:
    return VectorField(fw, validate_tangent_field(fw, vecs, eps))


def _flatten(fw: Framework, vecs: np.ndarray) -> np.ndarray:
    """Ambient fields (..., n, d+1) in tangent frames, flattened: (..., n*d)."""
    vecs = np.asarray(vecs)
    framed = spaces._to_frames(fw.reflectors, vecs)
    return framed.reshape(vecs.shape[:-2] + (fw.n * fw.dim,))


def _unflatten(fw: Framework, flat: np.ndarray) -> np.ndarray:
    """Inverse of `_flatten`: (..., n*d) back to ambient fields (..., n, d+1)."""
    flat = np.asarray(flat)
    return spaces._from_frames(fw.reflectors, flat.reshape(flat.shape[:-1] + (fw.n, fw.dim)))


def rigidity_operator(fw: Framework) -> _linalg.Entries:
    """Linearized edge constraints in tangent frames, one row per edge,
    written by index from `Graph.ends`: edge ij puts G(p_i - p_j) at vertex
    i and G(p_j - p_i) at vertex j, each in that vertex's tangent frame:
    shape (m, n*d)."""
    i, j = fw.graph.ends
    k = np.arange(fw.m)
    at = np.concatenate([i, j])
    diff = fw.space.metric_signs * (fw.coords[i] - fw.coords[j])
    rows = spaces._to_frames(fw.reflectors, np.concatenate([diff, -diff]), at)
    return _linalg.block_entries(np.concatenate([k, k]), at, rows, (fw.m, fw.n * fw.dim))


def edge_residuals(q: VectorField) -> np.ndarray:
    """|row . q| per edge of the rigidity operator of q's framework,
    normalized by ||row|| ||q||; for flex checks."""
    matrix = rigidity_operator(q.framework).toarray()
    flat = _flatten(q.framework, q.vecs)
    vals = matrix @ flat
    scale = np.linalg.norm(matrix, axis=1) * max(np.linalg.norm(flat), 1e-300)
    return np.abs(vals) / np.where(scale > 0, scale, 1.0)


#: Most entries, n d C(d+1, 2), of a Killing evaluation matrix.  The
#: bivector map of the statics has about as many, and both grow as n d^3: a
#: 20-vertex framework in E^100 (10.1 million) took 7.6 s and 444 MB in
#: `analyze`.  2^22 entries (32 MB) take 700000 vertices in E^2, or 8 in
#: E^100, whose `analyze` took 2.3 s and 228 MB.
KILLING_BUDGET = 2**22


def killing_evaluation_matrix(fw: Framework) -> np.ndarray:
    """Columns: the Killing fields at the vertices, in tangent frames and
    flattened, one per axis pair t = (a, b), a < b (`spaces.wedges` order).
    Column t at vertex i is -G (p_i ^ e_c)_t over the axes c, the force
    bivectors of `statics.bivector_map_matrix` read through the metric G: in
    E and S minus the frame part of that map.  On the chart x_0 = 1 of E the
    pairs (0, k) are the translations along -e_k, the others rotations; on S
    they are the skew matrices, on H the Lorentz algebra.

    TooLarge when the matrix would have more than KILLING_BUDGET entries.
    """
    rows, cols = fw.n * fw.dim, fw.dim * (fw.dim + 1) // 2
    if rows * cols > KILLING_BUDGET:
        raise TooLarge("%d vertices in dimension %d need a %d x %d Killing matrix, over the "
                       "budget of %d entries" % (fw.n, fw.dim, rows, cols, KILLING_BUDGET))
    fields = spaces.wedges(fw.coords[:, None, :], -np.diag(fw.space.metric_signs))  # (n, c, t)
    return _flatten(fw, np.moveaxis(fields, 2, 0)).T


@dataclass(frozen=True, eq=False)
class MotionSpaces:
    """The motion space V and the trivial space V_0 of a framework.

    `operator` and `killing` are the spectra of the rigidity operator and of
    the Killing evaluation matrix: dim V is the operator's nullity, dim V_0
    the rank of the evaluation map (which handles non-spanning frameworks,
    where some Killing fields evaluate to zero or become dependent).  A basis
    is built on first access, by one SVD with vectors of its rebuilt matrix
    cut at the stored rank; no matrix is kept.
    """

    framework: Framework
    operator: _linalg.Spectrum
    killing: _linalg.Spectrum

    @property
    def dim_V(self) -> int:
        return self.operator.nullity

    @property
    def dim_V0(self) -> int:
        return self.killing.rank

    @property
    def smallest_sigma(self) -> np.ndarray:
        """The two smallest of the operator's min(m, n*d) singular values: for
        m >= n*d, on a spanning framework, null values of trivial motions; for
        fewer edges row-side values, zero exactly when there is a self-stress."""
        return self.operator.smallest

    @property
    def kinematic_dof(self) -> int:
        return self.dim_V - self.dim_V0

    @cached_property
    def basis_V(self) -> tuple:
        """Orthonormal basis of V as VectorFields."""
        fw = self.framework
        rows = _linalg.nullspace(rigidity_operator(fw).toarray(), self.operator.rank)
        return tuple(VectorField(fw, vecs) for vecs in _unflatten(fw, rows))

    @cached_property
    def basis_V0(self) -> tuple:
        """Orthonormal basis of V_0: the Killing fields evaluated at the vertices."""
        return trivial_basis(self.framework, self.killing.rank)


def trivial_basis(fw: Framework, rank: int) -> tuple:
    """Orthonormal basis of V_0 as VectorFields: one SVD with vectors of the
    Killing evaluation matrix, cut at its rank `rank`, decided by the caller."""
    cols = _linalg.column_space(killing_evaluation_matrix(fw), rank)
    return tuple(VectorField(fw, vecs) for vecs in _unflatten(fw, cols.T))


def nontrivial_part(basis_V0, vecs) -> np.ndarray:
    """The flattened (n, d+1) array `vecs` minus its projection onto the span
    of the orthonormal VectorFields `basis_V0`."""
    flat = np.ravel(vecs)
    for t in basis_V0:
        t = t.vecs.ravel()
        flat = flat - (flat @ t) * t
    return flat


def motion_spaces(fw: Framework, tol=RANK_TOL) -> MotionSpaces:
    """The spectra of the rigidity operator and of the Killing evaluation
    matrix, one rank decision each, the operator's first; no bases.  The
    Killing fields lie in the operator's right null space, so their
    evaluation matrix, built once for both, goes along with the operator as
    the known null columns that the sparse path reads
    (`_linalg._sparse_spectrum`).  `statics.static_spaces` reads its
    resolvable loads and self-stresses from the same operator Spectrum."""
    killing = killing_evaluation_matrix(fw)
    operator = _linalg.spectrum(rigidity_operator(fw), tol, killing)
    ms = MotionSpaces(fw, operator, _linalg.spectrum(killing, tol))
    if ms.kinematic_dof < 0:
        raise InternalInvariantError(
            "dim V = %d < dim V0 = %d; rank tolerance is inconsistent" % (ms.dim_V, ms.dim_V0)
        )
    return ms


def kinematic_dof(fw: Framework, tol=RANK_TOL) -> int:
    """dim V - dim V_0, both at the same rank tolerance.  Independent of
    `statics.static_dof`, which can differ on badly scaled input; only
    `cli.analyze_framework` compares them (NumericalError)."""
    return motion_spaces(fw, tol).kinematic_dof


def is_infinitesimally_rigid(fw: Framework, tol=RANK_TOL) -> bool:
    ms = motion_spaces(fw, tol)
    rigid = ms.kinematic_dof == 0
    if is_spanning(fw, tol):
        # Rank-formula cross-check on the operator rank behind dim V (n*d
        # columns in every geometry); a mismatch would mean the operator and
        # Killing ranks disagree, not that the input is bad.
        d = fw.dim
        formula = ms.operator.rank == d * fw.n - d * (d + 1) // 2
        if formula != rigid:
            raise InternalInvariantError(
                "kinematic dof and rank formula disagree (dof=%d)" % ms.kinematic_dof
            )
    return rigid


def require_same_framework(a: Framework, b: Framework):
    if not _same_framework(a, b):
        raise FrameworkMismatch("objects belong to different frameworks")
