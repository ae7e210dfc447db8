"""Model-space kernel for the three constant-curvature geometries.

Points of E^d, S^d and H^d are stored as (d+1)-vectors in the canonical
embeddings

    E^d = {x : x_0 = 1},
    S^d = {x : <x, x> = 1},
    H^d = {x : <x, x> = -1, x_0 > 0},

where the scalar product is Euclidean for E/S and Minkowski
(-x_0 y_0 + x_1 y_1 + ... + x_d y_d) for H.  Storing Euclidean points in
embedded form keeps a single code path for the three geometries.

The kernel is row-wise: a framework's points are one (n, d+1) array, and
`validate_points`, `signed_inner`, `distances` and `wedges` (the force
bivectors p_i ^ f_i of the statics) act on all rows at once.  So does the
frame map (`_to_frames`, `_from_frames`): tangent vectors in per-point
frames of the tangent spaces, d coordinates each, orthonormal for the
Euclidean product of R^(d+1), the same way in all three geometries.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, OffModel, WrongDimension, WrongSheet

#: Absolute tolerance for model-surface and tangency residuals.  Inputs are
#: human-authored JSON, not iterated computation, so a tight absolute bound
#: on unit-scale data is appropriate.
EPS_MODEL = 1e-9

#: Largest space dimension d.  Killing fields and force bivectors have
#: C(d+1, 2) components, so an analysis holds (d+1) C(d+1, 2) floats even
#: for a framework without vertices: 4 MB at d = 100, 4 GB at d = 1000.
MAX_DIM = 100


class SpaceKind(Enum):
    EUCLIDEAN = "E"
    SPHERICAL = "S"
    HYPERBOLIC = "H"


@dataclass(frozen=True)
class Space:
    """A constant-curvature model space: kind (E/S/H) and dimension
    1 <= d <= MAX_DIM."""

    kind: SpaceKind
    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise WrongDimension("space dimension must be in 1..%d, got %d"
                                 % (MAX_DIM, self.dim))

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def is_euclidean(self) -> bool:
        return self.kind is SpaceKind.EUCLIDEAN

    @property
    def is_spherical(self) -> bool:
        return self.kind is SpaceKind.SPHERICAL

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind is SpaceKind.HYPERBOLIC

    @property
    def metric_signs(self) -> np.ndarray:
        """Diagonal of the ambient bilinear form (Minkowski for H, else identity)."""
        g = np.ones(self.ambient_dim)
        if self.is_hyperbolic:
            g[0] = -1.0
        return g

    def sin_x(self, t):
        """sin for S, sinh for H (undefined for E)."""
        if self.is_spherical:
            return np.sin(t)
        if self.is_hyperbolic:
            return np.sinh(t)
        raise WrongDimension("sin_x is only defined on S and H")

    def cos_x(self, t):
        if self.is_spherical:
            return np.cos(t)
        if self.is_hyperbolic:
            return np.cosh(t)
        raise WrongDimension("cos_x is only defined on S and H")

    def __str__(self):
        return "%s^%d" % (self.kind.value, self.dim)


def euclidean(d: int) -> Space:
    return Space(SpaceKind.EUCLIDEAN, d)


def spherical(d: int) -> Space:
    return Space(SpaceKind.SPHERICAL, d)


def hyperbolic(d: int) -> Space:
    return Space(SpaceKind.HYPERBOLIC, d)


def space_from_code(code: str, d: int) -> Space:
    return Space(SpaceKind(code), d)


def signed_inner(x, y, space: Space):
    """Ambient scalar product: Euclidean dot for E/S, Minkowski for H.

    Two (d+1)-vectors give a float; two (k, d+1) arrays give the k row-wise
    products, each bit-identical to the product of that pair of rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = space.ambient_dim
    if x.shape != (n,) or y.shape != (n,):
        if x.ndim == 2 and x.shape == y.shape and x.shape[1] == n:
            # Batched matmul: one dot per row, as in the 1-D branch below.
            if space.is_hyperbolic:
                return -x[:, 0] * y[:, 0] + (x[:, None, 1:] @ y[:, 1:, None])[:, 0, 0]
            return (x[:, None, :] @ y[:, :, None])[:, 0, 0]
        raise DimensionMismatch(
            "expected (%d,)-vectors, got %r and %r" % (n, x.shape, y.shape)
        )
    if space.is_hyperbolic:
        return float(-x[0] * y[0] + x[1:] @ y[1:])
    return float(x @ y)


def validate_points(rows, space: Space, renormalize=False) -> np.ndarray:
    """Check the model-surface invariant of a (k, d+1) array of points and
    return a read-only copy.

    Rejects non-finite coordinates.  With ``renormalize=True`` each row is
    first projected radially onto the model surface (division by x_0 for E,
    by |<x,x>|^(1/2) for S/H) before the residual check.
    """
    rows = np.array(rows, dtype=float)
    n = space.ambient_dim
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionMismatch("expected (k, %d) coordinates, got shape %r" % (n, rows.shape))
    if not np.all(np.isfinite(rows)):
        raise OffModel("coordinates must be finite")
    if renormalize:
        if space.is_euclidean:
            if np.any(np.abs(rows[:, 0]) <= EPS_MODEL):
                raise OffModel("cannot renormalize: x0 ~ 0")
            rows = rows / rows[:, :1]
        else:
            q = signed_inner(rows, rows, space)
            if np.any(np.abs(q) <= EPS_MODEL):
                raise OffModel("cannot renormalize: isotropic vector")
            rows = rows / np.sqrt(np.abs(q))[:, None]
            if space.is_hyperbolic:
                rows[rows[:, 0] < 0] *= -1.0
    if space.is_euclidean:
        resid = rows[:, 0] - 1.0
    else:
        resid = signed_inner(rows, rows, space) - (1.0 if space.is_spherical else -1.0)
    bad = np.flatnonzero(np.abs(resid) > EPS_MODEL)
    if bad.size:
        raise OffModel(
            "point %s violates the %s model constraint (residual %.3g)"
            % (np.array2string(rows[bad[0]]), space, resid[bad[0]])
        )
    if space.is_hyperbolic and np.any(rows[:, 0] <= 0):
        raise WrongSheet("hyperbolic point must have x0 > 0")
    rows.flags.writeable = False
    return rows


def distances(p, q, space: Space) -> np.ndarray:
    """Row-wise geodesic distances between two (k, d+1) arrays of model points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if space.is_euclidean:
        return np.linalg.norm(p - q, axis=1)
    if space.is_spherical:
        # Chord form of arccos(clip(<p, q>)): same function, but well
        # conditioned at distance 0 (and near pi), where arccos loses half the
        # digits.
        near = np.einsum("ka,ka->k", p, q) >= 0.0
        half = 0.5 * np.linalg.norm(np.where(near[:, None], p - q, p + q), axis=1)
        arc = 2.0 * np.arcsin(np.minimum(half, 1.0))
        return np.where(near, arc, np.pi - arc)
    diff = p - q
    chord2 = np.einsum("ka,a,ka->k", diff, space.metric_signs, diff)
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(chord2, 0.0)))


def cross3(u, v, space: Space) -> np.ndarray:
    """Cross product on R^3 adapted to the ambient form (d = 2 only).

    Defined by <u x v, w> = det(u, v, w) in the space's product; for the
    Minkowski form this flips the sign of component 0 of the Euclidean cross
    product, which fixes the orientation convention once and for all.  Two
    3-vectors give a 3-vector; two (k, 3) arrays give the k row-wise products.
    """
    if space.dim != 2:
        raise WrongDimension("cross products require ambient dimension 3")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[-1:] != (3,) or u.ndim > 2:
        raise DimensionMismatch("cross3 expects 3-vectors or (k, 3) rows")
    c = np.cross(u, v)
    if space.is_hyperbolic:
        c = c * np.array([-1.0, 1.0, 1.0])
    return c


def bivector_index_pairs(d: int):
    """Ordered coordinate pairs (a, b), a < b, indexing Lambda^2(R^(d+1))."""
    return list(combinations(range(d + 1), 2))


def wedges(P, F) -> np.ndarray:
    """Row-wise p ^ f in Lambda^2(R^(d+1)): components p_a f_b - p_b f_a for
    a < b, in `bivector_index_pairs` order, along the last axis.

    `P` and `F` broadcast against each other, (..., d+1) each; two (k, d+1)
    arrays give one bivector row per vertex.
    """
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    a, b = np.array(bivector_index_pairs(P.shape[-1] - 1)).T
    return P[..., a] * F[..., b] - P[..., b] * F[..., a]


def _normals(points, space: Space) -> np.ndarray:
    """Per point, the ambient normal of its tangent space: e_0 in E, G p on
    S/H (not normalized)."""
    if space.is_euclidean:
        normals = np.zeros(np.shape(points))
        normals[:, 0] = 1.0
        return normals
    return space.metric_signs * points


def _reflectors(points, space: Space) -> np.ndarray:
    """Per point, the vector v of the Householder reflection I - v v^T that
    sends the unit normal of its tangent space to -+e_0: that normal plus
    +-e_0 (the sign of its coordinate 0), scaled to v.v = 2.  In E, v is
    2 / sqrt(2) e_0, exactly zero in coordinates 1..d."""
    v = _normals(points, space)
    v = v / np.linalg.norm(v, axis=1)[:, None]
    v[:, 0] += np.where(v[:, 0] < 0.0, -1.0, 1.0)
    return v / np.sqrt(np.abs(v[:, :1]))  # v.v = 2 |v_0| before the scaling


def _reflect(reflectors, vecs, at=slice(None)) -> np.ndarray:
    """Ambient vectors (..., k, d+1), vecs[..., t, :] at the point of
    reflectors[at][t], reflected by the Householder reflection of that point
    (`_reflectors`, read once per framework as `Framework.reflectors`):
    coordinate 0 is -+ the component along the unit normal, coordinates
    1..d are the tangent frame coordinates.  A whole matrix is reflected in
    one call."""
    v = reflectors[at]
    return vecs - np.einsum("...a,...a->...", v, vecs)[..., None] * v


def _to_frames(reflectors, vecs, at=slice(None)) -> np.ndarray:
    """Ambient vectors (..., k, d+1) in the tangent frames of their points:
    (..., k, d), coordinates 1..d of `_reflect`.  Coordinate 0, the normal
    component, is dropped, so a vector that is not tangent loses its normal
    part.  In E this is exactly vecs[..., 1:]."""
    return _reflect(reflectors, vecs, at)[..., 1:]


def _from_frames(reflectors, coords) -> np.ndarray:
    """Inverse of `_to_frames` on tangent vectors: frame coordinates
    (..., n, d) at the n points of `reflectors` back to ambient
    (..., n, d+1).  In E this is exactly coordinate 0 set to 0 before the d
    given ones."""
    vecs = np.concatenate([np.zeros(coords.shape[:-1] + (1,)), coords], axis=-1)
    return vecs - np.einsum("...a,...a->...", reflectors[:, 1:], coords)[..., None] * reflectors
