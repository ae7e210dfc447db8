"""Model-space kernel for the three constant-curvature geometries.

Points of E^d, S^d and H^d are stored as (d+1)-vectors in the canonical
embeddings

    E^d = {x : x_0 = 1},
    S^d = {x : <x, x> = 1},
    H^d = {x : <x, x> = -1, x_0 > 0},

where the scalar product is Euclidean for E/S and Minkowski
(-x_0 y_0 + x_1 y_1 + ... + x_d y_d) for H.  Storing Euclidean points in
embedded form keeps a single code path for distances, tangent vectors,
exponential maps and the bivector statics built on top of this module.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import (
    AntipodalOrInvalid,
    BaseMismatch,
    DegenerateEdge,
    DimensionMismatch,
    NotTangent,
    OffModel,
    WrongDimension,
    WrongSheet,
    ZeroVector,
)

#: Absolute tolerance for model-surface and tangency residuals.  Inputs are
#: human-authored JSON, not iterated computation, so a tight absolute bound
#: on unit-scale data is appropriate.
EPS_MODEL = 1e-9


class SpaceKind(Enum):
    EUCLIDEAN = "E"
    SPHERICAL = "S"
    HYPERBOLIC = "H"


@dataclass(frozen=True)
class Space:
    """A constant-curvature model space: kind (E/S/H) and dimension d >= 1."""

    kind: SpaceKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise WrongDimension("space dimension must be >= 1, got %d" % self.dim)

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


def signed_inner(x, y, space: Space) -> float:
    """Ambient scalar product: Euclidean dot for E/S, Minkowski for H."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = space.ambient_dim
    if x.shape != (n,) or y.shape != (n,):
        raise DimensionMismatch(
            "expected (%d,)-vectors, got %r and %r" % (n, x.shape, y.shape)
        )
    if space.is_hyperbolic:
        return float(-x[0] * y[0] + x[1:] @ y[1:])
    return float(x @ y)


def _quadratic_residual(coords, space: Space) -> float:
    q = signed_inner(coords, coords, space)
    if space.is_euclidean:
        return coords[0] - 1.0
    if space.is_spherical:
        return q - 1.0
    return q + 1.0


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A point of X^d stored as a (d+1)-vector in the canonical embedding."""

    space: Space
    coords: np.ndarray

    def inner(self, other: "ModelPoint") -> float:
        return signed_inner(self.coords, other.coords, self.space)

    def close_to(self, other: "ModelPoint", tol=EPS_MODEL) -> bool:
        return (
            self.space == other.space
            and bool(np.all(np.abs(self.coords - other.coords) <= tol))
        )

    def __repr__(self):
        return "ModelPoint(%s, %s)" % (self.space, np.array2string(self.coords))


def validate_point(coords, space: Space, eps=EPS_MODEL, renormalize=False) -> ModelPoint:
    """Check the model-surface invariant and wrap coordinates into a ModelPoint.

    With ``renormalize=True`` the vector is first projected radially onto the
    model surface (division by x_0 for E, by |<x,x>|^(1/2) for S/H) before the
    residual check.
    """
    coords = np.array(coords, dtype=float)
    n = space.ambient_dim
    if coords.shape != (n,):
        raise DimensionMismatch("expected a (%d,)-vector, got shape %r" % (n, coords.shape))
    if renormalize:
        if space.is_euclidean:
            if abs(coords[0]) <= eps:
                raise OffModel("cannot renormalize: x0 ~ 0")
            coords = coords / coords[0]
        else:
            q = signed_inner(coords, coords, space)
            if abs(q) <= eps:
                raise OffModel("cannot renormalize: isotropic vector")
            coords = coords / np.sqrt(abs(q))
            if space.is_hyperbolic and coords[0] < 0:
                coords = -coords
    resid = _quadratic_residual(coords, space)
    if abs(resid) > eps:
        raise OffModel(
            "point %s violates the %s model constraint (residual %.3g)"
            % (np.array2string(coords), space, resid)
        )
    if space.is_hyperbolic and coords[0] <= 0:
        raise WrongSheet("hyperbolic point must have x0 > 0")
    coords.flags.writeable = False
    return ModelPoint(space, coords)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient (d+1)-vector tangent to the model surface at `base`."""

    base: ModelPoint
    vec: np.ndarray

    @property
    def space(self) -> Space:
        return self.base.space

    def norm(self) -> float:
        # The restriction of the signed product to a tangent space is
        # positive definite in all three geometries.
        return float(np.sqrt(max(signed_inner(self.vec, self.vec, self.space), 0.0)))

    def __repr__(self):
        return "TangentVector(at %s: %s)" % (
            np.array2string(self.base.coords), np.array2string(self.vec)
        )


def tangent_vector(base: ModelPoint, vec, eps=EPS_MODEL) -> TangentVector:
    """Validate the tangency invariant and wrap into a TangentVector."""
    vec = np.array(vec, dtype=float)
    space = base.space
    if vec.shape != (space.ambient_dim,):
        raise DimensionMismatch(
            "expected a (%d,)-vector, got shape %r" % (space.ambient_dim, vec.shape)
        )
    scale = max(1.0, float(np.max(np.abs(vec))))
    if space.is_euclidean:
        if abs(vec[0]) > eps * scale:
            raise NotTangent("Euclidean tangent vector must have component 0 equal to 0")
    else:
        r = signed_inner(base.coords, vec, space)
        if abs(r) > eps * scale:
            raise NotTangent("vector not tangent at base point (residual %.3g)" % r)
    vec.flags.writeable = False
    return TangentVector(base, vec)


def tangent_basis(p: ModelPoint) -> np.ndarray:
    """Orthonormal basis of T_p X^d, one row per basis vector (d rows)."""
    space = p.space
    n = space.ambient_dim
    if space.is_euclidean:
        return np.eye(n)[1:]
    # Gram-Schmidt against p under the signed product; the restriction to the
    # tangent space is positive definite, so this is well posed.
    basis = []
    for v in np.eye(n):
        w = v - signed_inner(v, p.coords, space) / signed_inner(p.coords, p.coords, space) * p.coords
        for b in basis:
            w = w - signed_inner(w, b, space) * b
        nrm2 = signed_inner(w, w, space)
        if nrm2 > 1e-12:
            basis.append(w / np.sqrt(nrm2))
        if len(basis) == space.dim:
            break
    if len(basis) != space.dim:  # pragma: no cover - valid p implies full tangent space
        raise RuntimeError("failed to build a tangent basis at a valid point")
    return np.array(basis)


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


def distance(p: ModelPoint, q: ModelPoint, as_edge=False, eps=EPS_MODEL) -> float:
    """Geodesic distance between two points of the same space.

    With ``as_edge=True`` an antipodal spherical pair raises
    AntipodalOrInvalid instead of returning pi.
    """
    if p.space != q.space:
        raise DimensionMismatch("points live in different spaces")
    if as_edge and p.space.is_spherical and p.inner(q) <= -1.0 + eps:
        raise AntipodalOrInvalid("antipodal spherical points cannot span an edge")
    return float(distances([p.coords], [q.coords], p.space)[0])


def unit_tangent(p_i: ModelPoint, p_j: ModelPoint, eps=EPS_MODEL) -> TangentVector:
    """Unit tangent vector e at p_i with exp_{p_i}(dist * e) = p_j."""
    if p_i.space != p_j.space:
        raise DimensionMismatch("points live in different spaces")
    space = p_i.space
    if space.is_euclidean:
        diff = p_j.coords - p_i.coords
        nrm = np.linalg.norm(diff)
        if nrm <= eps:
            raise DegenerateEdge("coincident points have no direction")
        return TangentVector(p_i, diff / nrm)
    dist = distance(p_i, p_j, as_edge=True, eps=eps)
    s = space.sin_x(dist)
    if abs(s) <= eps:
        raise DegenerateEdge("coincident points have no direction")
    # cos_x(dist) equals <p_i, p_j> on the sphere and -<p_i, p_j> in the
    # hyperboloid; using it keeps the result tangent in both signatures.
    vec = (p_j.coords - space.cos_x(dist) * p_i.coords) / s
    return TangentVector(p_i, vec)


def exp_map(p: ModelPoint, v: TangentVector, t: float = 1.0) -> ModelPoint:
    """Geodesic exponential: point at parameter t along v from p."""
    if v.base is not p and not v.base.close_to(p):
        raise BaseMismatch("tangent vector is based at a different point")
    space = p.space
    if t == 0.0:
        return p
    if space.is_euclidean:
        coords = p.coords + t * v.vec
        return validate_point(coords, space)
    nrm = v.norm()
    if nrm == 0.0:
        raise ZeroVector("cannot follow a zero direction for t != 0")
    ang = t * nrm
    unit = v.vec / nrm
    coords = space.cos_x(ang) * p.coords + space.sin_x(ang) * unit
    return validate_point(coords, space, eps=1e-7, renormalize=True)


def cross3(u, v, space: Space) -> np.ndarray:
    """Cross product on R^3 adapted to the ambient form (d = 2 only).

    Defined by <u x v, w> = det(u, v, w) in the space's product; for the
    Minkowski form this flips the sign of component 0 of the Euclidean cross
    product, which fixes the orientation convention once and for all.
    """
    if space.dim != 2:
        raise WrongDimension("cross products require ambient dimension 3")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (3,) or v.shape != (3,):
        raise DimensionMismatch("cross3 expects 3-vectors")
    c = np.cross(u, v)
    if space.is_hyperbolic:
        c = c * np.array([-1.0, 1.0, 1.0])
    return c


def bivector_index_pairs(d: int):
    """Ordered coordinate pairs (a, b), a < b, indexing Lambda^2(R^(d+1))."""
    return list(combinations(range(d + 1), 2))


@dataclass(frozen=True, eq=False)
class Bivector:
    """An antisymmetric 2-tensor on R^(d+1), stored by its C(d+1, 2) components."""

    dim: int  # space dimension d; ambient is d+1
    comps: np.ndarray

    def __post_init__(self):
        expected = self.dim * (self.dim + 1) // 2
        if np.shape(self.comps) != (expected,):
            raise DimensionMismatch(
                "bivector on R^%d needs %d components" % (self.dim + 1, expected)
            )

    def norm_inf(self) -> float:
        if self.comps.size == 0:
            return 0.0
        return float(np.max(np.abs(self.comps)))

    def __add__(self, other: "Bivector") -> "Bivector":
        if self.dim != other.dim:
            raise DimensionMismatch("bivector dimensions differ")
        return Bivector(self.dim, self.comps + other.comps)

    def __mul__(self, scalar: float) -> "Bivector":
        return Bivector(self.dim, self.comps * float(scalar))

    __rmul__ = __mul__


def zero_bivector(d: int) -> Bivector:
    return Bivector(d, np.zeros(d * (d + 1) // 2))


def wedge(x, y, d: int) -> Bivector:
    """x ^ y in Lambda^2(R^(d+1)): components x_a y_b - x_b y_a for a < b."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (d + 1,) or y.shape != (d + 1,):
        raise DimensionMismatch("wedge expects (%d,)-vectors" % (d + 1))
    pairs = bivector_index_pairs(d)
    comps = np.array([x[a] * y[b] - x[b] * y[a] for a, b in pairs])
    return Bivector(d, comps)
