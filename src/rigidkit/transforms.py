"""Projective and geodesic images of frameworks, Pogorelov transport,
averaging and deaveraging.

All three map families (affine, projective, geodesic between E and S/H)
act on the canonical embeddings as a linear map followed by radial
renormalization onto the target model surface.  The static Pogorelov
transport is therefore one linear map per vertex, the exact bivector
pullback: the transported force u at the image point y satisfies
y ^ u = M p ^ M f.  The kinematic transport is the inverse adjoint of the
static one under the virtual-work pairing: one bordered (d+2)x(d+2) system
per vertex.  `FrameworkMap` applies both to all vertices at once.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import (
    DegenerateEdge,
    DegenerateMidpoint,
    GraphMismatch,
    InvalidMapSpec,
    NotIsometric,
    OutsideChart,
    VertexAtInfinity,
)
from .frameworks import Framework, _numbers, build_framework, is_isometric
from .kinematics import (
    VectorField,
    killing_evaluation_matrix,
    nontrivial_part,
    require_same_framework,
    trivial_basis,
)
from .spaces import EPS_MODEL, Space, SpaceKind, _normals, signed_inner
from .statics import Load, Stress, edge_factors

_EPS_INF = 1e-12


@dataclass(frozen=True)
class MapSpec:
    """An applicable map: projective (M, which an affine (A, b) also is) or
    geodesic chart."""

    kind: str                 # "projective" | "geodesic"
    matrix: np.ndarray = None  # M ((d+1) x (d+1))
    target: SpaceKind = None   # geodesic target kind

    def homogeneous(self, source: Space) -> np.ndarray:
        """The (d+1)x(d+1) linear representative acting on embedded points."""
        d = source.dim
        if self.kind == "geodesic":
            return np.eye(d + 1)
        if self.kind != "projective":
            raise InvalidMapSpec("unknown map kind %r" % self.kind)
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (d + 1, d + 1):
            raise InvalidMapSpec(
                "a map of E^%d needs a %d x %d matrix M (or a %d x %d matrix A and b of "
                "length %d), got M of shape %s" % (d, d + 1, d + 1, d, d, d, m.shape))
        # cM is the map M: scale it exactly by 2^k to max |entry| in [1, 2).
        m = np.ldexp(m, 1 - np.frexp(np.max(np.abs(m)))[1])
        if not np.all(np.isfinite(m)):
            raise InvalidMapSpec("map matrix has non-finite entries")
        return m

    def target_space(self, source: Space) -> Space:
        if self.kind == "projective":
            if not source.is_euclidean:
                raise InvalidMapSpec("affine/projective maps act on Euclidean frameworks")
            return source
        if source.is_euclidean == (self.target is SpaceKind.EUCLIDEAN):
            raise InvalidMapSpec(
                "geodesic projection only maps between E and S/H (got %s -> %s)"
                % (source.kind.value, self.target.value if self.target else None)
            )
        return Space(self.target, source.dim)

    def to_dict(self) -> dict:
        if self.kind == "geodesic":
            return {"kind": "geodesic", "to": self.target.value}
        return {"kind": "projective", "M": np.asarray(self.matrix).tolist()}


def affine_map(a, b=None) -> MapSpec:
    """x -> A x + b on E^d: the projective map M = [[1, 0], [b, A]]."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMapSpec("affine map needs a square matrix A, got A of shape %s"
                             % (a.shape,))
    d = len(a)
    b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    if b.shape != (d,):
        raise InvalidMapSpec("affine map with a %d x %d matrix A needs b of length %d, "
                             "got b of shape %s" % (d, d, d, b.shape))
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = 1.0
    m[1:, 0] = b
    m[1:, 1:] = a
    return projective_map(m)


def projective_map(m) -> MapSpec:
    return MapSpec("projective", matrix=np.asarray(m, dtype=float))


def geodesic_map(target_kind) -> MapSpec:
    if isinstance(target_kind, str):
        target_kind = SpaceKind(target_kind)
    return MapSpec("geodesic", target=target_kind)


def map_spec_from_dict(data: dict) -> MapSpec:
    try:
        kind = data["kind"]
        if kind == "affine":
            b = data.get("b")
            return affine_map(_numbers(data["A"], "A"), None if b is None else _numbers(b, "b"))
        if kind == "projective":
            return projective_map(_numbers(data["M"], "M"))
        if kind == "geodesic":
            return geodesic_map(SpaceKind(data["to"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidMapSpec("malformed map spec: %s" % exc) from None
    raise InvalidMapSpec("unknown map kind %r" % kind)


def _normalizers(raw: np.ndarray, target: Space) -> np.ndarray:
    """Per row y of `raw`, the scalar N with y / N on the target model
    surface; the lowest vertex that has none raises."""
    if target.is_euclidean:
        n = raw[:, 0]
        bad = np.abs(n) <= _EPS_INF * np.fmax(1.0, np.max(np.abs(raw), axis=1))
        if np.any(bad):
            raise VertexAtInfinity("vertex %d maps to infinity" % np.flatnonzero(bad)[0])
        return n
    q = signed_inner(raw, raw, target)
    if target.is_spherical:
        if np.any(q <= _EPS_INF):
            raise OutsideChart("zero vector cannot be projected to the sphere")
        return np.sqrt(q)
    bad = q >= -_EPS_INF
    if np.any(bad):
        raise OutsideChart("vertex %d lies outside the Beltrami-Cayley-Klein chart"
                           % np.flatnonzero(bad)[0])
    n = np.sqrt(-q)
    return np.where(raw[:, 0] > 0, n, -n)


def _covectors(points, space: Space) -> np.ndarray:
    """Per point p, the covector nu with nu . p = 1 that vanishes on the
    tangent space at p: the normal of `spaces._normals` over its product
    with p on S/H, and exactly e0 in E (where a file may give x0 != 1
    within EPS_MODEL)."""
    nu = _normals(points, space)
    if space.is_euclidean:
        return nu
    return nu / np.einsum("ia,ia->i", nu, points)[:, None]


def require_upper_hemisphere(coords) -> None:
    """OutsideChart unless every point of S has x0 > `_EPS_INF`: the open
    upper hemisphere, where the chart x -> x / x0 is defined and one-to-one."""
    bad = np.flatnonzero(coords[:, 0] <= _EPS_INF)
    if bad.size:
        raise OutsideChart("vertex %d not in the open upper hemisphere" % bad[0])


class FrameworkMap:
    """A map spec bound to a source framework, with stacked per-vertex transport.

    `differentials[i]` is the static transport at vertex i, the bivector
    pullback D_i = (I - y_i nu_i^T) N_i M / global_scale: M the linear
    representative, N_i the vertex's normalizer (`factors`), y_i the image
    point and nu_i its normal covector (see `_covectors`).  Then
    y_i ^ D_i f = M p_i ^ M f / global_scale, and D_i f is tangent at y_i.
    `systems[i]` is the bordered (d+2)x(d+2) system of the kinematic
    transport at vertex i (see `kinematic_at`).
    """

    def __init__(self, spec: MapSpec, fw: Framework):
        self.spec = spec
        self.source = fw
        self.source_space = fw.space
        self.target_space = spec.target_space(fw.space)
        self.linear = spec.homogeneous(fw.space)
        s = _linalg.svd(self.linear, compute_uv=False)
        self.condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        if not np.isfinite(self.condition) or self.condition > 1e14:
            raise InvalidMapSpec(
                "map matrix is numerically singular (condition %.3g)" % self.condition
            )
        if spec.kind == "geodesic" and fw.space.is_spherical:
            require_upper_hemisphere(fw.coords)
        # Normalization so the static factor at the chart origin e0 is 1;
        # only a global positive scalar, harmless if e0 maps to infinity.
        origin_n = float(self.linear[0, 0])
        self.global_scale = origin_n**2 if abs(origin_n) > _EPS_INF else 1.0
        raw = (self.linear @ fw.coords[:, :, None])[:, :, 0]
        self.factors = _normalizers(raw, self.target_space)
        self.image = build_framework(
            fw.graph, self.target_space, raw / self.factors[:, None], fw.embedding,
            renormalize=True,
        )
        y = self.image.coords
        nu = _covectors(y, self.target_space)
        proj = np.eye(y.shape[1]) - y[:, :, None] * nu[:, None, :]
        scale = self.factors / self.global_scale
        self.differentials = proj @ self.linear * scale[:, None, None]
        amb = fw.space.ambient_dim
        self.systems = np.zeros((fw.n, amb + 1, amb + 1))
        self.systems[:, :amb, :amb] = (self.differentials.transpose(0, 2, 1)
                                       * self.target_space.metric_signs)
        self.systems[:, :amb, amb] = -_covectors(fw.coords, fw.space)
        self.systems[:, amb, :amb] = nu

    def static_at(self, i, vec: np.ndarray) -> np.ndarray:
        """Static Pogorelov transport of a tangent vector at vertex i; for an
        index array or slice i, of one vector per indexed vertex."""
        return (self.differentials[i] @ vec[..., None])[..., 0]

    def kinematic_at(self, i, vec: np.ndarray) -> np.ndarray:
        """Kinematic transport: inverse adjoint of the static map at vertex i
        (for an index array or slice i, as `static_at`).

        Solves D_i^T G' q' - alpha nu_i = G v with nu'_i . q' = 0 (G, G' the
        source and target forms, nu_i, nu'_i the normal covectors at p_i and
        y_i): then <q', D_i t>' = <v, t> for every t tangent at p_i, and q' is
        tangent at y_i.  All systems are solved in one LAPACK call.
        """
        amb = self.source_space.ambient_dim
        rhs = np.zeros(vec.shape[:-1] + (amb + 1, 1))
        rhs[..., :amb, 0] = self.source_space.metric_signs * vec
        return np.linalg.solve(self.systems[i], rhs)[..., :amb, 0]

    def static(self, ld: Load) -> Load:
        """Transport a load; equilibrium and resolvability are preserved both ways."""
        require_same_framework(self.source, ld.framework)
        return Load(self.image, self.static_at(slice(None), ld.vecs))

    def kinematic(self, field: VectorField) -> VectorField:
        """Transport a velocity field; maps V to V and V_0 to V_0 of the image."""
        require_same_framework(self.source, field.framework)
        return VectorField(self.image, self.kinematic_at(slice(None), field.vecs))

    def stress(self, w: Stress) -> Stress:
        """Transport a stress compatibly with the load transport.

        The edge bivector lambda_ij p_i ^ p_j (lambda_ij / w_ij from
        `edge_factors`) pushes forward under M, so lambda picks up the two
        vertex normalizers and the global scale.
        """
        i, j = self.source.graph.ends
        lam = (w.values_on(self.source.graph) * edge_factors(self.source)[0]
               * self.factors[i] * self.factors[j])
        return Stress(self.image.graph, lam / self.global_scale / edge_factors(self.image)[0])


def apply_map(spec: MapSpec, fw: Framework) -> Framework:
    return FrameworkMap(spec, fw).image


def apply_projective(fw: Framework, m) -> Framework:
    """Projective image of a Euclidean framework (vertex images rescaled to x0 = 1)."""
    return apply_map(projective_map(m), fw)


def geodesic_project(fw: Framework, target) -> Framework:
    """Central projection between the chart x0 = 1 and the quadric models."""
    if isinstance(target, Space):
        if target.dim != fw.dim:
            raise InvalidMapSpec("geodesic projection cannot change the dimension")
        target = target.kind
    return apply_map(geodesic_map(target), fw)


# --- averaging / deaveraging -------------------------------------------------

@dataclass(frozen=True, eq=False)
class AveragingResult:
    framework: Framework
    field: VectorField
    nontrivial: bool


def _model_normalize(vecs: np.ndarray, space: Space, what: str):
    """The rows of `vecs` scaled onto the model surface, and the scales N:
    x0 in E, |<x, x>|^(1/2) on S/H.  DegenerateMidpoint names the first row,
    by `what` % its index, that cannot be scaled."""
    if space.is_euclidean:
        n = vecs[:, 0]
        bad, why = n <= EPS_MODEL, "lies at infinity"
    else:
        q = signed_inner(vecs, vecs, space)
        n = np.sqrt(np.abs(q))
        if space.is_spherical:
            bad, why = q <= EPS_MODEL, "has vanishing norm"
        else:
            bad = (q >= -EPS_MODEL) | (vecs[:, 0] <= 0)
            why = "is not normalizable to the upper sheet"
    if np.any(bad):
        raise DegenerateMidpoint("%s %s" % (what % np.flatnonzero(bad)[0], why))
    return vecs / n[:, None], n


def average(fw1: Framework, fw2: Framework, tol=1e-7) -> AveragingResult:
    """Midpoint framework and the candidate flex of two isometric frameworks.

    p = (p' + p'') / N and q = (p' - p'') / N, N the radial normalizer of
    p' + p'' (`_model_normalize`): in E, N = 2.  The field is flagged
    non-trivial when it has a component outside V_0 of the midpoint
    framework.
    """
    if fw1.graph != fw2.graph or fw1.space != fw2.space:
        raise GraphMismatch("averaging needs the same graph and space")
    if not is_isometric(fw1, fw2, tol):
        raise NotIsometric("averaging requires isometric frameworks")
    space = fw1.space
    coords, n = _model_normalize(fw1.coords + fw2.coords, space, "vertex %d midpoint")
    qvecs = (fw1.coords - fw2.coords) / n[:, None]
    mid = build_framework(fw1.graph, space, coords, fw1.embedding)
    field = VectorField(mid, qvecs)
    nontrivial = False
    if field.norm() > 0:
        killing = _linalg.spectrum(killing_evaluation_matrix(mid))
        flat = nontrivial_part(trivial_basis(mid, killing.rank), qvecs)
        nontrivial = bool(np.linalg.norm(flat) > 1e-7 * max(field.norm(), 1e-300))
    return AveragingResult(mid, field, nontrivial)


_DEAVERAGE_SEED = 20210905
_DEAVERAGE_RETRIES = 32


def deaverage(fw: Framework, field: VectorField, c: float):
    """The isometric pair p +- c q; retries a perturbed c on degeneracy.

    Schedule: c, 0.9 c, 1.1 c, then seeded random values in [0.01, 1].
    """
    require_same_framework(fw, field.framework)
    if c == 0:
        raise ZeroDivisionError("deaveraging needs c != 0")
    rng = np.random.RandomState(_DEAVERAGE_SEED)
    schedule = [c, 0.9 * c, 1.1 * c] + [
        float(rng.uniform(0.01, 1.0)) for _ in range(_DEAVERAGE_RETRIES)
    ]
    last_exc = None
    for ck in schedule:
        try:
            return _deaverage_once(fw, field, ck)
        except (DegenerateEdge, DegenerateMidpoint) as exc:
            last_exc = exc
    raise DegenerateEdge("no generic c found; last failure: %s" % last_exc)


def _deaverage_once(fw: Framework, field: VectorField, c: float):
    out = []
    for sign in (+1.0, -1.0):
        coords, _ = _model_normalize(fw.coords + sign * c * field.vecs, fw.space, "vertex %d")
        out.append(build_framework(fw.graph, fw.space, coords, fw.embedding))
    return out[0], out[1]
