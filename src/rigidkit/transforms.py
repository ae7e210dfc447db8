"""Projective and geodesic images of frameworks, Pogorelov transport,
averaging and deaveraging.

All three map families (affine, projective, geodesic between E and S/H)
act on the canonical embeddings as a linear map followed by radial
renormalization onto the target model surface.  The static Pogorelov
transport is therefore implemented once, as the exact bivector pullback:
the transported force u at the image point y satisfies y ^ u = M p ^ M f.
The kinematic transport is the inverse adjoint of the static one under the
virtual-work pairing, obtained from a (d+1)x(d+1) solve per vertex.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEdge,
    DegenerateMidpoint,
    GraphMismatch,
    InvalidMapSpec,
    NotIsometric,
    OutsideChart,
    VertexAtInfinity,
)
from .frameworks import Framework, build_framework, is_isometric
from .kinematics import VectorField, require_same_framework, trivial_motion_space
from .spaces import EPS_MODEL, Space, SpaceKind, signed_inner, tangent_basis
from .statics import Load, Stress

_EPS_INF = 1e-12


@dataclass(frozen=True)
class MapSpec:
    """An applicable map: affine (A, b), projective (M), or geodesic chart."""

    kind: str                 # "affine" | "projective" | "geodesic"
    matrix: np.ndarray = None  # A (d x d) or M ((d+1) x (d+1))
    offset: np.ndarray = None  # affine translation b
    target: SpaceKind = None   # geodesic target kind

    def homogeneous(self, source: Space) -> np.ndarray:
        """The (d+1)x(d+1) linear representative acting on embedded points."""
        d = source.dim
        if self.kind == "affine":
            a = np.asarray(self.matrix, dtype=float)
            b = np.zeros(d) if self.offset is None else np.asarray(self.offset, dtype=float)
            if a.shape != (d, d) or b.shape != (d,):
                raise InvalidMapSpec("affine map needs a d x d matrix and d-vector")
            m = np.zeros((d + 1, d + 1))
            m[0, 0] = 1.0
            m[1:, 0] = b
            m[1:, 1:] = a
            return m
        if self.kind == "projective":
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (d + 1, d + 1):
                raise InvalidMapSpec("projective map needs a (d+1) x (d+1) matrix")
            return m
        if self.kind == "geodesic":
            return np.eye(d + 1)
        raise InvalidMapSpec("unknown map kind %r" % self.kind)

    def target_space(self, source: Space) -> Space:
        if self.kind in ("affine", "projective"):
            if not source.is_euclidean:
                raise InvalidMapSpec("affine/projective maps act on Euclidean frameworks")
            return source
        pairs = {
            (SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL),
            (SpaceKind.EUCLIDEAN, SpaceKind.HYPERBOLIC),
            (SpaceKind.SPHERICAL, SpaceKind.EUCLIDEAN),
            (SpaceKind.HYPERBOLIC, SpaceKind.EUCLIDEAN),
        }
        if (source.kind, self.target) not in pairs:
            raise InvalidMapSpec(
                "geodesic projection only maps between E and S/H (got %s -> %s)"
                % (source.kind.value, self.target.value if self.target else None)
            )
        return Space(self.target, source.dim)

    def to_dict(self) -> dict:
        if self.kind == "affine":
            return {
                "kind": "affine",
                "A": np.asarray(self.matrix).tolist(),
                "b": (np.asarray(self.offset).tolist() if self.offset is not None else None),
            }
        if self.kind == "projective":
            return {"kind": "projective", "M": np.asarray(self.matrix).tolist()}
        return {"kind": "geodesic", "to": self.target.value}


def affine_map(a, b=None) -> MapSpec:
    return MapSpec("affine", matrix=np.asarray(a, dtype=float),
                   offset=None if b is None else np.asarray(b, dtype=float))


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
            return affine_map(data["A"], data.get("b"))
        if kind == "projective":
            return projective_map(data["M"])
        if kind == "geodesic":
            return geodesic_map(data["to"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidMapSpec("malformed map spec: %s" % exc) from None
    raise InvalidMapSpec("unknown map kind %r" % kind)


def _normalizer(y_raw: np.ndarray, target: Space, index=None) -> float:
    """Scalar N with y_raw / N on the target model surface."""
    if target.is_euclidean:
        n = float(y_raw[0])
        if abs(n) <= _EPS_INF * max(1.0, float(np.max(np.abs(y_raw)))):
            if index is not None:
                raise VertexAtInfinity("vertex %d maps to infinity" % index)
            raise VertexAtInfinity("point maps to infinity")
        return n
    q = signed_inner(y_raw, y_raw, target)
    if target.is_spherical:
        if q <= _EPS_INF:
            raise OutsideChart("zero vector cannot be projected to the sphere")
        return float(np.sqrt(q))
    if q >= -_EPS_INF:
        raise OutsideChart(
            "vertex %s lies outside the Beltrami-Cayley-Klein chart"
            % ("?" if index is None else index)
        )
    n = float(np.sqrt(-q))
    return n if y_raw[0] > 0 else -n


class FrameworkMap:
    """A map spec bound to a source framework, with per-vertex transport."""

    def __init__(self, spec: MapSpec, fw: Framework):
        self.spec = spec
        self.source = fw
        self.source_space = fw.space
        self.target_space = spec.target_space(fw.space)
        self.linear = spec.homogeneous(fw.space)
        self.condition = float(np.linalg.cond(self.linear))
        if not np.isfinite(self.condition) or self.condition > 1e14:
            raise InvalidMapSpec(
                "map matrix is numerically singular (condition %.3g)" % self.condition
            )
        if spec.kind == "geodesic" and fw.space.is_spherical:
            if np.any(fw.coords[:, 0] <= _EPS_INF):
                bad = int(np.nonzero(fw.coords[:, 0] <= _EPS_INF)[0][0])
                raise OutsideChart("vertex %d not in the open upper hemisphere" % bad)
        # Normalization so the static factor at the chart origin e0 is 1;
        # only a global positive scalar, harmless if e0 maps to infinity.
        e0 = np.zeros(fw.space.ambient_dim)
        e0[0] = 1.0
        origin_n = float((self.linear @ e0)[0])
        self.global_scale = origin_n**2 if abs(origin_n) > _EPS_INF else 1.0
        self.normalizers = np.array(
            [_normalizer(self.linear @ fw.coords[i], self.target_space, i)
             for i in range(fw.n)]
        )
        coords = [self.linear @ fw.coords[i] / self.normalizers[i] for i in range(fw.n)]
        self.image = build_framework(
            fw.graph, self.target_space, coords, fw.embedding, renormalize=True
        )

    def point_image(self, x) -> np.ndarray:
        y_raw = self.linear @ np.asarray(x, dtype=float)
        return y_raw / _normalizer(y_raw, self.target_space)

    def static_at(self, i: int, vec: np.ndarray) -> np.ndarray:
        """Static Pogorelov transport of a tangent vector at vertex i."""
        y = self.image.coords[i]
        mv = self.linear @ vec
        n = self.normalizers[i]
        u = n * mv
        if self.target_space.is_euclidean:
            mu = -u[0]
        else:
            yy = signed_inner(y, y, self.target_space)
            mu = -signed_inner(y, u, self.target_space) / yy
        return (u + mu * y) / self.global_scale

    def static_matrix(self, i: int) -> np.ndarray:
        """Ambient matrix of the static transport at vertex i."""
        amb = self.source_space.ambient_dim
        return np.column_stack([self.static_at(i, e) for e in np.eye(amb)])

    def kinematic_at(self, i: int, vec: np.ndarray) -> np.ndarray:
        """Kinematic transport: inverse adjoint of the static map at vertex i.

        Solves for q' tangent at the image point with
        <q', static(t_k)> = <q, t_k> for a tangent basis t_k at the source.
        """
        src_pt = self.source.point(i)
        basis = tangent_basis(src_pt)
        amb = self.source_space.ambient_dim
        g_t = self.target_space.metric_signs
        rows = np.zeros((amb, amb))
        rhs = np.zeros(amb)
        for k, t in enumerate(basis):
            rows[k] = g_t * self.static_at(i, t)
            rhs[k] = signed_inner(vec, t, self.source_space)
        y = self.image.coords[i]
        if self.target_space.is_euclidean:
            last = np.zeros(amb)
            last[0] = 1.0
        else:
            last = g_t * y
        rows[-1] = last
        return np.linalg.solve(rows, rhs)


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


@dataclass(frozen=True, eq=False)
class TransportReport:
    """Transport bookkeeping: the map, its image, the per-vertex static
    transport matrices (ambient differentials), and the scale factors."""

    source: Framework
    image: Framework
    differentials: np.ndarray
    factors: np.ndarray
    global_scale: float
    condition: float = 1.0


def _transport_field(spec: MapSpec, fw: Framework, vecs: np.ndarray, static: bool):
    fmap = FrameworkMap(spec, fw)
    out = np.zeros((fw.n, fw.space.ambient_dim))
    for i in range(fw.n):
        if static:
            out[i] = fmap.static_at(i, vecs[i])
        else:
            out[i] = fmap.kinematic_at(i, vecs[i])
    diffs = np.stack([fmap.static_matrix(i) for i in range(fw.n)]) if fw.n else \
        np.zeros((0, fw.space.ambient_dim, fw.space.ambient_dim))
    report = TransportReport(fw, fmap.image, diffs, fmap.normalizers.copy(),
                             fmap.global_scale, fmap.condition)
    return fmap.image, out, report


def pogorelov_static(spec: MapSpec, fw: Framework, ld: Load):
    """Transport a load; equilibrium and resolvability are preserved both ways."""
    require_same_framework(fw, ld.framework)
    image, vecs, report = _transport_field(spec, fw, ld.vecs, static=True)
    return Load(image, vecs), report


def pogorelov_kinematic(spec: MapSpec, fw: Framework, field: VectorField):
    """Transport a velocity field; maps V to V and V_0 to V_0 of the image."""
    require_same_framework(fw, field.framework)
    image, vecs, report = _transport_field(spec, fw, field.vecs, static=False)
    return VectorField(image, vecs), report


def pogorelov_stress(spec: MapSpec, fw: Framework, w: Stress) -> Stress:
    """Transport a stress compatibly with the load transport.

    The edge bivector w_ij (dist/sin dist) p_i ^ p_j pushes forward under the
    linear representative, so the image stress picks up the two vertex
    normalizers and the global scale.
    """
    from . import spaces as _spaces

    fmap = FrameworkMap(spec, fw)
    src, tgt = fw.space, fmap.target_space
    vals = np.zeros(fw.m)
    for k, (i, j) in enumerate(fw.graph.edges):
        d_src = _spaces.distance(fw.point(i), fw.point(j))
        lam = w.values[k] * (1.0 if src.is_euclidean else d_src / src.sin_x(d_src))
        lam_img = lam * fmap.normalizers[i] * fmap.normalizers[j] / fmap.global_scale
        d_tgt = _spaces.distance(fmap.image.point(i), fmap.image.point(j))
        vals[k] = lam_img * (1.0 if tgt.is_euclidean else tgt.sin_x(d_tgt) / d_tgt)
    return Stress(fw.graph, vals)


# --- averaging / deaveraging -------------------------------------------------

@dataclass(frozen=True, eq=False)
class AveragingResult:
    framework: Framework
    field: VectorField
    nontrivial: bool


def _model_normalize(vec: np.ndarray, space: Space, what: str):
    if space.is_euclidean:
        return vec, 1.0
    q = signed_inner(vec, vec, space)
    if space.is_spherical:
        if q <= EPS_MODEL:
            raise DegenerateMidpoint("%s has vanishing norm" % what)
        n = float(np.sqrt(q))
    else:
        if q >= -EPS_MODEL or vec[0] <= 0:
            raise DegenerateMidpoint("%s is not normalizable to the upper sheet" % what)
        n = float(np.sqrt(-q))
    return vec / n, n


def average(fw1: Framework, fw2: Framework, tol=1e-7) -> AveragingResult:
    """Midpoint framework and the candidate flex of two isometric frameworks.

    Euclidean: p = (p' + p'')/2, q = (p' - p'')/2; on S/H both are divided by
    ||p' + p''||.  The field is flagged non-trivial when it has a component
    outside V_0 of the midpoint framework.
    """
    if fw1.graph != fw2.graph or fw1.space != fw2.space:
        raise GraphMismatch("averaging needs the same graph and space")
    if not is_isometric(fw1, fw2, tol):
        raise NotIsometric("averaging requires isometric frameworks")
    space = fw1.space
    coords = np.zeros_like(fw1.coords)
    qvecs = np.zeros_like(fw1.coords)
    for i in range(fw1.n):
        s = fw1.coords[i] + fw2.coords[i]
        d = fw1.coords[i] - fw2.coords[i]
        if space.is_euclidean:
            coords[i] = s / 2.0
            qvecs[i] = d / 2.0
        else:
            coords[i], n = _model_normalize(s, space, "vertex %d midpoint" % i)
            qvecs[i] = d / n
    mid = build_framework(fw1.graph, space, coords, fw1.embedding)
    field = VectorField(mid, qvecs)
    nontrivial = False
    if field.norm() > 0:
        basis = trivial_motion_space(mid)
        flat = qvecs.ravel()
        for b in basis:
            flat = flat - (flat @ b.vecs.ravel()) * b.vecs.ravel()
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
    space = fw.space
    out = []
    for sign in (+1.0, -1.0):
        coords = np.zeros_like(fw.coords)
        for i in range(fw.n):
            v = fw.coords[i] + sign * c * field.vecs[i]
            if space.is_euclidean:
                coords[i] = v
            else:
                coords[i], _ = _model_normalize(v, space, "vertex %d" % i)
        out.append(build_framework(fw.graph, space, coords, fw.embedding))
    return out[0], out[1]
