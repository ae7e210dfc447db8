"""Conversions among self-stresses, reciprocal diagrams and polyhedral lifts
in the Euclidean plane, on the sphere, and in the hyperbolic plane.

The three geometries share one projective picture (Izmestiev, "Projective
background of the infinitesimal rigidity of frameworks", Geom. Dedicata 140,
2009).  Every face a carries one vector M_a in R^3, read against the
vertices' ambient coordinates p_i: (1, x, y) in E, model points on S and H.
In E, M_a = (b_a, g_a) is the face function f_a(x) = <g_a, x> + b_a of the
vertical lift; on S and H it is the normal of the lifted face plane
<M_a, x> = kappa.  Across the dual pair of edge ij the face vectors jump by

    M_left - M_right = lambda_ij (p_i x p_j),

with lambda = w in E and lambda = w d / sin d on S/H (d the edge length).
One walk builds M from a stress or from a reciprocal diagram, and one
decomposition of the jumps recovers the stress.  Geometry enters only at the
ends: lambda <-> w, M <-> reciprocal point, M <-> stored lift plane, the
lifted vertices from c_i = <M_a, p_i>, the spherical base perturbation and
the hyperbolic stress halving.

Both walks go breadth-first over the dual graph from a base face (the
exterior face when identified, else face 0) and then re-check the defining
relation on *every* dual pair or incident vertex, which certifies
path-independence; residuals are kept on the returned objects, never
discarded.
"""

from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from . import _linalg, statics
from .errors import (
    ClosureFailure,
    CollinearFace,
    ConeFailure,
    BasePerturbationExhausted,
    DimensionMismatch,
    GraphError,
    NoExteriorFace,
    NonPlanarFace,
    NotEmbedded,
    NotMultiple,
    NotPerpendicular,
    NotSelfStress,
    OffModel,
    OriginPlane,
    RigidkitError,
    UnremovableIncidence,
    WrongDimension,
    WrongSheet,
    ZeroOnEdge,
)
from .frameworks import Framework, _finite, _numbers
from .graphs import Graph, _ranges, dual_graph, is_3_connected
from .spaces import cross3, signed_inner
from .statics import Stress

#: Absolute construction-residual tolerance on unit-scale data.
MC_TOL = 1e-9

#: Face vector of the base face in a stress walk, by geometry.  E: the zero
#: face function (reciprocal base point at the origin); S: a normal off every
#: coordinate plane, perturbed when some vertex ends up with c_i = 0; H: the
#: axis of the upper light cone.
_BASE_VECTOR = {"E": (0.0, 0.0, 0.0), "S": (1.0, 0.25, -0.4), "H": (1.0, 0.0, 0.0)}
_SPH_BASE_RETRIES = 32
_HYP_SCALE_STEPS = 60
_BASE_SEED = 811


class LiftKind(Enum):
    VERTICAL = "vertical"
    RADIAL = "radial"
    SPHERICAL_WEAK = "spherical-weak"
    SPHERICAL_STRONG = "spherical-strong"
    HYPERBOLIC_MINKOWSKI = "hyperbolic-minkowski"


#: The lifts `convert` accepts, by geometry; radial lifts only go through
#: radial_vertical_convert.
_LIFT_KINDS = {
    "E": (LiftKind.VERTICAL,),
    "S": (LiftKind.SPHERICAL_WEAK, LiftKind.SPHERICAL_STRONG),
    "H": (LiftKind.HYPERBOLIC_MINKOWSKI,),
}


@dataclass(eq=False)
class ReciprocalDiagram:
    """Positions for the dual graph with dual edges perpendicular to primal ones.

    Euclidean positions are plane points (F, 2); spherical/hyperbolic ones
    are model points (F, 3) in the respective quadric.  `stress_scale` is
    the halving of a hyperbolic stress, as on `PolyhedralLift`.
    """

    framework: Framework
    positions: np.ndarray
    strength: str = None  # spherical only: "weak" | "strong"
    #: Norm of the base face's lift normal before normalization onto the
    #: quadric; the S/H analogue of the Euclidean base-translation gauge.
    base_scale: float = 1.0
    stress_scale: float = 1.0
    residuals: dict = dataclass_field(default_factory=dict)

    @property
    def space(self):
        return self.framework.space

    @property
    def dual(self) -> Graph:
        """The dual graph of the framework's embedding, one vertex per position."""
        return dual_graph(self.framework.embedding)

    def perpendicularity_residuals(self) -> np.ndarray:
        """Per dual pair: the reciprocity defect, normalized to unit scale."""
        fw = self.framework
        i, j, a, b = fw.embedding.dual_pairs()
        if fw.space.is_euclidean:
            u = fw.coords[j, 1:] - fw.coords[i, 1:]
            v = self.positions[b] - self.positions[a]
            denom = np.maximum(np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1), 1e-300)
            return np.abs(_rowdot(u, v)) / denom
        ma, mb = self.positions[a], self.positions[b]
        pi, pj = fw.coords[i], fw.coords[j]
        return np.abs(signed_inner(ma, pi, fw.space) * signed_inner(mb, pj, fw.space) -
                      signed_inner(ma, pj, fw.space) * signed_inner(mb, pi, fw.space))

    def to_dict(self) -> dict:
        d = {
            "type": "reciprocal",
            "space": self.space.kind.value,
            "dim": self.space.dim,
            "positions": np.asarray(self.positions, dtype=float).tolist(),
            "strength": self.strength,
            "base_scale": float(self.base_scale),
        }
        if self.stress_scale != 1.0:
            d["stress_scale"] = float(self.stress_scale)
        return d


@dataclass(eq=False)
class PolyhedralLift:
    """Lifted vertices and face functionals making every face planar.

    face_planes rows: vertical lift (gx, gy, b) meaning z = gx x + gy y + b;
    radial lift (n0, n1, n2, c) meaning <n, x> = c; spherical/hyperbolic the
    vector m with <m, x> = kappa (kappa = +1 on S, -1 on H).

    The planes are authoritative: conversions read the lift by them, and
    refuse (NonPlanarFace) a lifted vertex off the plane of a face around it.
    """

    framework: Framework
    kind: LiftKind
    vertex_points: np.ndarray
    face_planes: np.ndarray
    radial_center: np.ndarray = None
    stress_scale: float = 1.0
    residuals: dict = dataclass_field(default_factory=dict)

    def heights(self) -> np.ndarray:
        if self.kind is not LiftKind.VERTICAL:
            raise WrongDimension("heights are defined for vertical lifts only")
        return self.vertex_points[:, 2]

    def incidence_residuals(self) -> np.ndarray:
        """|<m_face, lifted vertex> - kappa| over incident pairs, flattened."""
        fw = self.framework
        a, i, _, _ = fw.embedding.corners
        planes, points = self.face_planes[a], self.vertex_points[i]
        if self.kind is LiftKind.VERTICAL:
            gx, gy, b = planes.T
            x, y = fw.coords[i, 1:].T
            return np.abs(gx * x + gy * y + b - points[:, 2])
        if self.kind is LiftKind.RADIAL:
            return np.abs(_rowdot(planes[:, :3], points) - planes[:, 3])
        kappa = -1.0 if self.kind is LiftKind.HYPERBOLIC_MINKOWSKI else 1.0
        return np.abs(signed_inner(planes, points, fw.space) - kappa)

    def to_dict(self) -> dict:
        d = {
            "type": "lift",
            "kind": self.kind.value,
            "space": self.framework.space.kind.value,
            "vertex_points": np.asarray(self.vertex_points, dtype=float).tolist(),
            "face_planes": np.asarray(self.face_planes, dtype=float).tolist(),
            "stress_scale": float(self.stress_scale),
        }
        if self.radial_center is not None:
            d["radial_center"] = np.asarray(self.radial_center, dtype=float).tolist()
        return d


def _numeric(data: dict, key: str, shape: tuple) -> np.ndarray:
    """data[key] as a finite float array of the given shape."""
    if key not in data:
        raise RigidkitError("object has no %r" % key)
    try:
        arr = _numbers(data[key], key)
    except (TypeError, ValueError, OverflowError):
        raise DimensionMismatch("%r is not a numeric array" % key) from None
    if arr.shape != shape:
        raise DimensionMismatch("%r has shape %r, expected %r" % (key, arr.shape, shape))
    return _finite(arr, key)


def _require_finite_object(obj):
    """`frameworks._finite` on every number of a stress, reciprocal or lift,
    as `_numeric` checks files: a residual test `worst > limit` passes NaN."""
    for key in ("values", "positions", "base_scale", "vertex_points", "face_planes",
                "radial_center", "stress_scale"):
        if getattr(obj, key, None) is not None:
            _finite(getattr(obj, key), key)


def _require_object(fw: Framework, data, what: str):
    if fw.embedding is None:
        raise GraphError("framework carries no planar embedding")
    if not isinstance(data, dict):
        raise RigidkitError("a %s must be a JSON object" % what)


def _scalar(data: dict, key: str) -> float:
    """data[key] as a finite float, 1.0 when absent."""
    return float(_numeric(data, key, ())) if key in data else 1.0


def _stress_scale(fw: Framework, data: dict) -> float:
    """data["stress_scale"], 1.0 when absent: 1 on E and S, and on H a
    power 2^-k with 0 <= k < _HYP_SCALE_STEPS, the factors the cone halving
    of `_face_vectors_from_stress` writes."""
    scale = _scalar(data, "stress_scale")
    mantissa, exponent = np.frexp(scale)
    if fw.space.is_hyperbolic:
        if not (mantissa == 0.5 and 1 - _HYP_SCALE_STEPS < exponent <= 1):
            raise RigidkitError("stress_scale on H must be 2^-k with 0 <= k < %d, got %r"
                                % (_HYP_SCALE_STEPS, scale))
    elif scale != 1.0:
        raise RigidkitError("stress_scale on %s must be 1, got %r" % (fw.space, scale))
    return scale


def reciprocal_from_dict(fw: Framework, data: dict) -> ReciprocalDiagram:
    """Parse ReciprocalDiagram.to_dict output; malformed data raises
    RigidkitError.  S/H positions must lie on the model quadric <x, x> =
    kappa to 1e-12 max(1, |x|^2) (OffModel), on H with x0 > 0 (WrongSheet),
    and base_scale must be > 0.  strength is null or absent, or on S "weak"
    or "strong"; stress_scale is as `_stress_scale` reads it."""
    _require_object(fw, data, "reciprocal")
    space = fw.space
    pos = _numeric(data, "positions", (fw.embedding.face_count, 2 if space.is_euclidean else 3))
    if not space.is_euclidean:
        kappa = 1.0 if space.is_spherical else -1.0
        off = np.abs(signed_inner(pos, pos, space) - kappa) > 1e-12 * np.maximum(
            1.0, np.sum(pos**2, axis=1))
        if np.any(off):
            raise OffModel("reciprocal position %d is off the %s model surface"
                           % (np.argmax(off), space))
        if space.is_hyperbolic and np.any(pos[:, 0] <= 0):
            raise WrongSheet("reciprocal position %d has x0 <= 0" % np.argmax(pos[:, 0] <= 0))
    base_scale = _scalar(data, "base_scale")
    if not base_scale > 0:
        raise RigidkitError("base_scale must be > 0, got %r" % base_scale)
    strength = data.get("strength")
    if strength not in ((None, "weak", "strong") if space.is_spherical else (None,)):
        raise RigidkitError("strength %r is not written on %s" % (strength, space))
    return ReciprocalDiagram(fw, pos, strength, base_scale, _stress_scale(fw, data))


def lift_from_dict(fw: Framework, data: dict) -> PolyhedralLift:
    """Parse PolyhedralLift.to_dict output; malformed data raises RigidkitError."""
    _require_object(fw, data, "lift")
    try:
        kind = LiftKind(data["kind"])
    except KeyError:
        raise RigidkitError("object has no 'kind'") from None
    except (TypeError, ValueError):
        raise RigidkitError("unknown lift kind %r" % (data["kind"],)) from None
    width = 4 if kind is LiftKind.RADIAL else 3
    center = data.get("radial_center")
    return PolyhedralLift(
        fw,
        kind,
        _numeric(data, "vertex_points", (fw.n, 3)),
        _numeric(data, "face_planes", (fw.embedding.face_count, width)),
        None if center is None else _numeric(data, "radial_center", (3,)),
        _stress_scale(fw, data),
    )


# --- shared machinery ---------------------------------------------------------

def _require_mc_framework(fw: Framework):
    if fw.dim != 2:
        raise WrongDimension("Maxwell-Cremona conversions need d = 2")
    if fw.embedding is None:
        raise GraphError("framework carries no planar embedding")
    if not is_3_connected(fw.embedding):
        raise GraphError("Maxwell-Cremona conversions need a 3-connected graph")


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean dot products of two (k, w) arrays, each as x_k @ y_k."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _require_self_stress(fw: Framework, w: np.ndarray, tol):
    """Check the values `w`, in edge order, for a nowhere-zero self-stress."""
    res = statics.resolution_entries(fw).matvec(w)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    edge_scale = scale * max(float(np.max(np.abs(fw.coords))), 1.0)
    if float(np.max(np.abs(res))) > tol * edge_scale * fw.n:
        raise NotSelfStress(
            "stress does not resolve the zero load (residual %.3g)" % np.max(np.abs(res))
        )
    small = np.abs(w) <= 1e-12 * scale
    if np.any(small):
        raise ZeroOnEdge(
            "self-stress vanishes on edges %s"
            % [fw.graph.edges[k] for k in np.nonzero(small)[0]]
        )


def _base_face(fw: Framework) -> int:
    ext = fw.embedding.exterior_face
    return ext if ext is not None else 0


def _bfs_levels(fw: Framework, start: int) -> list:
    """The breadth-first spanning tree of the dual graph from face `start`,
    one level at a time: per level, arrays (parents, children, pairs,
    forward) in the order a first-in first-out queue reaches the children.

    Child b is reached from the first queued face a next to it, across the
    first dual pair k of a that joins them; `forward` is True when a is the
    pair's right face (the consistently oriented direction).
    """
    _, _, rights, lefts = fw.embedding.dual_pairs()
    nf, m = fw.embedding.face_count, rights.size
    face = np.concatenate([rights, lefts])
    other = np.concatenate([lefts, rights])
    pair = np.concatenate([np.arange(m), np.arange(m)])
    forward = np.arange(2 * m) < m
    around = np.lexsort((pair, face))  # the arcs of each face, in pair order
    degree = np.bincount(face, minlength=nf)
    first = np.cumsum(degree) - degree
    seen = np.arange(nf) == start
    frontier, levels = np.array([start]), []
    while True:
        arcs = around[_ranges(first[frontier], degree[frontier])]
        arcs = arcs[~seen[other[arcs]]]
        if not arcs.size:
            break
        arcs = arcs[np.sort(np.unique(other[arcs], return_index=True)[1])]
        frontier = other[arcs]
        seen[frontier] = True
        levels.append((face[arcs], frontier, pair[arcs], forward[arcs]))
    if not seen.all():  # pragma: no cover - dual connected
        raise ClosureFailure("dual graph is disconnected")
    return levels


def _check_no_collinear_faces(fw: Framework):
    """CollinearFace for the first face on one geodesic, whose ambient points
    ((1, x, y) in E) have rank below 3: one stacked SVD per face length."""
    bad = []
    for faces, cycles in fw.embedding.face_groups:
        pts = fw.coords[cycles]
        cutoff = 1e-12 * np.maximum(1.0, np.max(np.abs(pts), axis=(1, 2)))
        rank = np.sum(_linalg.svd(pts, compute_uv=False) > cutoff[:, None], axis=1)
        bad.append(faces[rank < 3])
    bad = np.concatenate(bad)
    if bad.size:
        raise CollinearFace("face %d is contained in a geodesic" % bad.min())


def _require_incident(lift: PolyhedralLift, tol):
    """NonPlanarFace for the first lifted vertex off the stored plane of a
    face around it (`PolyhedralLift.incidence_residuals`)."""
    res = lift.incidence_residuals()
    off = res > tol * 1e3 * (max(1.0, np.max(np.abs(lift.face_planes))) *
                             max(1.0, np.max(np.abs(lift.vertex_points))))
    if np.any(off):
        a, i, _, _ = lift.framework.embedding.corners
        k = np.argmax(off)
        raise NonPlanarFace("lifted vertex %d is off the plane of face %d (residual %.3g)"
                            % (i[k], a[k], res[k]))


def _incidence_values(fw: Framework, normals: np.ndarray, tol):
    """c_i = <M_a, p_i>, checked equal over the faces incident to i.

    Returns c and the largest disagreement.
    """
    a, i, _, _ = fw.embedding.corners
    vals = signed_inner(normals[a], fw.coords[i], fw.space)
    _, first = np.unique(i, return_index=True)
    c = np.zeros(fw.n)
    c[i[first]] = vals[first]
    worst = float(np.max(np.abs(vals - c[i]), initial=0.0))
    scale = max(float(np.max(np.abs(normals))), 1e-300)
    if worst > tol * scale * fw.embedding.face_count * 10:
        raise ClosureFailure("vertex incidence values disagree (%.3g)" % worst)
    return c, worst


# --- face vectors from a stress, a reciprocal or a lift ------------------------

def _stress_walk(fw: Framework, lam: np.ndarray, tol):
    """W from W_left - W_right = lam_ij (p_i x p_j) with W = 0 on the base
    face, closure-checked on every dual pair; returns (W, closure residual).
    The stress s lam on base vector b has the face vectors b + s W."""
    tails, heads, rights, lefts = fw.embedding.dual_pairs()
    deltas = lam[:, None] * cross3(fw.coords[tails], fw.coords[heads], fw.space)
    normals = np.zeros((fw.embedding.face_count, 3))
    start = _base_face(fw)
    for parents, children, pairs, forward in _bfs_levels(fw, start):
        normals[children] = normals[parents] + np.where(forward[:, None], deltas[pairs],
                                                        -deltas[pairs])
    worst = float(np.max(np.abs(normals[lefts] - normals[rights] - deltas)))
    if worst > tol * max(float(np.max(np.abs(deltas))), 1e-300) * fw.embedding.face_count:
        raise ClosureFailure("face-vector recursion does not close (%.3g)" % worst)
    return normals, worst


def _face_vectors_from_stress(fw: Framework, w: Stress, tol):
    """(M, closure residual, stress scale) of a nowhere-zero self-stress."""
    values = w.values_on(fw.graph)
    _require_self_stress(fw, values, tol)
    walk, closure = _stress_walk(fw, values * statics.edge_factors(fw)[0], tol)
    base = np.array(_BASE_VECTOR[fw.space.kind.value])
    if fw.space.is_spherical:
        # Perturb the base normal deterministically until every c_i is nonzero;
        # the generator (and numpy.random) only when the first base fails.
        rng = None
        for _ in range(_SPH_BASE_RETRIES + 1):
            normals = base + walk
            c, _ = _incidence_values(fw, normals, tol)
            if np.all(np.abs(c) > 1e-8 * max(float(np.max(np.abs(normals))), 1e-300)):
                return normals, closure, 1.0
            if rng is None:
                rng = np.random.RandomState(_BASE_SEED)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            base = base + 1e-2 * max(np.linalg.norm(base), 1.0) * u
        raise BasePerturbationExhausted("all base perturbations leave some c_i at zero")
    if fw.space.is_hyperbolic:
        # Halve the stress until every face normal is time-like on the upper sheet.
        scale = 1.0
        for _ in range(_HYP_SCALE_STEPS):
            normals = base + scale * walk
            q = signed_inner(normals, normals, fw.space)
            if np.all(q < -1e-10) and np.all(normals[:, 0] > 0):
                return normals, scale * closure, scale
            scale *= 0.5
        raise ConeFailure("no stress scale places all face normals in the upper cone")
    return base + walk, closure, 1.0


def _face_vectors_from_reciprocal(fw: Framework, rec: ReciprocalDiagram) -> np.ndarray:
    """M from a reciprocal diagram.

    Each M_b lies on a known line L_b + t D_b: (0, m_b) + t e_0 in E, t m_b on
    S/H.  The walk fixes t from <M_b, p_i> = <M_a, p_i> at a vertex i shared
    with the known face a; the base face takes t = 0 in E, base_scale on S/H.
    """
    nf = fw.embedding.face_count
    if fw.space.is_euclidean:
        lines = np.column_stack([np.zeros(nf), rec.positions])
        dirs = np.tile([1.0, 0.0, 0.0], (nf, 1))
        t_base = 0.0
    else:
        lines, dirs, t_base = np.zeros((nf, 3)), rec.positions, rec.base_scale
    tails = fw.embedding.dual_pairs()[0]
    start = _base_face(fw)
    normals = np.zeros((nf, 3))
    normals[start] = lines[start] + t_base * dirs[start]
    for parents, children, pairs, _ in _bfs_levels(fw, start):
        p = fw.coords[tails[pairs]]
        along = signed_inner(dirs[children], p, fw.space)
        flat = np.flatnonzero(np.abs(along) < 1e-12)
        if flat.size:
            raise ClosureFailure("cannot scale m_%d against vertex %d"
                                 % (children[flat[0]], tails[pairs[flat[0]]]))
        t = (signed_inner(normals[parents], p, fw.space)
             - signed_inner(lines[children], p, fw.space)) / along
        normals[children] = lines[children] + t[:, None] * dirs[children]
    return normals


def _face_vectors_from_lift(fw: Framework, lift: PolyhedralLift, tol) -> np.ndarray:
    """M of a lift whose vertices lie on its planes, read from the planes:
    (b, gx, gy) of a vertical lift in E, the face normals on S/H."""
    if lift.kind not in _LIFT_KINDS[fw.space.kind.value]:
        raise WrongDimension("a %s lift cannot be converted in %s"
                             % (lift.kind.value, fw.space))
    _require_incident(lift, tol)
    planes = lift.face_planes
    normals = np.column_stack([planes[:, 2], planes[:, :2]]) if fw.space.is_euclidean else planes
    # Adjacent faces must have distinct planes, else the dual edge collapses
    # and the perpendicularity test is meaningless noise.
    _, _, rights, lefts = fw.embedding.dual_pairs()
    same = np.all(np.isclose(normals[rights], normals[lefts], atol=tol), axis=1)
    if np.any(same):
        k = np.flatnonzero(same)[0]
        raise NonPlanarFace("adjacent faces %d, %d lifted to one plane" % (rights[k], lefts[k]))
    return normals


# --- the ends: lift, reciprocal and stress from face vectors ------------------

def _lift_from_face_vectors(fw: Framework, normals: np.ndarray, tol, closure,
                            stress_scale) -> PolyhedralLift:
    """The lift with face vectors M; vertex i from c_i = <M_a, p_i>: the height
    c_i in E, kappa p_i / c_i on S/H (kappa = +1 on S, -1 on H)."""
    _check_no_collinear_faces(fw)
    c, spread = _incidence_values(fw, normals, tol)
    if fw.space.is_euclidean:
        kind = LiftKind.VERTICAL
        points = np.column_stack([fw.coords[:, 1:], c])
        planes = np.column_stack([normals[:, 1:], normals[:, 0]])
    else:
        small = np.nonzero(np.abs(c) < 1e-12)[0]
        if small.size:
            raise ClosureFailure("incidence <m, p_%d> = 0; reciprocal not weak" % small[0])
        kappa = 1.0 if fw.space.is_spherical else -1.0
        points = fw.coords * (kappa / c)[:, None]
        planes = normals
        if fw.space.is_spherical:
            kind = LiftKind.SPHERICAL_STRONG if np.all(c > 0) else LiftKind.SPHERICAL_WEAK
        else:
            kind = LiftKind.HYPERBOLIC_MINKOWSKI
            out = np.flatnonzero((signed_inner(normals, normals, fw.space) >= 0) |
                                 (normals[:, 0] <= 0))
            if out.size:
                raise ConeFailure("lifted face %d normal left the upper cone" % out[0])
    lift = PolyhedralLift(fw, kind, points, planes, stress_scale=stress_scale)
    lift.residuals["closure"] = spread if closure is None else closure
    lift.residuals["incidence"] = float(np.max(lift.incidence_residuals()))
    return lift


def _reciprocal_from_face_vectors(fw: Framework, normals: np.ndarray, closure,
                                  stress_scale) -> ReciprocalDiagram:
    """Reciprocal points of face vectors M: the gradient part in E; on S/H, M
    normalized onto the sphere or hyperboloid, keeping the base face's norm as
    base_scale and the sign pattern of <m_a, p_i> as spherical strength."""
    strength, base_scale = None, 1.0
    if fw.space.is_euclidean:
        positions = normals[:, 1:]
    else:
        kappa = 1.0 if fw.space.is_spherical else -1.0
        q = kappa * signed_inner(normals, normals, fw.space)
        bad = np.flatnonzero(q < 1e-24 if fw.space.is_spherical else
                             (q <= 1e-12) | (normals[:, 0] <= 0))
        if bad.size and fw.space.is_spherical:
            raise OriginPlane("face %d plane passes through the origin" % bad[0])
        if bad.size:
            raise ConeFailure("face %d normal is not in the upper light cone" % bad[0])
        positions = normals / np.sqrt(q)[:, None]
        base_scale = float(np.sqrt(q[_base_face(fw)]))
    if fw.space.is_spherical:
        a, i, _, _ = fw.embedding.corners
        vals = signed_inner(positions[a], fw.coords[i], fw.space)
        bad = np.flatnonzero(np.abs(vals) < 1e-10)
        if bad.size:
            raise OriginPlane("incident pair (%d, %d) at distance pi/2"
                              % (a[bad[0]], i[bad[0]]))
        strength = "weak" if np.any(vals < 0) else "strong"
    rec = ReciprocalDiagram(fw, positions, strength, base_scale, stress_scale)
    rec.residuals["perpendicularity"] = float(np.max(rec.perpendicularity_residuals(),
                                                     initial=0.0))
    if closure is not None:
        rec.residuals["closure"] = closure
    if fw.space.is_euclidean and rec.residuals["perpendicularity"] > 1e-6:
        raise NotPerpendicular("plane gradients violate reciprocity; lift inconsistent")
    return rec


def _stress_from_face_vectors(fw: Framework, normals: np.ndarray, tol) -> Stress:
    """Recover w from M_left - M_right = lambda_ij c_ij.

    c_ij = p_i x p_j on S/H.  In E only the spatial parts count (the
    reciprocal points and the primal edge turned by 90 degrees), so a
    difference that is not a multiple of c_ij is a dual edge that is not
    perpendicular to its primal edge.
    """
    skip = 1 if fw.space.is_euclidean else 0
    error = NotPerpendicular if fw.space.is_euclidean else NotMultiple
    tails, heads, rights, lefts = fw.embedding.dual_pairs()
    c = cross3(fw.coords[tails], fw.coords[heads], fw.space)[:, skip:]
    dlt = normals[lefts, skip:] - normals[rights, skip:]
    lam = _rowdot(dlt, c) / _rowdot(c, c)
    off = np.linalg.norm(dlt - lam[:, None] * c, axis=1)
    bad = np.flatnonzero(off > tol * np.maximum(np.linalg.norm(dlt, axis=1), 1e-300) * 1e3)
    if bad.size:
        raise error("across edge %r the face-vector difference is not a multiple "
                    "of p_i x p_j" % (fw.graph.edges[bad[0]],))
    return Stress(fw.graph, lam / statics.edge_factors(fw)[0])


def convert(fw: Framework, obj, to: str, tol=MC_TOL):
    """Convert a self-stress, reciprocal diagram or polyhedral lift of `fw`
    into one of the other two; `to` is "stress", "reciprocal" or "lift".

    The space of `fw` selects the construction: vertical lifts and plane
    reciprocals in E (a reciprocal built from a stress has its base face at
    the origin); weak or strong spherical lifts on S; Minkowski lifts with
    every face normal in the upper light cone on H.  A stress on H is halved
    until the cone condition holds: the lift or reciprocal records the factor
    as stress_scale, every conversion between the two carries it, and the
    stress recovered from either is the scaled one.
    A NaN or an infinity anywhere in `obj` raises RigidkitError.
    """
    if to not in ("stress", "reciprocal", "lift"):
        raise ValueError("unknown conversion target %r" % (to,))
    _require_mc_framework(fw)
    _require_finite_object(obj)
    closure, scale = None, getattr(obj, "stress_scale", 1.0)
    if isinstance(obj, Stress) and to != "stress":
        normals, closure, scale = _face_vectors_from_stress(fw, obj, tol)
    elif isinstance(obj, ReciprocalDiagram) and to != "reciprocal":
        normals = _face_vectors_from_reciprocal(fw, obj)
    elif isinstance(obj, PolyhedralLift) and to != "lift":
        normals = _face_vectors_from_lift(fw, obj, tol)
    else:
        raise ValueError("cannot convert %s to %r" % (type(obj).__name__, to))
    if to == "lift":
        return _lift_from_face_vectors(fw, normals, tol, closure, scale)
    if to == "reciprocal":
        return _reciprocal_from_face_vectors(fw, normals, closure, scale)
    return _stress_from_face_vectors(fw, normals, tol)


def _projective_exchange(a: np.ndarray) -> np.ndarray:
    """Homogeneous 4x4 fixing the base plane z=0 and sending `a` to the
    vertical direction at infinity (exchanges that direction's plane pencil)."""
    a1, a2, a3 = a
    m = np.eye(4)
    m[0, 2] = -a1 / a3
    m[1, 2] = -a2 / a3
    m[3, 2] = -1.0 / a3
    return m


def radial_vertical_convert(fw: Framework, lift: PolyhedralLift, a,
                            tol=MC_TOL) -> PolyhedralLift:
    """Exchange vertical and radial lifts through the projective map with
    pr_a = pr_perp o Phi, Phi = `_projective_exchange(a)`: vertices move by
    Phi^-1 (vertical to radial) or Phi, planes as covectors by Phi or Phi^-1.
    Vertical lifts are shifted off the plane z = -a_z, which Phi^-1 sends to
    infinity, when necessary.  Vertices off their planes raise NonPlanarFace,
    a NaN or an infinity in `lift` or `a` RigidkitError."""
    _require_mc_framework(fw)
    _require_finite_object(lift)
    a = np.asarray(a, dtype=float)
    _finite(a, "projection center")
    if a.shape != (3,) or abs(a[2]) < 1e-12:
        raise WrongDimension("projection center must be a 3-point off the base plane")
    if lift.kind not in (LiftKind.VERTICAL, LiftKind.RADIAL):
        raise WrongDimension("radial/vertical conversion applies to Euclidean lifts")
    _require_incident(lift, tol)
    phi = _projective_exchange(a)
    if lift.kind is LiftKind.VERTICAL:
        spread = max(float(np.max(np.abs(lift.vertex_points[:, 2]))), 1.0)
        for shift in (0.0, 0.5 * spread, -0.5 * spread, spread, -spread, 1.37 * spread):
            z = lift.vertex_points[:, 2] + shift
            if np.all(np.abs(z + a[2]) > 1e-9 * max(1.0, abs(a[2]))):
                break
        else:
            raise UnremovableIncidence("no vertical shift avoids the plane z = -a_z")
        pts = lift.vertex_points + [0.0, 0.0, shift]
        out = _apply_homogeneous(np.linalg.inv(phi), pts, "lifted vertex %d maps to infinity")
        gx, gy, b = lift.face_planes.T
        covectors = np.column_stack([gx, gy, -np.ones(b.size), b + shift]) @ phi
        planes = np.column_stack([covectors[:, :3], -covectors[:, 3]])
        planes /= np.linalg.norm(covectors[:, :3], axis=1)[:, None]
        res = PolyhedralLift(fw, LiftKind.RADIAL, out, planes, radial_center=a,
                             stress_scale=lift.stress_scale)
    else:
        out = _apply_homogeneous(phi, lift.vertex_points,
                                 "radial vertex %d lies on the critical plane")
        n, c = lift.face_planes[:, :3], lift.face_planes[:, 3]
        covectors = np.column_stack([n, -c]) @ np.linalg.inv(phi)
        if np.any(np.abs(covectors[:, 2]) <= 1e-12 * np.linalg.norm(covectors, axis=1)):
            raise NonPlanarFace("a radial face plane maps to a vertical plane")
        planes = covectors[:, [0, 1, 3]] / -covectors[:, 2:3]
        res = PolyhedralLift(fw, LiftKind.VERTICAL, out, planes,
                             stress_scale=lift.stress_scale)
    res.residuals["projection"] = _projection_residual(fw, res)
    if res.residuals["projection"] > 1e-7:
        raise ClosureFailure("converted lift does not project back onto the framework")
    return res


def _apply_homogeneous(m: np.ndarray, points: np.ndarray, message: str) -> np.ndarray:
    """Rows m (x, y, z, 1) dehomogenized; a row sent to infinity raises
    UnremovableIncidence with `message` % its index."""
    h = np.column_stack([points, np.ones(len(points))]) @ m.T
    bad = np.flatnonzero(np.abs(h[:, 3]) < 1e-12)
    if bad.size:
        raise UnremovableIncidence(message % bad[0])
    return h[:, :3] / h[:, 3:]


def _projection_residual(fw: Framework, lift: PolyhedralLift) -> float:
    p = lift.vertex_points
    if lift.kind is LiftKind.VERTICAL:
        proj = p[:, :2]
    else:
        a = lift.radial_center
        t = a[2] / (a[2] - p[:, 2])
        proj = a[:2] + t[:, None] * (p[:, :2] - a[:2])
    return float(np.max(np.abs(proj - fw.coords[:, 1:])))


# --- convexity classification (Euclidean) -------------------------------------

@dataclass
class ConvexityReport:
    """Sign-pattern classification of a stress / reciprocal / lift triple."""

    exterior_face: int
    boundary_edges: tuple
    stress_pattern: bool = None
    reciprocal_pattern: bool = None
    lift_convex: bool = None

    @property
    def classifications(self) -> dict:
        return {
            "stress_pattern": self.stress_pattern,
            "reciprocal_pattern": self.reciprocal_pattern,
            "lift_convex": self.lift_convex,
        }


def find_exterior_face(fw: Framework) -> int:
    """The unique clockwise face of a drawing-consistent Euclidean embedding."""
    faces, verts, nexts, _ = fw.embedding.corners
    x, y = fw.coords[verts, 1], fw.coords[verts, 2]
    areas = np.bincount(faces, x * y[nexts] - x[nexts] * y, minlength=fw.embedding.face_count)
    negative = np.flatnonzero(areas < 0)
    if negative.size != 1:
        raise NoExteriorFace("expected exactly one clockwise face, found %d" % negative.size)
    ext = int(negative[0])
    declared = fw.embedding.exterior_face
    if declared is not None and declared != ext:
        raise NoExteriorFace("declared exterior face %d is not the clockwise one" % declared)
    return ext


def euclid_convexity_classify(fw: Framework, stress: Stress = None,
                              reciprocal: ReciprocalDiagram = None,
                              lift: PolyhedralLift = None) -> ConvexityReport:
    """Check the convex-variant sign patterns on an embedded convex framework.

    stress: positive on interior and negative on boundary edges; reciprocal:
    (p_j - p_i, m_beta - m_alpha) positively oriented exactly on interior
    edges; lift: the piecewise-linear function over the interior faces is
    convex (dihedral test along interior edges).
    """
    _require_mc_framework(fw)
    ext = find_exterior_face(fw)
    # The turn at each corner's head; the exterior face runs clockwise.
    faces, verts, nexts, twins = fw.embedding.corners
    u = fw.coords[verts[nexts], 1:] - fw.coords[verts, 1:]
    turns = u[:, 0] * u[nexts, 1] - u[:, 1] * u[nexts, 0]
    bent = np.flatnonzero(np.where(faces == ext, turns >= 0, turns <= 0))
    if bent.size:
        raise NotEmbedded("face %d is not a convex polygon in the drawing" % faces[bent[0]])
    tails, heads, rights, lefts = fw.embedding.dual_pairs()
    boundary = (rights == ext) | (lefts == ext)
    lo, hi = np.minimum(tails, heads)[boundary], np.maximum(tails, heads)[boundary]
    report = ConvexityReport(ext, tuple(sorted(zip(lo.tolist(), hi.tolist()))))
    if stress is not None:
        w = stress.values_on(fw.graph)
        report.stress_pattern = bool(np.all(np.where(boundary, w < 0, w > 0)))
    if reciprocal is not None:
        u = fw.coords[heads, 1:] - fw.coords[tails, 1:]
        v = reciprocal.positions[lefts] - reciprocal.positions[rights]
        det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        report.reciprocal_pattern = bool(np.all(np.where(boundary, det < 0, det > 0)))
    if lift is not None:
        if lift.kind is not LiftKind.VERTICAL:
            raise WrongDimension("convexity classification needs a vertical lift")
        # Each corner t on an interior edge probes its face's plane against
        # the face across the edge at every vertex s of its face off the edge.
        sizes = np.bincount(faces)
        edge = np.flatnonzero((faces != ext) & (faces[twins] != ext))
        reps = sizes[faces[edge]]
        t = np.repeat(edge, reps)
        s = np.arange(t.size) + np.repeat(np.cumsum(sizes)[faces[edge]] - np.cumsum(reps), reps)
        off = (verts[s] != verts[t]) & (verts[s] != verts[nexts[t]])
        t, s = t[off], s[off]
        xy1 = np.column_stack([fw.coords[verts[s], 1:], np.ones(s.size)])
        report.lift_convex = bool(np.all(_rowdot(xy1, lift.face_planes[faces[t]]) >=
                                         _rowdot(xy1, lift.face_planes[faces[twins[t]]]) - 1e-12))
    return report
