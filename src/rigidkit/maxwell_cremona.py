"""Conversions among self-stresses, reciprocal diagrams and polyhedral lifts
in the Euclidean plane, on the sphere, and in the hyperbolic plane.

All recursive constructions walk the dual graph breadth-first from a base
face (the exterior face when identified, else face 0) and then re-check the
defining relation on *every* dual pair, which certifies path-independence;
residuals are kept on the returned objects, never discarded.
"""

from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from . import _linalg, spaces, statics
from .errors import (
    ClosureFailure,
    CollinearFace,
    ConeFailure,
    BasePerturbationExhausted,
    GraphError,
    NoExteriorFace,
    NonPlanarFace,
    NotEmbedded,
    NotMultiple,
    NotPerpendicular,
    NotSelfStress,
    OriginPlane,
    UnremovableIncidence,
    WrongDimension,
    ZeroOnEdge,
)
from .frameworks import Framework
from .graphs import Graph, dual_graph, is_3_connected
from .spaces import cross3, signed_inner
from .statics import Stress

#: Absolute construction-residual tolerance on unit-scale data.
MC_TOL = 1e-9


class LiftKind(Enum):
    VERTICAL = "vertical"
    RADIAL = "radial"
    SPHERICAL_WEAK = "spherical-weak"
    SPHERICAL_STRONG = "spherical-strong"
    HYPERBOLIC_MINKOWSKI = "hyperbolic-minkowski"


@dataclass(eq=False)
class ReciprocalDiagram:
    """Positions for the dual graph with dual edges perpendicular to primal ones.

    Euclidean positions are plane points (F, 2); spherical/hyperbolic ones
    are model points (F, 3) in the respective quadric.
    """

    framework: Framework
    dual: Graph
    positions: np.ndarray
    strength: str = None  # spherical only: "weak" | "strong"
    #: Norm of the base face's lift normal before normalization onto the
    #: quadric; the S/H analogue of the Euclidean base-translation gauge.
    base_scale: float = 1.0
    residuals: dict = dataclass_field(default_factory=dict)

    @property
    def space(self):
        return self.framework.space

    def perpendicularity_residuals(self) -> np.ndarray:
        """Per dual pair: the reciprocity defect, normalized to unit scale."""
        fw = self.framework
        out = np.zeros(fw.m)
        for k, pair in enumerate(fw.embedding.dual_pairs()):
            i, j, a, b = pair.tail, pair.head, pair.right, pair.left
            if fw.space.is_euclidean:
                u = fw.coords[j, 1:] - fw.coords[i, 1:]
                v = self.positions[b] - self.positions[a]
                denom = max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300)
                out[k] = abs(float(u @ v)) / denom
            else:
                ma, mb = self.positions[a], self.positions[b]
                pi, pj = fw.coords[i], fw.coords[j]
                det = signed_inner(ma, pi, fw.space) * signed_inner(mb, pj, fw.space) - \
                    signed_inner(ma, pj, fw.space) * signed_inner(mb, pi, fw.space)
                out[k] = abs(det)
        return out

    def to_dict(self) -> dict:
        return {
            "type": "reciprocal",
            "space": self.space.kind.value,
            "dim": self.space.dim,
            "positions": [[float(x) for x in row] for row in self.positions],
            "strength": self.strength,
            "base_scale": float(self.base_scale),
        }


@dataclass(eq=False)
class PolyhedralLift:
    """Lifted vertices and face functionals making every face planar.

    face_planes rows: vertical lift (gx, gy, b) meaning z = gx x + gy y + b;
    radial lift (n0, n1, n2, c) meaning <n, x> = c; spherical/hyperbolic the
    vector m with <m, x> = kappa (kappa = +1 on S, -1 on H).
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

    def face_value(self, face_index: int, xy: np.ndarray) -> float:
        gx, gy, b = self.face_planes[face_index]
        return float(gx * xy[0] + gy * xy[1] + b)

    def incidence_residuals(self) -> np.ndarray:
        """|<m_face, lifted vertex> - kappa| over incident pairs, flattened."""
        fw = self.framework
        vals = []
        for a, cyc in enumerate(fw.embedding.faces):
            for i in cyc:
                if self.kind is LiftKind.VERTICAL:
                    vals.append(abs(self.face_value(a, fw.coords[i, 1:]) -
                                    self.vertex_points[i, 2]))
                elif self.kind is LiftKind.RADIAL:
                    n, c = self.face_planes[a, :3], self.face_planes[a, 3]
                    vals.append(abs(float(n @ self.vertex_points[i]) - c))
                else:
                    kappa = -1.0 if self.kind is LiftKind.HYPERBOLIC_MINKOWSKI else 1.0
                    ip = signed_inner(self.face_planes[a], self.vertex_points[i], fw.space)
                    vals.append(abs(ip - kappa))
        return np.array(vals)

    def to_dict(self) -> dict:
        d = {
            "type": "lift",
            "kind": self.kind.value,
            "space": self.framework.space.kind.value,
            "vertex_points": [[float(x) for x in row] for row in self.vertex_points],
            "face_planes": [[float(x) for x in row] for row in self.face_planes],
            "stress_scale": float(self.stress_scale),
        }
        if self.radial_center is not None:
            d["radial_center"] = [float(x) for x in self.radial_center]
        return d


def reciprocal_from_dict(fw: Framework, data: dict) -> ReciprocalDiagram:
    dual, _ = dual_graph(fw.embedding)
    pos = np.array(data["positions"], dtype=float)
    return ReciprocalDiagram(fw, dual, pos, data.get("strength"),
                             float(data.get("base_scale", 1.0)))


def lift_from_dict(fw: Framework, data: dict) -> PolyhedralLift:
    center = data.get("radial_center")
    return PolyhedralLift(
        fw,
        LiftKind(data["kind"]),
        np.array(data["vertex_points"], dtype=float),
        np.array(data["face_planes"], dtype=float),
        None if center is None else np.array(center, dtype=float),
        float(data.get("stress_scale", 1.0)),
    )


# --- shared machinery ---------------------------------------------------------

def _require_mc_framework(fw: Framework):
    if fw.dim != 2:
        raise WrongDimension("Maxwell-Cremona conversions need d = 2")
    if fw.embedding is None:
        raise GraphError("framework carries no planar embedding")
    if not is_3_connected(fw.graph):
        raise GraphError("Maxwell-Cremona conversions need a 3-connected graph")


def _require_self_stress(fw: Framework, w: Stress, tol):
    res = statics.resolution_matrix(fw) @ w.values
    scale = max(float(np.max(np.abs(w.values))), 1e-300)
    edge_scale = scale * max(float(np.max(np.abs(fw.coords))), 1.0)
    if float(np.max(np.abs(res))) > tol * edge_scale * fw.n:
        raise NotSelfStress(
            "stress does not resolve the zero load (residual %.3g)" % np.max(np.abs(res))
        )
    small = np.abs(w.values) <= 1e-12 * scale
    if np.any(small):
        raise ZeroOnEdge(
            "self-stress vanishes on edges %s"
            % [fw.graph.edges[k] for k in np.nonzero(small)[0]]
        )


def _base_face(fw: Framework) -> int:
    ext = fw.embedding.exterior_face
    return ext if ext is not None else 0


def _bfs_faces(fw: Framework, start: int):
    """Yield (new_face, pair, forward) walking the dual graph breadth-first.

    `forward` is True when crossing from the pair's right face to its left
    face (the consistently oriented direction).
    """
    pairs = fw.embedding.dual_pairs()
    by_face = {}
    for p in pairs:
        by_face.setdefault(p.right, []).append((p, True))
        by_face.setdefault(p.left, []).append((p, False))
    seen = {start}
    queue = [start]
    while queue:
        a = queue.pop(0)
        for p, here_is_right in by_face.get(a, ()):
            b = p.left if here_is_right else p.right
            if b in seen:
                continue
            seen.add(b)
            queue.append(b)
            yield b, p, here_is_right
    if len(seen) != fw.embedding.face_count:  # pragma: no cover - dual connected
        raise ClosureFailure("dual graph is disconnected")


def _face_collinear(fw: Framework, cyc) -> bool:
    pts = fw.coords[list(cyc)]
    cutoff = 1e-12 * max(1.0, np.max(np.abs(pts)))
    if fw.space.is_euclidean:
        return int(np.sum(_linalg.singular_values(pts[1:, 1:] - pts[0, 1:]) > cutoff)) < 2
    return int(np.sum(_linalg.singular_values(pts) > cutoff)) < 3


def _check_no_collinear_faces(fw: Framework):
    for a, cyc in enumerate(fw.embedding.faces):
        if _face_collinear(fw, cyc):
            raise CollinearFace("face %d is contained in a geodesic" % a)


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


# --- Euclidean plane ----------------------------------------------------------

def euclid_stress_to_reciprocal(fw: Framework, w: Stress, base=(0.0, 0.0),
                                tol=MC_TOL) -> ReciprocalDiagram:
    """Reciprocal diagram of a nowhere-zero self-stress.

    Walks the dual graph with increments w_ij J(p_j - p_i) across each
    consistently oriented dual pair, anchored at m[base face] = base.
    """
    _require_mc_framework(fw)
    if not fw.space.is_euclidean:
        raise WrongDimension("euclid_* conversions need a Euclidean framework")
    _require_self_stress(fw, w, tol)
    positions = np.zeros((fw.embedding.face_count, 2))
    start = _base_face(fw)
    positions[start] = np.asarray(base, dtype=float)
    deltas = {}
    for k, pair in enumerate(fw.embedding.dual_pairs()):
        u = fw.coords[pair.head, 1:] - fw.coords[pair.tail, 1:]
        deltas[k] = w[pair.edge] * _rot90(u)
    pairs = fw.embedding.dual_pairs()
    idx = {p.edge: k for k, p in enumerate(pairs)}
    for b, pair, forward in _bfs_faces(fw, start):
        d = deltas[idx[pair.edge]]
        a = pair.right if forward else pair.left
        positions[b] = positions[a] + (d if forward else -d)
    scale = max(float(np.max(np.abs(np.array(list(deltas.values()))))), 1e-300)
    worst = 0.0
    for k, pair in enumerate(pairs):
        resid = positions[pair.left] - positions[pair.right] - deltas[k]
        worst = max(worst, float(np.max(np.abs(resid))))
    if worst > tol * scale * fw.embedding.face_count:
        raise ClosureFailure("reciprocal recursion does not close (residual %.3g)" % worst)
    dual, _ = dual_graph(fw.embedding)
    rec = ReciprocalDiagram(fw, dual, positions)
    rec.residuals["closure"] = worst
    rec.residuals["perpendicularity"] = float(np.max(rec.perpendicularity_residuals()))
    return rec


def euclid_reciprocal_to_stress(fw: Framework, rec: ReciprocalDiagram,
                                tol=MC_TOL) -> Stress:
    """Recover w_ij from m_beta - m_alpha = w_ij J(p_j - p_i)."""
    _require_mc_framework(fw)
    vals = np.zeros(fw.m)
    edge_idx = fw.graph.edge_index()
    for pair in fw.embedding.dual_pairs():
        u = fw.coords[pair.head, 1:] - fw.coords[pair.tail, 1:]
        dlt = rec.positions[pair.left] - rec.positions[pair.right]
        nu = float(u @ u)
        along = float(dlt @ u)
        if abs(along) > tol * max(np.linalg.norm(dlt) * np.linalg.norm(u), 1e-300) * 1e3:
            raise NotPerpendicular(
                "dual pair for edge %r violates perpendicularity" % (pair.edge,)
            )
        vals[edge_idx[pair.edge]] = float(dlt @ _rot90(u)) / nu
    return Stress(fw.graph, vals)


def euclid_lift_from_reciprocal(fw: Framework, rec: ReciprocalDiagram,
                                tol=MC_TOL) -> PolyhedralLift:
    """Vertical lift with per-face linear functions f_a(x) = <m_a, x> + b_a."""
    _require_mc_framework(fw)
    _check_no_collinear_faces(fw)
    nf = fw.embedding.face_count
    offsets = np.zeros(nf)
    start = _base_face(fw)
    for b, pair, forward in _bfs_faces(fw, start):
        a = pair.left if not forward else pair.right
        # f_b = f_a on the line through the shared edge.
        p_i = fw.coords[pair.tail, 1:]
        offsets[b] = offsets[a] + float((rec.positions[a] - rec.positions[b]) @ p_i)
    scale = max(float(np.max(np.abs(rec.positions))), 1.0) * max(
        float(np.max(np.abs(fw.coords))), 1.0
    )
    # Heights from any incident face; all faces at a vertex must agree.
    heights = np.zeros(fw.n)
    seen = np.zeros(fw.n, dtype=bool)
    worst = 0.0
    for a, cyc in enumerate(fw.embedding.faces):
        for i in cyc:
            h = float(rec.positions[a] @ fw.coords[i, 1:]) + offsets[a]
            if not seen[i]:
                heights[i] = h
                seen[i] = True
            else:
                worst = max(worst, abs(h - heights[i]))
    if worst > tol * scale * nf:
        raise ClosureFailure("face heights disagree around a vertex (%.3g)" % worst)
    planes = np.column_stack([rec.positions, offsets])
    points = np.column_stack([fw.coords[:, 1:], heights])
    lift = PolyhedralLift(fw, LiftKind.VERTICAL, points, planes)
    lift.residuals["closure"] = worst
    lift.residuals["incidence"] = float(np.max(lift.incidence_residuals()))
    return lift


def euclid_stress_to_lift(fw: Framework, w: Stress, base=(0.0, 0.0),
                          tol=MC_TOL) -> PolyhedralLift:
    return euclid_lift_from_reciprocal(fw, euclid_stress_to_reciprocal(fw, w, base, tol), tol)


def euclid_reciprocal_from_lift(fw: Framework, lift: PolyhedralLift,
                                tol=MC_TOL) -> ReciprocalDiagram:
    """Gradients of the face planes of a vertical lift form the reciprocal."""
    _require_mc_framework(fw)
    if lift.kind is not LiftKind.VERTICAL:
        raise WrongDimension("reciprocal-from-lift needs a vertical lift")
    nf = fw.embedding.face_count
    positions = np.zeros((nf, 2))
    for a, cyc in enumerate(fw.embedding.faces):
        pts = fw.coords[list(cyc), 1:]
        zs = lift.vertex_points[list(cyc), 2]
        sys = np.column_stack([pts, np.ones(len(cyc))])
        sol, *_ = np.linalg.lstsq(sys, zs, rcond=None)
        resid = float(np.max(np.abs(sys @ sol - zs)))
        if resid > tol * max(1.0, float(np.max(np.abs(zs)))) * 1e3:
            raise NonPlanarFace("lifted face %d is not planar (residual %.3g)" % (a, resid))
        positions[a] = sol[:2]
    # Adjacent faces must have distinct planes, else the dual edge collapses
    # and the perpendicularity test below is meaningless noise.
    for pair in fw.embedding.dual_pairs():
        if np.allclose(lift.face_planes[pair.right], lift.face_planes[pair.left], atol=tol):
            raise NonPlanarFace(
                "adjacent faces %d, %d lifted to one plane" % (pair.right, pair.left)
            )
    dual, _ = dual_graph(fw.embedding)
    rec = ReciprocalDiagram(fw, dual, positions)
    res = rec.perpendicularity_residuals()
    rec.residuals["perpendicularity"] = float(np.max(res)) if res.size else 0.0
    if res.size and np.max(res) > 1e-6:
        raise NotPerpendicular("plane gradients violate reciprocity; lift inconsistent")
    return rec


def euclid_lift_to_stress(fw: Framework, lift: PolyhedralLift, tol=MC_TOL) -> Stress:
    return euclid_reciprocal_to_stress(fw, euclid_reciprocal_from_lift(fw, lift, tol), tol)


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
    pr_a = pr_perp o Phi; vertical lifts are auto-shifted off the critical
    plane z = a_z when necessary."""
    _require_mc_framework(fw)
    a = np.asarray(a, dtype=float)
    if a.shape != (3,) or abs(a[2]) < 1e-12:
        raise WrongDimension("projection center must be a 3-point off the base plane")
    phi = _projective_exchange(a)
    if lift.kind is LiftKind.VERTICAL:
        spread = max(float(np.max(np.abs(lift.vertex_points[:, 2]))), 1.0)
        for shift in (0.0, 0.5 * spread, -0.5 * spread, spread, -spread, 1.37 * spread):
            z = lift.vertex_points[:, 2] + shift
            if np.all(np.abs(z - a[2]) > 1e-9 * max(1.0, abs(a[2]))):
                break
        else:
            raise UnremovableIncidence("no vertical shift avoids the plane z = a_z")
        pts = lift.vertex_points.copy()
        pts[:, 2] += shift
        inv = np.linalg.inv(phi)
        out = np.zeros_like(pts)
        for i, p in enumerate(pts):
            h = inv @ np.array([p[0], p[1], p[2], 1.0])
            if abs(h[3]) < 1e-12:
                raise UnremovableIncidence("lifted vertex %d maps to infinity" % i)
            out[i] = h[:3] / h[3]
        planes = _fit_radial_planes(fw, out, tol)
        res = PolyhedralLift(fw, LiftKind.RADIAL, out, planes, radial_center=a,
                             stress_scale=lift.stress_scale)
    elif lift.kind is LiftKind.RADIAL:
        out = np.zeros_like(lift.vertex_points)
        for i, p in enumerate(lift.vertex_points):
            h = phi @ np.array([p[0], p[1], p[2], 1.0])
            if abs(h[3]) < 1e-12:
                raise UnremovableIncidence("radial vertex %d lies on the critical plane" % i)
            out[i] = h[:3] / h[3]
        planes = np.zeros((fw.embedding.face_count, 3))
        for face, cyc in enumerate(fw.embedding.faces):
            pts = fw.coords[list(cyc), 1:]
            zs = out[list(cyc), 2]
            sys = np.column_stack([pts, np.ones(len(cyc))])
            sol, *_ = np.linalg.lstsq(sys, zs, rcond=None)
            if float(np.max(np.abs(sys @ sol - zs))) > 1e-6 * max(1.0, float(np.max(np.abs(zs)))):
                raise NonPlanarFace("face %d not planar after conversion" % face)
            planes[face] = sol
        res = PolyhedralLift(fw, LiftKind.VERTICAL, out, planes,
                             stress_scale=lift.stress_scale)
    else:
        raise WrongDimension("radial/vertical conversion applies to Euclidean lifts")
    res.residuals["projection"] = _projection_residual(fw, res)
    if res.residuals["projection"] > 1e-7:
        raise ClosureFailure("converted lift does not project back onto the framework")
    return res


def _fit_radial_planes(fw: Framework, points: np.ndarray, tol) -> np.ndarray:
    planes = np.zeros((fw.embedding.face_count, 4))
    for a, cyc in enumerate(fw.embedding.faces):
        pts = points[list(cyc)]
        centered = pts - pts.mean(axis=0)
        _, s, vt = _linalg.svd(centered)
        if s[-1] > 1e-6 * max(s[0], 1.0):
            raise NonPlanarFace("face %d not planar (thickness %.3g)" % (a, s[-1]))
        n = vt[-1]
        planes[a, :3] = n
        planes[a, 3] = float(n @ pts.mean(axis=0))
    return planes


def _projection_residual(fw: Framework, lift: PolyhedralLift) -> float:
    worst = 0.0
    for i in range(fw.n):
        p = lift.vertex_points[i]
        if lift.kind is LiftKind.VERTICAL:
            proj = p[:2]
        else:
            a = lift.radial_center
            t = a[2] / (a[2] - p[2])
            proj = a[:2] + t * (p[:2] - a[:2])
        worst = max(worst, float(np.max(np.abs(proj - fw.coords[i, 1:]))))
    return worst


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


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _is_convex_ccw(poly: np.ndarray) -> bool:
    n = len(poly)
    for k in range(n):
        u = poly[(k + 1) % n] - poly[k]
        v = poly[(k + 2) % n] - poly[(k + 1) % n]
        if u[0] * v[1] - u[1] * v[0] <= 0:
            return False
    return True


def find_exterior_face(fw: Framework) -> int:
    """The unique clockwise face of a drawing-consistent Euclidean embedding."""
    areas = [_signed_area(fw.coords[list(cyc), 1:]) for cyc in fw.embedding.faces]
    negative = [a for a, ar in enumerate(areas) if ar < 0]
    if len(negative) != 1:
        raise NoExteriorFace("expected exactly one clockwise face, found %d" % len(negative))
    ext = negative[0]
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
    for a, cyc in enumerate(fw.embedding.faces):
        poly = fw.coords[list(cyc), 1:]
        ccw_poly = poly[::-1] if a == ext else poly
        if not _is_convex_ccw(ccw_poly):
            raise NotEmbedded("face %d is not a convex polygon in the drawing" % a)
    boundary = set()
    cyc = fw.embedding.faces[ext]
    for k, i in enumerate(cyc):
        j = cyc[(k + 1) % len(cyc)]
        boundary.add((i, j) if i < j else (j, i))
    report = ConvexityReport(ext, tuple(sorted(boundary)))
    if stress is not None:
        ok = True
        for e in fw.graph.edges:
            w = stress[e]
            ok &= (w < 0) if e in boundary else (w > 0)
        report.stress_pattern = bool(ok)
    if reciprocal is not None:
        ok = True
        for pair in fw.embedding.dual_pairs():
            u = fw.coords[pair.head, 1:] - fw.coords[pair.tail, 1:]
            v = reciprocal.positions[pair.left] - reciprocal.positions[pair.right]
            det = u[0] * v[1] - u[1] * v[0]
            ok &= (det < 0) if pair.edge in boundary else (det > 0)
        report.reciprocal_pattern = bool(ok)
    if lift is not None:
        if lift.kind is not LiftKind.VERTICAL:
            raise WrongDimension("convexity classification needs a vertical lift")
        ok = True
        for pair in fw.embedding.dual_pairs():
            if pair.edge in boundary:
                continue
            for side, other in ((pair.left, pair.right), (pair.right, pair.left)):
                probe = [k for k in fw.embedding.faces[side] if k not in pair.edge]
                for k in probe:
                    xy = fw.coords[k, 1:]
                    ok &= lift.face_value(side, xy) >= lift.face_value(other, xy) - 1e-12
        report.lift_convex = bool(ok)
    return report


# --- spherical / hyperbolic ----------------------------------------------------

_SPH_BASE_RETRIES = 32
_HYP_SCALE_STEPS = 60
_BASE_SEED = 811

def _lambda_values(fw: Framework, w: Stress) -> np.ndarray:
    vals = np.zeros(fw.m)
    for k, (i, j) in enumerate(fw.graph.edges):
        dist = spaces.distance(fw.point(i), fw.point(j))
        vals[k] = w.values[k] * dist / fw.space.sin_x(dist)
    return vals


def _walk_face_normals(fw: Framework, lam: np.ndarray, base: np.ndarray, tol):
    """BFS the dual graph with increments lam_ij (p_i x p_j); closure-checked."""
    nf = fw.embedding.face_count
    normals = np.zeros((nf, 3))
    start = _base_face(fw)
    normals[start] = base
    pairs = fw.embedding.dual_pairs()
    idx = {p.edge: k for k, p in enumerate(pairs)}
    deltas = np.zeros((fw.m, 3))
    for k, pair in enumerate(pairs):
        cp = cross3(fw.coords[pair.tail], fw.coords[pair.head], fw.space)
        deltas[k] = lam[idx[pair.edge]] * cp
    for b, pair, forward in _bfs_faces(fw, start):
        a = pair.right if forward else pair.left
        d = deltas[idx[pair.edge]]
        normals[b] = normals[a] + (d if forward else -d)
    scale = max(float(np.max(np.abs(deltas))), 1e-300)
    worst = 0.0
    for k, pair in enumerate(pairs):
        resid = normals[pair.left] - normals[pair.right] - deltas[k]
        worst = max(worst, float(np.max(np.abs(resid))))
    if worst > tol * scale * nf:
        raise ClosureFailure("face-normal recursion does not close (%.3g)" % worst)
    return normals, worst


def _incidence_values(fw: Framework, normals: np.ndarray, tol):
    """c_i = <m_face, p_i>, checked consistent over the faces incident to i."""
    c = np.zeros(fw.n)
    seen = np.zeros(fw.n, dtype=bool)
    worst = 0.0
    scale = max(float(np.max(np.abs(normals))), 1e-300)
    for a, cyc in enumerate(fw.embedding.faces):
        for i in cyc:
            val = signed_inner(normals[a], fw.coords[i], fw.space)
            if not seen[i]:
                c[i] = val
                seen[i] = True
            else:
                worst = max(worst, abs(val - c[i]))
    if worst > tol * scale * fw.embedding.face_count * 10:
        raise ClosureFailure("vertex incidence values disagree (%.3g)" % worst)
    return c


def _curved_guard(fw: Framework, expected_kind: str):
    _require_mc_framework(fw)
    if expected_kind == "S" and not fw.space.is_spherical:
        raise WrongDimension("sph_* conversions need a spherical framework")
    if expected_kind == "H" and not fw.space.is_hyperbolic:
        raise WrongDimension("hyp_* conversions need a hyperbolic framework")


def sph_stress_to_lift(fw: Framework, w: Stress, base=(1.0, 0.25, -0.4),
                       tol=MC_TOL) -> PolyhedralLift:
    """Weak (possibly strong) spherical lift from a nowhere-zero self-stress.

    The base face normal is perturbed deterministically until every
    incidence value c_i = <m_face, p_i> is nonzero.
    """
    _curved_guard(fw, "S")
    _require_self_stress(fw, w, tol)
    _check_no_collinear_faces(fw)
    lam = _lambda_values(fw, w)
    base = np.asarray(base, dtype=float)
    rng = np.random.RandomState(_BASE_SEED)
    normals = closure = None
    for _ in range(_SPH_BASE_RETRIES + 1):
        normals, closure = _walk_face_normals(fw, lam, base, tol)
        c = _incidence_values(fw, normals, tol)
        if np.all(np.abs(c) > 1e-8 * max(float(np.max(np.abs(normals))), 1e-300)):
            break
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        base = base + 1e-2 * max(np.linalg.norm(base), 1.0) * u
    else:
        raise BasePerturbationExhausted("all base perturbations leave some c_i at zero")
    a_i = 1.0 / c
    points = fw.coords * a_i[:, None]
    kind = LiftKind.SPHERICAL_STRONG if np.all(a_i > 0) else LiftKind.SPHERICAL_WEAK
    lift = PolyhedralLift(fw, kind, points, normals)
    lift.residuals["closure"] = closure
    lift.residuals["incidence"] = float(np.max(lift.incidence_residuals()))
    return lift


def _lift_normals_to_reciprocal(fw: Framework, lift: PolyhedralLift, tol):
    positions = np.zeros_like(lift.face_planes)
    strength = None
    base = _base_face(fw)
    if fw.space.is_spherical:
        for a, m in enumerate(lift.face_planes):
            nrm = np.linalg.norm(m)
            if nrm < 1e-12:
                raise OriginPlane("face %d plane passes through the origin" % a)
            positions[a] = m / nrm
        base_scale = float(np.linalg.norm(lift.face_planes[base]))
        strength = "strong"
        for a, cyc in enumerate(fw.embedding.faces):
            for i in cyc:
                val = signed_inner(positions[a], fw.coords[i], fw.space)
                if abs(val) < 1e-10:
                    raise OriginPlane("incident pair (%d, %d) at distance pi/2" % (a, i))
                if val < 0:
                    strength = "weak"
    else:
        for a, m in enumerate(lift.face_planes):
            q = signed_inner(m, m, fw.space)
            if q >= -1e-12 or m[0] <= 0:
                raise ConeFailure("face %d normal is not in the upper light cone" % a)
            positions[a] = m / np.sqrt(-q)
        qb = signed_inner(lift.face_planes[base], lift.face_planes[base], fw.space)
        base_scale = float(np.sqrt(-qb))
    dual, _ = dual_graph(fw.embedding)
    rec = ReciprocalDiagram(fw, dual, positions, strength, base_scale)
    res = rec.perpendicularity_residuals()
    rec.residuals["perpendicularity"] = float(np.max(res)) if res.size else 0.0
    return rec


def sph_lift_to_reciprocal(fw: Framework, lift: PolyhedralLift, tol=MC_TOL) -> ReciprocalDiagram:
    """Normalize the face normals onto the sphere; strength is propagated."""
    _curved_guard(fw, "S")
    return _lift_normals_to_reciprocal(fw, lift, tol)


def _curved_reciprocal_to_lift(fw: Framework, rec: ReciprocalDiagram, tol):
    kappa = 1.0 if fw.space.is_spherical else -1.0
    nf = fw.embedding.face_count
    normals = np.zeros((nf, 3))
    points = np.zeros((fw.n, 3))
    have_pt = np.zeros(fw.n, dtype=bool)
    start = _base_face(fw)
    normals[start] = rec.positions[start] * rec.base_scale

    def lift_vertices_of(a):
        for i in fw.embedding.faces[a]:
            if not have_pt[i]:
                ip = signed_inner(normals[a], fw.coords[i], fw.space)
                if abs(ip) < 1e-12:
                    raise ClosureFailure(
                        "incidence <m_%d, p_%d> = 0; reciprocal not weak" % (a, i)
                    )
                points[i] = fw.coords[i] * (kappa / ip)
                have_pt[i] = True

    lift_vertices_of(start)
    for b, pair, _ in _bfs_faces(fw, start):
        i = pair.tail if have_pt[pair.tail] else pair.head
        if not have_pt[i]:  # pragma: no cover - BFS order guarantees one endpoint
            raise ClosureFailure("recursion reached face %d with no lifted vertex" % b)
        ip = signed_inner(rec.positions[b], points[i], fw.space)
        if abs(ip) < 1e-12:
            raise ClosureFailure("cannot scale m_%d against vertex %d" % (b, i))
        normals[b] = rec.positions[b] * (kappa / ip)
        lift_vertices_of(b)
    kind = LiftKind.HYPERBOLIC_MINKOWSKI
    if fw.space.is_spherical:
        a_vals = np.array([
            signed_inner(points[i], fw.coords[i], fw.space) for i in range(fw.n)
        ])
        kind = LiftKind.SPHERICAL_STRONG if np.all(a_vals > 0) else LiftKind.SPHERICAL_WEAK
    lift = PolyhedralLift(fw, kind, points, normals)
    worst = float(np.max(lift.incidence_residuals()))
    if worst > tol * 1e3:
        raise ClosureFailure("double lift recursion does not close (%.3g)" % worst)
    lift.residuals["incidence"] = worst
    if fw.space.is_hyperbolic:
        for a, m in enumerate(normals):
            if signed_inner(m, m, fw.space) >= 0 or m[0] <= 0:
                raise ConeFailure("lifted face %d normal left the upper cone" % a)
    return lift


def sph_reciprocal_to_lift(fw: Framework, rec: ReciprocalDiagram, tol=MC_TOL) -> PolyhedralLift:
    """Simultaneous double lift of reciprocal and framework with <m, p> = 1."""
    _curved_guard(fw, "S")
    return _curved_reciprocal_to_lift(fw, rec, tol)


def _curved_lift_to_stress(fw: Framework, lift: PolyhedralLift, tol):
    vals = np.zeros(fw.m)
    idx = fw.graph.edge_index()
    for pair in fw.embedding.dual_pairs():
        cp = cross3(fw.coords[pair.tail], fw.coords[pair.head], fw.space)
        dlt = lift.face_planes[pair.left] - lift.face_planes[pair.right]
        denom = float(cp @ cp)
        lam = float(dlt @ cp) / denom
        resid = np.linalg.norm(dlt - lam * cp)
        if resid > tol * max(np.linalg.norm(dlt), 1e-300) * 1e3:
            raise NotMultiple(
                "normal difference across edge %r is not parallel to p_i x p_j"
                % (pair.edge,)
            )
        dist = spaces.distance(fw.point(pair.tail), fw.point(pair.head))
        vals[idx[pair.edge]] = lam * fw.space.sin_x(dist) / dist
    return Stress(fw.graph, vals)


def sph_lift_to_stress(fw: Framework, lift: PolyhedralLift, tol=MC_TOL) -> Stress:
    """Recover the self-stress from lambda_ij (p_i x p_j) = m_beta - m_alpha."""
    _curved_guard(fw, "S")
    return _curved_lift_to_stress(fw, lift, tol)


def sph_stress_to_reciprocal(fw: Framework, w: Stress, base=(1.0, 0.25, -0.4),
                             tol=MC_TOL) -> ReciprocalDiagram:
    return sph_lift_to_reciprocal(fw, sph_stress_to_lift(fw, w, base, tol), tol)


def sph_reciprocal_to_stress(fw: Framework, rec: ReciprocalDiagram, tol=MC_TOL) -> Stress:
    return sph_lift_to_stress(fw, sph_reciprocal_to_lift(fw, rec, tol), tol)


def hyp_stress_to_lift(fw: Framework, w: Stress, tol=MC_TOL) -> PolyhedralLift:
    """Hyperbolic lift with all face normals in the upper light cone.

    The base normal sits at (1, 0, 0) and the stress is halved (recorded in
    stress_scale) until every normal is time-like on the upper sheet.
    """
    _curved_guard(fw, "H")
    _require_self_stress(fw, w, tol)
    _check_no_collinear_faces(fw)
    base = np.array([1.0, 0.0, 0.0])
    scale = 1.0
    for _ in range(_HYP_SCALE_STEPS):
        lam = _lambda_values(fw, w.scaled(scale))
        normals, closure = _walk_face_normals(fw, lam, base, tol)
        q = np.array([signed_inner(m, m, fw.space) for m in normals])
        if np.all(q < -1e-10) and np.all(normals[:, 0] > 0):
            c = _incidence_values(fw, normals, tol)
            points = fw.coords * (-1.0 / c)[:, None]
            lift = PolyhedralLift(fw, LiftKind.HYPERBOLIC_MINKOWSKI, points, normals,
                                  stress_scale=scale)
            lift.residuals["closure"] = closure
            lift.residuals["incidence"] = float(np.max(lift.incidence_residuals()))
            return lift
        scale *= 0.5
    raise ConeFailure("no stress scale places all face normals in the upper cone")


def hyp_lift_to_reciprocal(fw: Framework, lift: PolyhedralLift, tol=MC_TOL) -> ReciprocalDiagram:
    _curved_guard(fw, "H")
    return _lift_normals_to_reciprocal(fw, lift, tol)


def hyp_reciprocal_to_lift(fw: Framework, rec: ReciprocalDiagram, tol=MC_TOL) -> PolyhedralLift:
    _curved_guard(fw, "H")
    return _curved_reciprocal_to_lift(fw, rec, tol)


def hyp_lift_to_stress(fw: Framework, lift: PolyhedralLift, tol=MC_TOL) -> Stress:
    """Stress of the lift itself; divide by stress_scale to undo cone scaling."""
    _curved_guard(fw, "H")
    return _curved_lift_to_stress(fw, lift, tol)


def hyp_stress_to_reciprocal(fw: Framework, w: Stress, tol=MC_TOL) -> ReciprocalDiagram:
    return hyp_lift_to_reciprocal(fw, hyp_stress_to_lift(fw, w, tol), tol)


def hyp_reciprocal_to_stress(fw: Framework, rec: ReciprocalDiagram, tol=MC_TOL) -> Stress:
    return hyp_lift_to_stress(fw, hyp_reciprocal_to_lift(fw, rec, tol), tol)
