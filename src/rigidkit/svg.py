"""Static SVG rendering of 2-dimensional frameworks and their companions.

Everything is drawn in chart coordinates x -> (x1/x0, x2/x0): the plane
itself for E^2, the central projection of the upper hemisphere for S^2, and
the Beltrami-Cayley-Klein disk for H^2 (clipped to the unit disk).
"""

import numpy as np

from .errors import OutsideChart, WrongDimension
from .frameworks import Framework
from .transforms import _EPS_INF, require_upper_hemisphere

_SIZE = 640.0
_PAD = 40.0


def chart_xy(coords: np.ndarray) -> np.ndarray:
    """Project embedded (3,)-rows to the affine chart x0 = 1."""
    return coords[:, 1:] / coords[:, :1]


def chart_pushforward(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Differential of the chart map applied to ambient tangent vectors v at
    the (k, 3)-rows x."""
    return (v[:, 1:] * x[:, :1] - x[:, 1:] * v[:, :1]) / x[:, :1] ** 2


class _Canvas:
    def __init__(self, points_xy):
        pts = np.asarray(points_xy, dtype=float)
        if pts.size == 0:  # nothing to draw: an empty canvas about the origin
            pts = np.zeros((1, 2))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = max(float(np.max(hi - lo)), 1e-9)
        self.scale = (_SIZE - 2 * _PAD) / span
        self.lo = lo
        self.body = []

    def to_px(self, p):
        x = _PAD + (p[0] - self.lo[0]) * self.scale
        y = _SIZE - _PAD - (p[1] - self.lo[1]) * self.scale
        return x, y

    def line(self, a, b, color="#222", width=2.0, dash=None, clip=None):
        x1, y1 = self.to_px(a)
        x2, y2 = self.to_px(b)
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        clip_attr = ' clip-path="url(#%s)"' % clip if clip else ""
        self.body.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
            'stroke-width="%.2f"%s%s/>' % (x1, y1, x2, y2, color, width, extra, clip_attr)
        )

    def circle(self, p, r=4.0, color="#222", fill=True):
        x, y = self.to_px(p)
        self.body.append(
            '<circle cx="%.2f" cy="%.2f" r="%.1f" fill="%s" stroke="none"/>'
            % (x, y, r, color if fill else "none")
        )

    def polygon(self, pts, fill, opacity=0.5):
        coords = " ".join("%.2f,%.2f" % self.to_px(p) for p in pts)
        self.body.append(
            '<polygon points="%s" fill="%s" fill-opacity="%.2f" stroke="none"/>'
            % (coords, fill, opacity)
        )

    def text(self, p, s, color="#555"):
        x, y = self.to_px(p)
        self.body.append(
            '<text x="%.2f" y="%.2f" font-size="11" fill="%s">%s</text>'
            % (x + 5, y - 5, color, s)
        )

    def arrow(self, a, vec, color="#c22"):
        tip = (a[0] + vec[0], a[1] + vec[1])
        self.line(a, tip, color=color, width=2.0)
        x1, y1 = self.to_px(a)
        x2, y2 = self.to_px(tip)
        d = np.array([x2 - x1, y2 - y1])
        n = np.linalg.norm(d)
        if n < 1e-9:
            return
        d /= n
        left = np.array([-d[1], d[0]])
        for s in (+1, -1):
            q = np.array([x2, y2]) - 8 * d + 4 * s * left
            self.body.append(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
                'stroke-width="2.0"/>' % (x2, y2, q[0], q[1], color)
            )

    def unit_circle(self, color="#999"):
        cx, cy = self.to_px((0.0, 0.0))
        r = self.scale
        self.body.append(
            '<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" stroke="%s" '
            'stroke-dasharray="4 3"/>' % (cx, cy, r, color)
        )
        self.body.append(
            '<clipPath id="disk"><circle cx="%.2f" cy="%.2f" r="%.2f"/></clipPath>'
            % (cx, cy, r)
        )

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (_SIZE, _SIZE, _SIZE, _SIZE)
        )
        return head + "\n" + "\n".join(self.body) + "\n</svg>\n"


def render_framework(fw: Framework, model="chart", flex=None, reciprocal=None,
                     lift=None) -> str:
    """SVG of a d = 2 framework with optional flex/reciprocal/lift overlays;
    OutsideChart for a vertex of S outside the open upper hemisphere, which
    the chart cannot draw.

    Reciprocal positions m on S/H are drawn projectively, at m / m_0 (m and -m
    are perpendicular to the same edges; the sign, `strength`, lives in the
    file); OutsideChart for |m_0| <= `_EPS_INF`, which has no chart point."""
    if fw.dim != 2:
        raise WrongDimension("rendering needs d = 2")
    if fw.space.is_spherical:
        require_upper_hemisphere(fw.coords)
    pts = chart_xy(fw.coords)
    extent = [pts]
    rec_pts = None
    if reciprocal is not None:
        rp = np.asarray(reciprocal.positions, dtype=float)
        rec_pts = rp
        if rp.shape[1] == 3:
            bad = np.flatnonzero(np.abs(rp[:, 0]) <= _EPS_INF)
            if bad.size:
                raise OutsideChart("reciprocal position of face %d has x0 = 0, which the "
                                   "chart x / x0 cannot draw" % bad[0])
            rec_pts = chart_xy(rp)
        extent.append(rec_pts)
    draw_circle = (model in ("klein", "hemisphere") or not fw.space.is_euclidean)
    if draw_circle:
        extent.append(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    canvas = _Canvas(np.vstack(extent))
    clip = None
    if draw_circle:
        canvas.unit_circle()
        if fw.space.is_hyperbolic or model == "klein":
            clip = "disk"
    if lift is not None:
        vals = []
        for cyc in fw.embedding.faces:
            if lift.kind.value == "vertical":
                vals.append(float(np.mean(lift.vertex_points[list(cyc), 2])))
            else:
                vals.append(float(np.mean(np.abs(lift.vertex_points[list(cyc)]))))
        lo, hi = min(vals), max(vals)
        for cyc, v in zip(fw.embedding.faces, vals):
            shade = 0.0 if hi == lo else (v - lo) / (hi - lo)
            gray = int(230 - 150 * shade)
            canvas.polygon(pts[list(cyc)], "rgb(%d,%d,%d)" % (gray, gray, gray), 0.8)
    for i, j in fw.graph.edges:
        canvas.line(pts[i], pts[j], clip=clip)
    for i in range(fw.n):
        canvas.circle(pts[i])
        canvas.text(pts[i], str(i))
    if flex is not None:
        arrows = chart_pushforward(fw.coords, np.asarray(flex))
        peak = float(np.max(np.linalg.norm(arrows, axis=1)))
        if peak > 0:
            span = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
            arrows = arrows * (0.15 * max(span, 1e-9) / peak)
        for i in range(fw.n):
            canvas.arrow(pts[i], arrows[i])
    if rec_pts is not None:
        _, _, rights, lefts = fw.embedding.dual_pairs()
        for a, b in zip(rights, lefts):
            canvas.line(rec_pts[a], rec_pts[b], color="#27b", width=1.5, dash="5 3", clip=clip)
        for a in range(len(rec_pts)):
            canvas.circle(rec_pts[a], r=3.0, color="#27b")
    return canvas.render()
