"""The benchmark's workloads: input generators, operations and output checks.

Every input is made here from the seed with numpy alone; rigidkit only ever
sees the files written below, through its in-process command line
(``rigidkit.cli.main``).  Every check recomputes what it compares against
outside rigidkit, or tests a property the method must have.

A workload is a fixed list of inputs (a *round*); one *op* takes one input
through its CLI calls.  Runs repeat whole rounds, so the share of failed ops
does not depend on how many rounds fit into a run.
"""

import contextlib
import io
import json
import os
from itertools import combinations
from types import SimpleNamespace

import numpy as np

import rigidkit.cli

EXIT_RIGID, EXIT_FLEXIBLE = 0, 10


class OpError(Exception):
    """An op ended outside the CLI's success contract (bad exit code)."""


class WrongOutput(Exception):
    """An op finished but an output check disagreed."""


def call(argv):
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rigidkit.cli.main(argv)
    return code, out.getvalue()


def check(workload, inp, out, oracles):
    """(error, wrong) for one finished op: both None when every check passes."""
    try:
        workload.check(inp, out, oracles)
    except OpError as exc:
        return "OpError: %s" % exc, None
    except WrongOutput as exc:
        message = "WrongOutput: %s" % exc
        return message, message
    return None, None


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expect(cond, message):
    if not cond:
        raise WrongOutput(message)


def expect_exit(code, allowed, what):
    if code not in allowed:
        raise OpError("%s exited with %r" % (what, code))


# --- model-space helpers (numpy only) -------------------------------------------

def metric(space, amb):
    g = np.ones(amb)
    if space == "H":
        g[0] = -1.0
    return g


def chart_to_model(xy, space):
    """Central projection of chart points (1, x) onto the sphere or hyperboloid.

    Written as two radial normalizations of the homogeneous vector, each by
    sqrt|<p, p>|: the same floating-point steps as rigidkit's geodesic
    projection of an affinely shrunk framework, so the grid fixture matches
    the one the ROADMAP describes bit for bit.
    """
    out = []
    for row in np.asarray(xy, dtype=float):
        p = np.concatenate([[1.0], row])
        for _ in range(2):
            q = float(-p[0] * p[0] + p[1:] @ p[1:]) if space == "H" else float(p @ p)
            p = p / np.sqrt(abs(q))
        out.append(p)
    return np.array(out)


def with_leading_one(xy):
    """Euclidean chart points as ambient (n, d+1) vectors (1, x)."""
    xy = np.asarray(xy, dtype=float)
    return np.column_stack([np.ones(len(xy)), xy])


def rigidity_matrix(space, pts, edges):
    """Linearized length constraints (plus tangency rows on S/H)."""
    n, amb = pts.shape
    if space == "E":
        d = amb - 1
        mat = np.zeros((len(edges), n * d))
        for r, (i, j) in enumerate(edges):
            diff = pts[i, 1:] - pts[j, 1:]
            mat[r, i * d:(i + 1) * d] = diff
            mat[r, j * d:(j + 1) * d] = -diff
        return mat
    g = metric(space, amb)
    mat = np.zeros((len(edges) + n, n * amb))
    for r, (i, j) in enumerate(edges):
        mat[r, i * amb:(i + 1) * amb] = g * pts[j]
        mat[r, j * amb:(j + 1) * amb] = g * pts[i]
    for i in range(n):
        mat[len(edges) + i, i * amb:(i + 1) * amb] = g * pts[i]
    return mat


def resolution_matrix(space, pts, edges):
    """Stress -> resolved ambient load: edge ij adds dist(p_i,p_j) e_ij at i."""
    n, amb = pts.shape
    g = metric(space, amb)
    mat = np.zeros((n * amb, len(edges)))
    for k, (i, j) in enumerate(edges):
        if space == "E":
            at_i, at_j = pts[j] - pts[i], pts[i] - pts[j]
        else:
            c = float(np.sum(g * pts[i] * pts[j]))
            if space == "S":
                dist = np.arccos(np.clip(c, -1.0, 1.0))
                s = np.sin(dist)
            else:
                c = -c
                dist = np.arccosh(max(c, 1.0))
                s = np.sinh(dist)
            at_i = dist / s * (pts[j] - c * pts[i])
            at_j = dist / s * (pts[i] - c * pts[j])
        mat[i * amb:(i + 1) * amb, k] = at_i
        mat[j * amb:(j + 1) * amb, k] = at_j
    return mat


def wedge_all(pts, vecs):
    """Per-vertex bivectors p_i ^ f_i, shape (n, C(d+1, 2))."""
    amb = pts.shape[1]
    pairs = list(combinations(range(amb), 2))
    return np.stack([pts[:, a] * vecs[:, b] - pts[:, b] * vecs[:, a] for a, b in pairs], axis=1)


def clear_rank_gap(mat, low=1e-12, high=1e-5):
    """True when no singular value sits between low and high (relative)."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True
    rel = s / s[0]
    return not np.any((rel > low) & (rel < high))


# --- grid-analyze -----------------------------------------------------------

def grid_graph(k):
    """k x k triangulated grid: edges to the right, up and up-right."""
    idx = lambda c, r: r * k + c  # noqa: E731
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((idx(c, r), idx(c + 1, r)))
            if r + 1 < k:
                edges.append((idx(c, r), idx(c, r + 1)))
            if c + 1 < k and r + 1 < k:
                edges.append((idx(c, r), idx(c + 1, r + 1)))
    return edges


def grid_xy(k):
    """(c, r)/k + 0.01 N(0, 1) from default_rng(0): the ROADMAP's grid fixture."""
    rng = np.random.default_rng(0)
    base = np.array([(c / k, r / k) for r in range(k) for c in range(k)])
    return base + 0.01 * rng.standard_normal((k * k, 2))


class GridAnalyze:
    """`analyze <file> --json` on large triangulated grids.

    The grids do not depend on the seed: whether LAPACK's gesdd converges
    depends on the exact bits of the matrix, and one of eight nearby grid
    variants already fails, so seeded grids would make the failed count
    depend on the seed.  The k = 20 spherical grid is the ROADMAP's fixture
    that fails with 2 BLAS threads and is kept as a known failure.
    """

    name = "grid-analyze"
    SCHEDULE = ((20, "E"), (20, "S"), (20, "H"), (30, "E"))
    SHRINK = 0.3

    def _write(self, k, space, path):
        xy = grid_xy(k)
        verts = xy if space == "E" else chart_to_model(self.SHRINK * xy, space)
        write_json(path, {"space": space, "dim": 2, "vertices": verts.tolist(),
                          "edges": grid_graph(k)})

    def make_inputs(self, seed, workdir):
        inputs = []
        for k, space in self.SCHEDULE:
            path = os.path.join(workdir, "grid-%s-k%d.json" % (space, k))
            self._write(k, space, path)
            n = k * k
            m = 3 * k * k - 4 * k + 1
            inputs.append(SimpleNamespace(name="grid-%s-k%d" % (space, k), path=path, n=n, m=m))
        return inputs

    def warmup_input(self, workdir):
        path = os.path.join(workdir, "grid-warmup.json")
        self._write(4, "E", path)
        return SimpleNamespace(name="grid-warmup", path=path, n=16, m=33)

    def run(self, inp, workdir, tag):
        return call(["analyze", inp.path, "--json"])

    def check(self, inp, out, oracles):
        code, text = out
        expect_exit(code, (EXIT_RIGID, EXIT_FLEXIBLE), "analyze")
        rep = json.loads(text)
        expect(code == EXIT_RIGID and rep["rigid"] is True, "grid reported flexible")
        expect((rep["n"], rep["m"]) == (inp.n, inp.m), "wrong vertex/edge counts")
        expect(rep["kinematic_dof"] == rep["static_dof"] == 0, "dof %r/%r, expected 0"
               % (rep["kinematic_dof"], rep["static_dof"]))
        expect(rep["dim_V0"] == 3, "dim V0 = %r, expected 3" % rep["dim_V0"])
        expected = inp.m - (2 * inp.n - 3)
        expect(rep["self_stress_count"] == expected, "self-stresses %r, expected %d"
               % (rep["self_stress_count"], expected))


# --- small-batch -------------------------------------------------------------------

def henneberg(rng, n):
    """A Laman graph on n vertices from Henneberg type I and II steps."""
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        if rng.random() < 0.5:
            a, b = (int(x) for x in rng.choice(v, 2, replace=False))
            edges |= {(a, v), (b, v)}
        else:
            a, b = sorted(edges)[int(rng.integers(len(edges)))]
            c = int(rng.choice([u for u in range(v) if u not in (a, b)]))
            edges.discard((a, b))
            edges |= {(a, v), (b, v), (c, v)}
    return sorted(edges)


def connected_random(rng, n, m):
    """A random tree plus random extra edges, m edges in total."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    order = rng.permutation(len(rest))
    edges |= {rest[t] for t in order[: max(0, m - len(edges))]}
    return sorted(edges)


def small_graph(rng, d, n, kind, extra):
    if kind == "laman":
        return henneberg(rng, n)
    if kind == "flexible":
        edges = henneberg(rng, n)
        drop = set(int(t) for t in rng.choice(len(edges), extra, replace=False))
        return [e for t, e in enumerate(edges) if t not in drop]
    if kind == "stressed":
        edges = set(henneberg(rng, n))
        rest = [e for e in combinations(range(n), 2) if e not in edges]
        for t in rng.choice(len(rest), extra, replace=False):
            edges.add(rest[int(t)])
        return sorted(edges)
    generic = d * n - d * (d + 1) // 2
    m = min(max(generic + extra, n - 1), n * (n - 1) // 2)
    return connected_random(rng, n, m)


def _small_schedule():
    sched = [(2, n, "laman", 0) for n in range(4, 12)]
    sched += [(2, n, "flexible", 1 + n % 2) for n in range(5, 11)]
    sched += [(2, n, "stressed", 1 + n % 2) for n in range(5, 11)]
    sched += [(2, n, "random", 0) for n in (6, 8, 10, 12)]
    sched += [(3, n, "random", delta) for n, delta in
              ((5, 0), (6, -1), (6, 1), (7, 0), (8, -2), (8, 2), (9, 0),
               (10, -1), (10, 1), (11, 0), (12, -2), (12, 2))]
    return tuple(sched)


class SmallBatch:
    """Small E frameworks through analyze, transform to S and H, analyze images."""

    name = "small-batch"
    SCHEDULE = _small_schedule()
    GRID = 256          # coordinates are integers / GRID: dyadic, exact as floats
    SPAN = 96           # |coordinate| <= SPAN / GRID keeps images inside the H chart

    def _make(self, rng, d, n, kind, extra, label, workdir):
        edges = small_graph(rng, d, n, kind, extra)
        while True:
            xy = rng.integers(-self.SPAN, self.SPAN + 1, size=(n, d)) / self.GRID
            if len({tuple(r) for r in xy}) < n:
                continue
            pts = with_leading_one(xy)
            if all(clear_rank_gap(rigidity_matrix(sp, p, edges)) for sp, p in
                   (("E", pts), ("S", chart_to_model(xy, "S")), ("H", chart_to_model(xy, "H")))):
                break
        # an equilibrium load: random forces minus their least-squares resultant
        biv = np.zeros((d * (d + 1) // 2, n * d))
        for t, (a, b) in enumerate(combinations(range(d + 1), 2)):
            for i in range(n):
                if a == 0:
                    biv[t, i * d + b - 1] = 1.0
                else:
                    biv[t, i * d + b - 1] = xy[i, a - 1]
                    biv[t, i * d + a - 1] = -xy[i, b - 1]
        f = rng.standard_normal(n * d)
        f -= np.linalg.lstsq(biv, biv @ f, rcond=None)[0]
        q = rng.standard_normal((n, d))
        load = np.column_stack([np.zeros(n), f.reshape(n, d)])
        field = np.column_stack([np.zeros(n), q])
        path = os.path.join(workdir, "%s.json" % label)
        write_json(path, {"space": "E", "dim": d, "vertices": xy.tolist(), "edges": edges,
                          "load": load.tolist(), "field": field.tolist()})
        return SimpleNamespace(name=label, path=path, d=d, n=n, edges=edges, xy=xy,
                               load=load, field=field, exact=None)

    def make_inputs(self, seed, workdir):
        return [self._make(np.random.default_rng([seed, t]), d, n, kind, extra,
                           "small-%02d-d%d-n%d-%s" % (t, d, n, kind), workdir)
                for t, (d, n, kind, extra) in enumerate(self.SCHEDULE)]

    def warmup_input(self, workdir):
        return self._make(np.random.default_rng(0), 2, 4, "laman", 0, "small-warmup", workdir)

    def run(self, inp, workdir, tag):
        out = {"E": call(["analyze", inp.path, "--json"])}
        images = {}
        for space in ("S", "H"):
            images[space] = os.path.join(workdir, "op%s-%s.json" % (tag, space))
            out["transform-" + space] = call(
                ["transform", inp.path, "--to-space", space, "--carry", "load",
                 "--carry", "field", "-o", images[space]])
        for space in ("S", "H"):
            out[space] = call(["analyze", images[space], "--json"])
        out["images"] = images
        return out

    def _exact(self, inp, oracles):
        """Exact rational dimensions of the E source (tests/oracles.py)."""
        if inp.exact is None:
            fw = SimpleNamespace(
                coords=with_leading_one(inp.xy), n=inp.n, m=len(inp.edges), dim=inp.d,
                space=SimpleNamespace(is_euclidean=True, is_spherical=False,
                                      is_hyperbolic=False),
                graph=SimpleNamespace(edges=tuple(inp.edges)))
            dim_v = oracles.rational_motion_dim(fw)
            dim_v0 = oracles.rational_killing_rank(fw)
            stresses = oracles.rational_self_stress_dim(fw)
            dim_f = oracles.rational_equilibrium_dim(fw)
            inp.exact = {"dim_V": dim_v, "dim_V0": dim_v0, "dim_F": dim_f,
                         "dim_F0": fw.m - stresses, "self_stress_count": stresses,
                         "dof": dim_v - dim_v0,
                         "laman": (oracles.brute_force_laman(inp.n, inp.edges)
                                   if inp.d == 2 else None)}
            if inp.exact["dof"] != dim_f - (fw.m - stresses):  # pragma: no cover
                raise RuntimeError("exact oracle breaks static-kinematic duality")
        return inp.exact

    def check(self, inp, out, oracles):
        for key in ("E", "S", "H"):
            expect_exit(out[key][0], (EXIT_RIGID, EXIT_FLEXIBLE), "analyze %s" % key)
        for space in ("S", "H"):
            expect_exit(out["transform-" + space][0], (0,), "transform %s" % space)
        exact = self._exact(inp, oracles)
        rigid = exact["dof"] == 0
        for key in ("E", "S", "H"):
            code, text = out[key]
            rep = json.loads(text)
            expect(rep["kinematic_dof"] == rep["static_dof"] == exact["dof"],
                   "%s: dof %r/%r, exact dof of the E source is %d"
                   % (key, rep["kinematic_dof"], rep["static_dof"], exact["dof"]))
            expect(rep["self_stress_count"] == exact["self_stress_count"],
                   "%s: self-stresses %r, exact %d"
                   % (key, rep["self_stress_count"], exact["self_stress_count"]))
            expect(rep["rigid"] is rigid and code == (EXIT_RIGID if rigid else EXIT_FLEXIBLE),
                   "%s: verdict/exit code %r/%r, exact rigid=%s" % (key, rep["rigid"], code, rigid))
            if inp.d == 2:
                expect(rep["laman"] is exact["laman"],
                       "%s: laman %r, subset enumeration says %r"
                       % (key, rep["laman"], exact["laman"]))
        rep = json.loads(out["E"][1])
        for key in ("dim_V", "dim_V0", "dim_F", "dim_F0"):
            expect(rep[key] == exact[key], "E: %s = %r, exact %d" % (key, rep[key], exact[key]))
        src_work = float(np.sum(inp.load * inp.field))
        work_scale = float(np.sum(np.linalg.norm(inp.load, axis=1)
                                  * np.linalg.norm(inp.field, axis=1)))
        for space in ("S", "H"):
            img = read_json(out["images"][space])
            pts = np.array(img["vertices"])
            ld, fd = np.array(img["load"]), np.array(img["field"])
            g = metric(space, inp.d + 1)
            work = float(np.einsum("ia,a,ia->", fd, g, ld))
            expect(abs(work - src_work) <= 1e-9 * work_scale,
                   "%s: virtual work %.17g, source %.17g" % (space, work, src_work))
            per_vertex = wedge_all(pts, ld)
            net = np.abs(per_vertex.sum(axis=0)).max()
            expect(net <= 1e-8 * max(np.abs(per_vertex).max(), 1e-300),
                   "%s: transported equilibrium load has net bivector %.3g" % (space, net))


# --- mc-wheels -------------------------------------------------------------------

def wheel(rng, rim):
    """Hub joined to every rim vertex; evenly spread jittered rim angles."""
    hub = rim
    edges = [(k, (k + 1) % rim) for k in range(rim)] + [(k, hub) for k in range(rim)]
    angles = 2 * np.pi * (np.arange(rim) + rng.uniform(0.15, 0.85, rim)) / rim
    radii = rng.uniform(0.9, 1.3, rim)
    xy = np.vstack([np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]),
                    0.05 * rng.standard_normal(2)])
    faces = [[k, (k + 1) % rim, hub] for k in range(rim)] + [list(reversed(range(rim)))]
    return xy, edges, faces


def edge_key(i, j):
    return "%d-%d" % (min(i, j), max(i, j))


class McWheels:
    """`mc` stress2rec -> rec2lift -> lift2stress on seeded wheels in E, S or H."""

    name = "mc-wheels"
    SCHEDULE = ((20, "E"), (24, "S"), (28, "H"), (34, "E"), (40, "S"), (48, "H"),
                (58, "E"), (70, "S"), (85, "H"), (100, "E"), (125, "S"), (150, "H"))
    SHRINK = 0.3

    def _make(self, rng, rim, space, label, workdir):
        while True:
            xy, edges, faces = wheel(rng, rim)
            pts = with_leading_one(xy) if space == "E" else \
                chart_to_model(self.SHRINK * xy, space)
            res = resolution_matrix(space, pts, edges)
            _, s, vt = np.linalg.svd(res)
            w = vt[-1] / vt[-1][np.argmax(np.abs(vt[-1]))]
            # one self-stress, clearly separated, nonzero on every edge
            if (s[-2] > 1e-8 * s[0] and np.linalg.norm(res @ w) <= 1e-12 * s[0]
                    and np.min(np.abs(w)) > 1e-6):
                break
        path = os.path.join(workdir, "%s.json" % label)
        verts = xy if space == "E" else pts
        write_json(path, {"space": space, "dim": 2, "vertices": verts.tolist(),
                          "edges": edges, "faces": faces, "exterior_face": rim,
                          "stress": {edge_key(i, j): float(x) for (i, j), x in zip(edges, w)}})
        return SimpleNamespace(name=label, path=path, space=space, pts=pts, edges=edges,
                               faces=faces, stress=w)

    def make_inputs(self, seed, workdir):
        return [self._make(np.random.default_rng([seed, t]), rim, space,
                           "wheel-%02d-%s-rim%d" % (t, space, rim), workdir)
                for t, (rim, space) in enumerate(self.SCHEDULE)]

    def warmup_input(self, workdir):
        return self._make(np.random.default_rng(0), 6, "E", "wheel-warmup", workdir)

    def run(self, inp, workdir, tag):
        base = os.path.join(workdir, "op%s" % tag)
        files = {k: "%s-%s.json" % (base, k) for k in ("rec", "lift", "stress")}
        codes = [
            call(["mc", inp.path, "--direction", "stress2rec", "-o", files["rec"]])[0],
            call(["mc", inp.path, "--direction", "rec2lift", "--object", files["rec"],
                  "-o", files["lift"]])[0],
            call(["mc", inp.path, "--direction", "lift2stress", "--object", files["lift"],
                  "-o", files["stress"]])[0],
        ]
        return codes, files

    def check(self, inp, out, oracles):
        codes, files = out
        for what, code in zip(("stress2rec", "rec2lift", "lift2stress"), codes):
            expect_exit(code, (0,), "mc " + what)
        lift = read_json(files["lift"])
        scale = float(lift["stress_scale"])
        back = read_json(files["stress"])["stress"]
        w2 = np.array([back[edge_key(i, j)] for i, j in inp.edges])
        err = np.max(np.abs(w2 - scale * inp.stress))
        ref = abs(scale) * np.max(np.abs(inp.stress))
        expect(err <= 1e-8 * ref, "stress roundtrip error %.3g relative" % (err / ref))
        planes = np.array(lift["face_planes"])
        verts = np.array(lift["vertex_points"])
        resid = []
        for a, cyc in enumerate(inp.faces):
            for i in cyc:
                if inp.space == "E":
                    gx, gy, b = planes[a]
                    x, y = inp.pts[i, 1:]
                    resid.append(abs(gx * x + gy * y + b - verts[i, 2]))
                else:
                    g = metric(inp.space, 3)
                    kappa = -1.0 if inp.space == "H" else 1.0
                    resid.append(abs(float(np.sum(g * planes[a] * verts[i])) - kappa))
        size = max(1.0, float(np.max(np.abs(planes))) * float(np.max(np.abs(verts))))
        expect(max(resid) <= 1e-8 * size,
               "lift incidence residual %.3g" % max(resid))


WORKLOADS = {w.name: w for w in (GridAnalyze, SmallBatch, McWheels)}
