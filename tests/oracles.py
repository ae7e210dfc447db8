"""Independent oracles for the test suite.

Everything here recomputes expected values through a route disjoint from the
library: exact rational Gaussian elimination over fractions.Fraction (floats
convert exactly), elimination modulo a prime of the exact integer matrix
where Fractions are too slow, subset enumeration for sparsity counts,
vertex-pair deletion for 3-connectivity, a directed-edge dict and per-face
loops for planar embeddings (their validation included), and finite
differences for flex checks, and per-face least-squares fits for the planes
of Maxwell-Cremona lifts.  The matrices are rebuilt from scratch from the
defining formulas rather than taken from the library.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


#: The documented default rank tolerance (README: relative, singular-value
#: threshold tol * sigma_max * max(m, n)).
RANK_TOL = 1e-9


def rule_cutoff(a, smax, tol=RANK_TOL) -> float:
    """The documented rank cutoff tol * smax * max(m, n) of the dense array
    `a`, m and n the numbers of its rows and columns that are not all zero,
    for `smax` its largest singular value or a bound of it."""
    a = np.asarray(a)
    return tol * smax * max(np.count_nonzero(np.any(a, axis=1)),
                            np.count_nonzero(np.any(a, axis=0)))


def svd_rank(a, tol=RANK_TOL):
    """The singular values of the dense array `a` by np.linalg.svd
    (descending), the documented cutoff for them and the number of values
    above it."""
    s = np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)
    cutoff = rule_cutoff(a, s[0] if s.size else 0.0, tol)
    return s, cutoff, int(np.sum(s > cutoff))


def fraction_rows(array) -> list:
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(array)]


def rational_rank(rows) -> int:
    """Row-echelon rank over the rationals (exact)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, n_rows):
            if m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, n_cols):
                    m[r][c] -= f * m[row][c]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def rational_nullity(rows) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(m[0]) - rational_rank(m)


#: A prime under 2^31: products of two residues fit in int64.
MOD_P = 2147483629


def echelon_rank_mod_p(m, p=MOD_P) -> int:
    """Row-echelon rank over GF(p) of an int64 matrix of residues in [0, p);
    each step updates only the rows with a non-zero in the pivot column."""
    m = np.array(m, dtype=np.int64)
    rank = 0
    for col in range(m.shape[1]):
        if rank == len(m):
            break
        nonzero = rank + np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        m[[rank, nonzero[0]]] = m[[nonzero[0], rank]]
        pivot = m[rank, col:] * pow(int(m[rank, col]), p - 2, p) % p
        below = nonzero[1:]
        m[below, col:] = (m[below, col:] - m[below, col, None] * pivot) % p
        rank += 1
    return rank


def _dyadic_residues(x, p=MOD_P) -> np.ndarray:
    """The floats `x` times one common power of two, which makes each of them
    exactly an integer, reduced mod p."""
    ratios = [float(v).as_integer_ratio() for v in np.ravel(x)]
    scale = max((den for _, den in ratios), default=1)
    return np.array([num * (scale // den) % p for num, den in ratios],
                    dtype=np.int64).reshape(np.shape(x))


def rank_mod_p(fw, p=MOD_P) -> int:
    """Rank over GF(p) of the Euclidean rigidity operator, scaled to an
    integer matrix: rows p_i - p_j at vertex i and p_j - p_i at vertex j,
    from the exact dyadic coordinates (never the rounded float differences,
    whose rounding can break the rotation's exact null vector).  A lower
    bound on the rational rank, so reaching n d - C(d+1,2) proves rigidity.
    About 0.06 s on the n = 300 Henneberg framework."""
    assert fw.space.is_euclidean
    x = _dyadic_residues(fw.coords[:, 1:], p)
    i, j = np.array(fw.graph.edges, dtype=int).reshape(-1, 2).T
    rows = np.zeros((fw.m, fw.n, fw.dim), dtype=np.int64)
    k = np.arange(fw.m)
    rows[k, i] = (x[i] - x[j]) % p
    rows[k, j] = (x[j] - x[i]) % p
    return echelon_rank_mod_p(rows.reshape(fw.m, fw.n * fw.dim), p)


# --- exact matrix constructions (independent of the library) -----------------

def _coords_fractions(fw):
    return [[Fraction(float(x)) for x in row] for row in fw.coords]


def _metric_signs(fw):
    g = [Fraction(1)] * (fw.dim + 1)
    if fw.space.is_hyperbolic:
        g[0] = Fraction(-1)
    return g


def rational_rigidity_matrix(fw) -> list:
    """Edge rows (plus tangency rows for S/H) with exact rational entries."""
    p = _coords_fractions(fw)
    n, d = fw.n, fw.dim
    rows = []
    if fw.space.is_euclidean:
        for i, j in fw.graph.edges:
            row = [Fraction(0)] * (n * d)
            for a in range(d):
                diff = p[i][a + 1] - p[j][a + 1]
                row[i * d + a] = diff
                row[j * d + a] = -diff
            rows.append(row)
        return rows
    g = _metric_signs(fw)
    amb = d + 1
    for i, j in fw.graph.edges:
        row = [Fraction(0)] * (n * amb)
        for a in range(amb):
            row[i * amb + a] = g[a] * p[j][a]
            row[j * amb + a] = g[a] * p[i][a]
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * (n * amb)
        for a in range(amb):
            row[i * amb + a] = g[a] * p[i][a]
        rows.append(row)
    return rows


def rational_motion_dim(fw) -> int:
    rows = rational_rigidity_matrix(fw)
    cols = fw.n * (fw.dim if fw.space.is_euclidean else fw.dim + 1)
    return cols - rational_rank(rows)


def rational_killing_rank(fw) -> int:
    """Rank of the Killing-field evaluation map, exactly (Euclidean only)."""
    assert fw.space.is_euclidean
    p = _coords_fractions(fw)
    n, d = fw.n, fw.dim
    cols = []
    for k in range(d):  # translations
        col = [Fraction(0)] * (n * d)
        for i in range(n):
            col[i * d + k] = Fraction(1)
        cols.append(col)
    for a, b in combinations(range(d), 2):  # rotations
        col = [Fraction(0)] * (n * d)
        for i in range(n):
            col[i * d + a] = p[i][b + 1]
            col[i * d + b] = -p[i][a + 1]
        cols.append(col)
    rows = [[c[r] for c in cols] for r in range(n * d)]
    return rational_rank(rows)


def lie_algebra_killing_fields(fw) -> np.ndarray:
    """The Killing fields B p_i at the vertices, (C(d+1,2), n, d+1) ambient
    vectors, from one Lie-algebra basis per geometry: in E the affine
    subalgebra of gl(d+1) with zero first row (translations e_k e_0^T, then
    rotations), on S the skew matrices, on H the Lorentz algebra G A, A skew.
    This is the construction that `kinematics.killing_evaluation_matrix`
    takes from the force bivectors instead; the fields agree up to the sign
    of the E translations."""
    amb, euclidean = fw.space.ambient_dim, fw.space.is_euclidean
    e, g = np.eye(amb), np.diag(fw.space.metric_signs)
    mats = [np.outer(e[k], e[0]) for k in range(1, amb)] if euclidean else []
    for a, b in combinations(range(1 if euclidean else 0, amb), 2):
        mats.append(g @ (np.outer(e[a], e[b]) - np.outer(e[b], e[a])))
    return np.stack([(m @ fw.coords.T).T for m in mats]).reshape(len(mats), fw.n, amb)


def rational_resolution_matrix(fw) -> list:
    """Columns: stress -> load, exact (Euclidean only: entries p_j - p_i)."""
    assert fw.space.is_euclidean
    p = _coords_fractions(fw)
    n, d = fw.n, fw.dim
    rows = [[Fraction(0)] * fw.m for _ in range(n * d)]
    for k, (i, j) in enumerate(fw.graph.edges):
        for a in range(d):
            diff = p[j][a + 1] - p[i][a + 1]
            rows[i * d + a][k] = diff
            rows[j * d + a][k] = -diff
    return rows


def rational_self_stress_dim(fw) -> int:
    return fw.m - rational_rank(rational_resolution_matrix(fw))


def rational_equilibrium_dim(fw) -> int:
    """dim F over the rationals: nullity of [bivector map; tangency rows]."""
    p = _coords_fractions(fw)
    n, d = fw.n, fw.dim
    amb = d + 1
    pairs = list(combinations(range(amb), 2))
    rows = []
    for a, b in pairs:
        row = [Fraction(0)] * (n * amb)
        for i in range(n):
            # wedge of p_i with the unit vector along axis c
            for c in range(amb):
                val = Fraction(0)
                if c == b:
                    val = p[i][a]
                elif c == a:
                    val = -p[i][b]
                row[i * amb + c] = val
        rows.append(row)
    g = _metric_signs(fw)
    for i in range(n):
        row = [Fraction(0)] * (n * amb)
        if fw.space.is_euclidean:
            row[i * amb] = Fraction(1)
        else:
            for a in range(amb):
                row[i * amb + a] = g[a] * p[i][a]
        rows.append(row)
    return n * amb - rational_rank(rows)


def equilibrium_stack(fw):
    """Reference only, for `statics.equilibrium_spectrum`: the equilibrium
    stack itself, (C(d+1,2) + n) x n(d+1), as `_linalg.Entries`, so the
    sparse path of `_linalg.spectrum` decides it at any size.

    Built from the defining formulas: bivector row (a, b) holds
    (p_i ^ e_c)_ab = p_i[a] [c == b] - p_i[b] [c == a] at column (i, c);
    tangency row i holds vertex i's unit normal, e_0 in E and G p_i / |G p_i|
    on S/H, at vertex i's columns.
    """
    from rigidkit import _linalg

    n, amb = fw.n, fw.space.ambient_dim
    p = fw.coords
    pairs = list(combinations(range(amb), 2))
    if fw.space.is_euclidean:
        normals = np.zeros((n, amb))
        normals[:, 0] = 1.0
    else:
        normals = np.array(_metric_signs(fw), dtype=float) * p
        normals /= np.sqrt(np.sum(normals**2, axis=1))[:, None]
    vertex = np.arange(n) * amb
    rows, cols, vals = [], [], []
    for row, (a, b) in enumerate(pairs):
        rows += [np.full(2 * n, row)]
        cols += [vertex + b, vertex + a]
        vals += [p[:, a], -p[:, b]]
    rows += [np.repeat(len(pairs) + np.arange(n), amb)]
    cols += [(vertex[:, None] + np.arange(amb)).ravel()]
    vals += [normals.ravel()]
    return _linalg.Entries(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                           (len(pairs) + n, n * amb))


def rational_nullspace(rows) -> list:
    """Exact basis of the nullspace (list of Fraction vectors)."""
    m = [list(r) for r in rows]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    # reduced row echelon
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * n_cols
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -m[r][fcol]
        basis.append(vec)
    return basis


# --- combinatorial oracles ----------------------------------------------------

def brute_force_23_sparse(n, edges) -> bool:
    """Every induced subgraph on k >= 2 vertices has at most 2k - 3 edges."""
    edges = [tuple(e) for e in edges]
    for k in range(2, n + 1):
        for subset in combinations(range(n), k):
            s = set(subset)
            count = sum(1 for i, j in edges if i in s and j in s)
            if count > 2 * k - 3:
                return False
    return True


def brute_force_laman(n, edges) -> bool:
    return len(edges) == 2 * n - 3 and brute_force_23_sparse(n, edges)


def _connected_without(n, adj, removed) -> bool:
    verts = [v for v in range(n) if v not in removed]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def brute_force_3_connected(n, edges) -> bool:
    """At least 4 vertices, connected, and connected after deleting any two
    vertices: every vertex pair tried, O(n^2 (n + m))."""
    if n < 4:
        return False
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return _connected_without(n, adj, ()) and all(
        _connected_without(n, adj, pair) for pair in combinations(range(n), 2))


def random_plane_graph(rng, n, deletions):
    """(edges, faces) of a plane graph: a random stacked triangulation on n >= 3
    vertices, then up to `deletions` random edge deletions, each merging the
    two distinct faces on its sides into one.

    Faces keep the library's orientation (each face left of its directed
    boundary), so merged faces may revisit a vertex.
    """
    faces = [[0, 1, 2], [0, 2, 1]]
    for v in range(3, n):
        a, b, c = faces.pop(int(rng.randint(len(faces))))
        faces += [[a, b, v], [b, c, v], [c, a, v]]
    for _ in range(deletions):
        # directed edge -> (face, position of its tail in the face cycle)
        where = {(cyc[k], cyc[(k + 1) % len(cyc)]): (f, k)
                 for f, cyc in enumerate(faces) for k in range(len(cyc))}
        i, j = sorted(where)[int(rng.randint(len(where)))]
        (f1, k1), (f2, k2) = where[(i, j)], where[(j, i)]
        if f1 == f2:
            continue  # a bridge: deleting it would disconnect the graph
        # rotated, f1 runs j ... i (then i -> j) and f2 runs i ... j (then j -> i)
        one = faces[f1][k1 + 1:] + faces[f1][:k1 + 1]
        two = faces[f2][k2 + 1:] + faces[f2][:k2 + 1]
        faces = [cyc for f, cyc in enumerate(faces) if f not in (f1, f2)]
        faces.append(one + two[1:-1])
    edges = sorted({(min(c[k], c[(k + 1) % len(c)]), max(c[k], c[(k + 1) % len(c)]))
                    for c in faces for k in range(len(c))})
    return edges, faces


# --- reference validation, one edge and one corner at a time --------------------

def check_edges_reference(n, edges):
    """Oracle: the edge checks of a graph as a loop over the edges, raising
    the first offender's error as the library's `Graph` must."""
    from rigidkit.errors import GraphError

    seen = set()
    for e in edges:
        if len(e) != 2:
            raise GraphError("edge %r is not a pair" % (e,))
        i, j = e
        if i == j:
            raise GraphError("loop at vertex %d" % i)
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError("edge %r out of range" % (e,))
        if (min(i, j), max(i, j)) in seen:
            raise GraphError("duplicate edge %r" % (e,))
        seen.add((min(i, j), max(i, j)))


def validate_embedding_reference(g, faces, exterior_face=None):
    """Oracle: `validate_embedding` as a loop over the corners with a
    directed-edge dict, raising the first offender's error as the library
    must; returns True for faces that glue to a sphere."""
    from rigidkit.errors import (
        EdgeFaceMismatch,
        EulerViolation,
        GraphError,
        OrientationInconsistent,
    )

    faces = [list(f) for f in faces]
    n, m = g.vertex_count, g.edge_count
    if n - m + len(faces) != 2:
        raise EulerViolation("n - m + f = %d - %d + %d != 2" % (n, m, len(faces)))
    edges = [(min(i, j), max(i, j)) for i, j in g.edges]
    edge_use = {e: 0 for e in edges}
    directed, duplicated = {}, []
    for a, cyc in enumerate(faces):
        if len(cyc) < 3:
            raise EdgeFaceMismatch("face %d has fewer than 3 vertices" % a)
        for k, i in enumerate(cyc):
            j = cyc[(k + 1) % len(cyc)]
            e = (min(i, j), max(i, j))
            if e not in edge_use:
                raise EdgeFaceMismatch("face %d uses non-edge %r" % (a, (i, j)))
            if (i, j) in directed:
                duplicated.append(((i, j), directed[(i, j)], a))
            directed[(i, j)] = a
            edge_use[e] += 1
    bad = [e for e in edges if edge_use[e] != 2]
    if bad:
        raise EdgeFaceMismatch("edges not on exactly two faces: %r" % bad)
    if duplicated:
        (i, j), a, b = duplicated[0]
        raise OrientationInconsistent("directed edge %r used by faces %d and %d" % ((i, j), a, b))
    if exterior_face is not None and not (0 <= exterior_face < len(faces)):
        raise GraphError("exterior face index out of range")
    # Glued to a sphere: connected, and the faces around each vertex form one
    # rotation.  Around vertex v the edge v -> j is followed by v -> k, k the
    # vertex after v in the face of j -> v.
    after = {(cyc[k], cyc[(k + 1) % len(cyc)]): cyc[(k + 2) % len(cyc)]
             for cyc in faces for k in range(len(cyc))}
    rotations, todo = 0, set(directed)
    while todo:
        rotations += 1
        v, j = todo.pop()
        while (v, after[(j, v)]) in todo:
            j = after[(j, v)]
            todo.remove((v, j))
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    if not (_connected_without(n, adj, ()) and rotations == n):
        raise GraphError("the faces do not glue to a sphere: the graph is "
                         "disconnected or some vertex has more than one rotation of faces")
    return True


def directed_faces(faces) -> dict:
    """Directed edge (i, j) -> the face whose cycle runs i -> j: the face on
    the left of i -> j, and on the right of j -> i."""
    return {(cyc[k], cyc[(k + 1) % len(cyc)]): a
            for a, cyc in enumerate(faces) for k in range(len(cyc))}


# --- Euclidean face checks, one face and one edge at a time ---------------------

def signed_area(poly) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def is_convex_ccw(poly) -> bool:
    n = len(poly)
    for k in range(n):
        u = poly[(k + 1) % n] - poly[k]
        v = poly[(k + 2) % n] - poly[(k + 1) % n]
        if u[0] * v[1] - u[1] * v[0] <= 0:
            return False
    return True


def convexity_classify(fw, stress=None, reciprocal=None, planes=None):
    """The Euclidean convexity classification by per-face and per-edge loops.

    `stress` holds values in edge order, `reciprocal` the reciprocal points and
    `planes` the (gx, gy, b) rows of a vertical lift.  Returns the report's
    fields as a dict, or (error class name, message) where the library raises.
    """
    emb, xy = fw.embedding, fw.coords[:, 1:]
    negative = [a for a, cyc in enumerate(emb.faces) if signed_area(xy[list(cyc)]) < 0]
    if len(negative) != 1:
        return "NoExteriorFace", "expected exactly one clockwise face, found %d" % len(negative)
    ext = negative[0]
    if emb.exterior_face is not None and emb.exterior_face != ext:
        return ("NoExteriorFace",
                "declared exterior face %d is not the clockwise one" % emb.exterior_face)
    for a, cyc in enumerate(emb.faces):
        poly = xy[list(cyc)]
        if not is_convex_ccw(poly[::-1] if a == ext else poly):
            return "NotEmbedded", "face %d is not a convex polygon in the drawing" % a
    left_of = directed_faces(emb.faces)
    boundary, stress_ok, rec_ok, lift_ok = [], True, True, True
    for k, (i, j) in enumerate(fw.graph.edges):
        left, right = left_of[(i, j)], left_of[(j, i)]
        outer = ext in (left, right)
        if outer:
            boundary.append((min(i, j), max(i, j)))
        if stress is not None:
            stress_ok &= bool(stress[k] < 0 if outer else stress[k] > 0)
        if reciprocal is not None:
            u, v = xy[j] - xy[i], reciprocal[left] - reciprocal[right]
            det = u[0] * v[1] - u[1] * v[0]
            rec_ok &= bool(det < 0 if outer else det > 0)
        if planes is not None and not outer:
            for side, other in ((left, right), (right, left)):
                for h in emb.faces[side]:
                    if h not in (i, j):
                        x1 = np.array([xy[h, 0], xy[h, 1], 1.0])
                        lift_ok &= bool(x1 @ planes[side] >= x1 @ planes[other] - 1e-12)
    return {"exterior_face": ext, "boundary_edges": tuple(sorted(boundary)),
            "stress_pattern": None if stress is None else stress_ok,
            "reciprocal_pattern": None if reciprocal is None else rec_ok,
            "lift_convex": None if planes is None else lift_ok}


# --- numeric oracles ------------------------------------------------------------

def fitted_face_planes(lift) -> np.ndarray:
    """Reference for `lift.face_planes`: each face's plane fitted by least
    squares to its lifted vertices, one face at a time, in the lift's rows.

    Vertical rows (gx, gy, b) solve [x y 1] (gx, gy, b) = z; spherical and
    hyperbolic rows m solve <m, x> = kappa (kappa = +1 on S, -1 on H, the
    Minkowski product on H); a radial row (n, c) is the smallest right
    singular vector of the rows (x, y, z, -1) scaled to |n| = 1, with the
    sign of the lift's own row, since a radial plane's sign is free.
    """
    kind, faces = lift.kind.value, lift.framework.embedding.faces
    planes = []
    for a, cyc in enumerate(faces):
        pts = lift.vertex_points[list(cyc)]
        ones = np.ones(len(cyc))
        if kind == "vertical":
            planes.append(np.linalg.lstsq(np.column_stack([pts[:, :2], ones]), pts[:, 2],
                                          rcond=None)[0])
        elif kind == "radial":
            v = np.linalg.svd(np.column_stack([pts, -ones]))[2][-1]
            v = v / np.linalg.norm(v[:3])
            planes.append(v if v @ lift.face_planes[a] >= 0 else -v)
        else:
            hyperbolic = kind == "hyperbolic-minkowski"
            kappa = -1.0 if hyperbolic else 1.0
            metric = np.array([-1.0 if hyperbolic else 1.0, 1.0, 1.0])
            planes.append(np.linalg.lstsq(pts * metric, kappa * ones, rcond=None)[0])
    return np.array(planes)


def edge_length_derivative_residual(fw, field_vecs, h=1e-6):
    """Max |len(p + h q) - len(p - h q)| / (2h): first-order length invariance.

    Curved points are renormalized onto the model after the step.
    """
    import rigidkit as rk

    def lengths(sign):
        coords = fw.coords + sign * h * field_vecs
        moved = rk.build_framework(fw.graph, fw.space, coords, renormalize=True)
        return rk.edge_lengths(moved).values

    lp, lm = lengths(+1.0), lengths(-1.0)
    if lp.size == 0:
        return 0.0
    return float(np.max(np.abs(lp - lm)) / (2 * h))


def random_graph(rng, n, extra_edges=None):
    """Connected-ish random graph: a random tree plus random extra edges."""
    edges = set()
    for v in range(1, n):
        u = int(rng.randint(0, v))
        edges.add((u, v))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)
                if (i, j) not in edges]
    rng.shuffle(possible)
    count = extra_edges if extra_edges is not None else int(rng.randint(0, len(possible) + 1))
    edges.update(possible[:count])
    return sorted(edges)


def random_framework(rng, space, n):
    """A valid random framework in the given space with a random graph."""
    import rigidkit as rk

    g = rk.graph(n, random_graph(rng, n))
    d = space.dim
    while True:
        if space.is_euclidean:
            coords = rng.standard_normal((n, d))
        elif space.is_spherical:
            raw = rng.standard_normal((n, d + 1))
            coords = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        else:
            spatial = 0.8 * rng.standard_normal((n, d))
            x0 = np.sqrt(1.0 + np.sum(spatial**2, axis=1))
            coords = np.column_stack([x0, spatial])
        try:
            return rk.build_framework(g, space, coords)
        except rk.errors.RigidkitError:
            continue


def convex_polytope(n):
    """(points, edges) of a convex simplicial polytope in E^3: the convex hull
    (scipy.spatial.ConvexHull) of n points from default_rng(0), normalized to
    the unit sphere, so every point is a vertex and there are 3n - 6 edges.

    By Dehn's theorem its edge framework is infinitesimally rigid with
    independent edges, and so are its images in S^3 and H^3 (infinitesimal
    rigidity is projectively invariant): exact verdicts at any n.
    """
    from scipy.spatial import ConvexHull

    points = np.random.default_rng(0).standard_normal((n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    triangles = ConvexHull(points).simplices
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return points, np.unique(sides, axis=0)
