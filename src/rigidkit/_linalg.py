"""Shared numerical linear algebra: rank decisions, bases, least squares.

Every SVD in the package goes through :func:`svd`: when LAPACK does not
converge on a matrix it retries once on the transpose, and a second failure
raises :class:`NumericalError`.  Every rank decision of a linear map is a
:class:`Spectrum` made by :func:`svd_spectrum` or :func:`_sparse_spectrum`
with the threshold convention sigma > tol * sigma_max * max(m, n) of
:func:`_cutoff` (m and n count the rows and columns that are not zero), so
it can be overridden in one place.

Which route decides (`Spectrum.route`): in :func:`spectrum`, a matrix whose
smaller non-zero side has fewer than :data:`SPARSE_MIN_SIDE` rows or columns
gets one values-only SVD ("svd").  A larger one, given densely or as
:class:`Entries`, is decided on the Gram matrix of its smaller side by
:func:`_sparse_spectrum`, which sets out its routes (a banded Cholesky
certificate, "band", else an inertia count of one LDL^T factor, "count") and
when the same matrix gets the dense SVD instead.

The Maxwell-Cremona collinear-face test is the one geometric check that
counts singular values against an absolute cutoff instead.  A basis is one
SVD with vectors cut at a rank already decided (:func:`nullspace`,
:func:`column_space`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: Default relative singular-value threshold for rank decisions.
RANK_TOL = 1e-9

#: Smallest side (non-zero rows or columns, whichever are fewer) from which
#: `spectrum` tries the sparse inertia count before the dense SVD.  On E grid
#: operators (2 cores, Killing columns given) the two break even near a side
#: of 150; staying well above that keeps every small framework off scipy,
#: whose import takes ~0.4 s.
SPARSE_MIN_SIDE = 300

#: Restart limit (eigsh's `maxiter`) of each ARPACK call on the sparse path;
#: a call that reaches it fails, and the dense SVD decides.  The slowest
#: fixture, the rim-2000 wheel, needs 4 restarts to read its 83 values under
#: the cutoff on the count's factor.
_ARPACK_MAXITER = 100


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array, got shape %r" % (a.shape,))
    return a


def svd(a, full_matrices=True, compute_uv=True):
    """np.linalg.svd of a 2-d array or a stack of them, retried on the
    transposes when LAPACK does not converge.

    gesdd can fail on a matrix whose transpose it factors without trouble;
    the factors of the transpose are transposed back, so callers see the
    same contract either way.  A MemoryError becomes a NumericalError that
    names the matrix's shape.
    """
    try:
        try:
            return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        except np.linalg.LinAlgError:
            pass
        out = np.linalg.svd(np.swapaxes(a, -1, -2), full_matrices=full_matrices,
                            compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD of a %d x %d matrix did not converge, also on its transpose" % a.shape[-2:]
        ) from exc
    except MemoryError as exc:
        raise _out_of_memory(a.shape) from exc
    if not compute_uv:
        return out
    u, s, vt = out
    return np.swapaxes(vt, -1, -2), s, np.swapaxes(u, -1, -2)


def _out_of_memory(shape):
    return NumericalError("out of memory for the dense SVD of a %d x %d matrix" % shape[-2:])


def _cutoff(smax, rows, cols, tol):
    """The rank cutoff of both paths for the largest singular value `smax` of
    a matrix with `rows` rows and `cols` columns that are not all zero."""
    return tol * smax * max(rows, cols)


@dataclass(frozen=True, eq=False)
class Entries:
    """A matrix given by its (row, column, value) arrays; each position
    occurs at most once."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @property
    def T(self) -> "Entries":
        return Entries(self.cols, self.rows, self.vals, self.shape[::-1])

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        return a

    def matvec(self, x) -> np.ndarray:
        """The product with the vector `x`, without a dense matrix."""
        out = np.bincount(self.rows, weights=self.vals * np.asarray(x)[self.cols],
                          minlength=self.shape[0])
        return out.astype(float, copy=False)  # bincount of no entries gives ints


def block_entries(rows, vertices, blocks, shape) -> Entries:
    """Entries that put the vector blocks[t] into row rows[t], at the columns
    w * vertices[t] ... w * vertices[t] + w - 1 of that vertex (w the block
    width)."""
    w = blocks.shape[1]
    cols = np.asarray(vertices)[:, None] * w + np.arange(w)
    return Entries(np.repeat(rows, w), cols.ravel(), blocks.ravel(), shape)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The rank decision of one matrix, named by the `route` that made it.

    "svd": one values-only SVD; `values` holds every singular value,
    descending (None on the other routes).  "band": the banded Cholesky
    certificate of `_sparse_spectrum`; `sigma_max` is an upper bound, and
    the rank holds at every cutoff up to `cutoff`, the rule's for it.
    "count": its inertia count at the exact cutoff.  `smallest` holds the
    two smallest of the min(rows, columns) singular values, ascending and
    nan-padded (upper bounds off "svd", to roundoff the values above the
    cutoff): right null values for a tall matrix, else row-side ones, whose
    zeros are left null vectors.
    """

    rank: int
    cutoff: float
    shape: tuple
    route: str
    sigma_max: float
    smallest: np.ndarray
    values: np.ndarray = None

    @property
    def nullity(self) -> int:
        """Dimension of the right null space: columns minus rank."""
        return self.shape[1] - self.rank


def _lows(s):
    """The two smallest of the descending values `s`, ascending, nan-padded."""
    return np.concatenate([s[::-1], [np.nan, np.nan]])[:2]


def svd_spectrum(s, rows, cols, shape, tol) -> Spectrum:
    """The "svd" Spectrum of a matrix of shape `shape` from its descending
    singular values `s`.  max(m, n) counts only its `rows` rows and `cols`
    columns that are not all zero, so zero padding, which leaves the values
    alone, leaves the rank alone too: the Euclidean resolution matrix (the
    transposed operator plus n zero rows) gets the operator's rank."""
    smax = float(s[0]) if s.size else 0.0
    cutoff = _cutoff(smax, rows, cols, tol)
    return Spectrum(int(np.sum(s > cutoff)), cutoff, shape, "svd", smax, _lows(s), s)


def spectrum(a, tol=RANK_TOL, null_columns=None) -> Spectrum:
    """The rank decision of `a`, a 2-d array or Entries: on the sparse path
    when its smaller side has at least SPARSE_MIN_SIDE non-zero rows or
    columns and that path can decide, else by one values-only SVD.

    `null_columns`, columns the caller knows to lie in the right null space
    of `a` (one row per column of `a`), may stand in for the sparse path's
    values step (see `_sparse_spectrum`); the dense path ignores them.
    """
    a = a if isinstance(a, Entries) else _as_matrix(a)
    if min(a.shape) >= SPARSE_MIN_SIDE:
        spec = _sparse_spectrum(a, tol, null_columns)
        if spec is not None:
            return spec
    if isinstance(a, Entries):
        try:
            a = a.toarray()
        except MemoryError as exc:
            raise _out_of_memory(a.shape) from exc
    s = np.zeros(0) if a.size == 0 else svd(a, compute_uv=False)
    return svd_spectrum(s, np.count_nonzero(np.any(a, axis=1)),
                        np.count_nonzero(np.any(a, axis=0)), a.shape, tol)


def _compact(index, size):
    """The distinct values of `index` (integers in [0, size)), ascending, and
    each entry's position among them."""
    used = np.bincount(index, minlength=size) > 0
    return np.flatnonzero(used), (np.cumsum(used) - 1)[index]


def _sparse_spectrum(a, tol, null_columns):
    """The Spectrum of `a` (Entries or a 2-d array) from the Gram matrix G of
    its smaller non-zero side, or None when the sparse path cannot decide.

    The cutoff c = tol * sigma_max * max(m, n) needs sigma_max, but the rank
    needs only to know which singular values lie under c.  G's diagonal and
    Gershgorin's bound bracket sigma_max^2 = lambda_max: lambda_lo =
    max_i G_ii <= lambda_max <= max_i sum_j |G_ij| = lambda_hi, and the
    same rule turns these into a bracket [c_lo, c_hi] of c (c_hi / c was
    1.24-1.31 on the triangulated grids).  The bracket is tried when G is
    the columns' (B has at least as many rows), `null_columns` are given
    and c_lo clears the floor of squaring, sqrt(eps lambda_hi).  With Q the
    reduced-QR basis of `null_columns` on B's columns, when all k >= 2
    singular values of B Q are at or under c_lo, B has at least k values
    at or under every cutoff in the bracket (Cauchy interlacing, below): a
    certificate made before any factor.  The other side needs at most k
    eigenvalues of G under c_hi^2.  For G_SS, G without k coordinates S,
    Cauchy interlacing for principal submatrices gives lambda_{k+1}(G) >=
    lambda_min(G_SS) (Parlett, The Symmetric Eigenvalue Problem, 10.1),
    so G_SS - c_hi^2 I positive definite is enough.  S is where pivoted
    QR of Q^T pins the null columns, so that no null vector survives on
    the other coordinates.  One banded Cholesky factor of G_SS in reverse
    Cuthill-McKee order decides it (`_pinned_gram_exceeds`, which derives
    the shift that covers the factor's backward error); on the benchmark
    grids lambda_min(G_SS) was at least 7.6e-6 lambda_max, the shifted
    c_hi^2 at most 1.7e-11 lambda_max.  The rank is then side - k for
    every cutoff in the bracket, c included, with no SuperLU factor: route
    "band", with `sigma_max` sqrt(lambda_hi), `cutoff` c_hi and `smallest`
    the two smallest values of B Q.

    Everything else is decided at the exact cutoff: a value of B Q above
    c_lo, a failed certificate (the factor fails on a flexible operator;
    the band would hold more than twice its envelope, 26-104 times on
    braced wheels of rim 150-600, whose hub joins every vertex, against
    1.35-1.47 on the rigid grids and a d = 3 lattice; or it cannot be
    allocated), a wide matrix, one null column, no `null_columns`.
    sigma_max, and with it c, comes from the largest eigenvalue of G: one
    Lanczos call (ARPACK) stopped at tol = sqrt(eps), where its Ritz
    estimate certifies lambda_max to sqrt(eps) relative.
    That is the backward error the probe solve below accepts for the
    counted factor; it moves c^2 by about 2 sqrt(eps) c^2, far under the
    sqrt(eps) lambda_max the probe allows, so the count's weakest
    certificate is unchanged.  The value is a Rayleigh quotient, whose
    error is quadratic in the residual (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4), so in practice it is at roundoff: 41 products on the
    400- and 900-vertex grids, where a stop at machine precision took 61
    and 71.  G is built once, with sorted indices.  Symmetric to the bit,
    it has the same CSR and CSC arrays: Lanczos takes its row-wise
    products, the band its rows, SuperLU its columns, and the SuperLU
    factor shifts G's stored diagonal in place.

    The rank is a count: by Sylvester's law of inertia, the negative
    pivots of a symmetric LDL^T factorization of G - c^2 I are the
    eigenvalues of G below c^2, that is the singular values under the cutoff
    (spectrum slicing: Ericsson & Ruhe, Math. Comp. 35, 1980; Grimes, Lewis
    & Simon, SIAM J. Matrix Anal. Appl. 15, 1994).  SuperLU gives that
    factorization when it keeps to the diagonal (minimum degree ordering of
    the symmetric pattern, no threshold pivoting): then perm_r == perm_c and
    the diagonal of U is D.  One probe solve checks the factor's normwise
    backward error.

    Route "count", at the exact cutoff, keeps sigma_max and in `smallest`
    two upper bounds of the smallest singular values of B.  When G is the columns', the count
    finds two or more values under the cutoff and `null_columns` are given,
    the bounds are the two smallest singular values of B Q: for orthonormal
    Q the k-th smallest singular value of B Q bounds the k-th smallest of B
    from above (Cauchy interlacing), so two of them at or under the cutoff
    are null values, certified with no Lanczos call.  Otherwise (fewer than
    two columns in Q, a value of B Q above the cutoff, or a wide matrix,
    whose smallest values are the row side's, on which right null columns
    say nothing) the values step reads them on the count's own factor, as
    spectrum slicing does: one Lanczos call on (G - c^2 I)^-1 (fixed start
    vector, run to machine precision, as the values are read through B V)
    for max(null, 2) eigenvectors V of G, null being the count: the two
    above c^2 at null = 0 ("LA"), one below and one above at 1 ("BE"), all
    null below at null >= 2 ("SA": the two nearest c^2 need not be the
    smallest).  By interlacing the two smallest values of B V bound those
    of B from above too, and as values of B V, not sqrt(eig), null ones
    stay at roundoff.  ARPACK keeps 2k + 1 vectors for k, so many values
    under c cost time: 200 disjoint K4 blocks (200 values) take 0.24 s.

    A diagonal entry of G that underflows to zero, a cutoff below the
    sqrt(eps) * sigma_max floor of squaring, an off-diagonal pivot, a probe
    backward error above sqrt(eps), an ARPACK failure (no convergence
    within _ARPACK_MAXITER restarts included), a SuperLU failure and a
    missing scipy all give None.
    """
    if not isinstance(a, Entries):
        rows, cols = np.nonzero(a)
        a = Entries(rows, cols, a[rows, cols], a.shape)
    keep = a.vals != 0
    rows, ri = _compact(a.rows[keep], a.shape[0])
    cols, ci = _compact(a.cols[keep], a.shape[1])
    side = min(rows.size, cols.size)
    if side < max(SPARSE_MIN_SIDE, 2):
        return None
    try:
        from scipy.sparse import csc_matrix, csr_matrix
        from scipy.sparse.linalg import LinearOperator, eigsh, splu
    except ImportError:
        return None
    tall = rows.size >= cols.size
    b = csr_matrix((a.vals[keep], (ri, ci) if tall else (ci, ri)),
                   shape=(max(rows.size, cols.size), side))
    # tocsr sorts the product's indices; G is symmetric to the bit, so these
    # CSR arrays are its CSC arrays too
    by_rows = (b.T @ b).tocsr()
    gram = csc_matrix((by_rows.data, by_rows.indices, by_rows.indptr), shape=by_rows.shape)
    diagonal = np.flatnonzero(gram.indices == np.repeat(np.arange(side), np.diff(gram.indptr)))
    if diagonal.size < side:  # the product drops a diagonal that underflows
        return None
    g_ii = gram.data[diagonal]
    v0 = np.random.default_rng(0).standard_normal(side)
    eps = np.finfo(float).eps

    def count(cutoff):
        """The LDL^T factor of G - cutoff^2 I (shifted in place on G's stored
        diagonal for the factorization only) and the number of eigenvalues
        of G under cutoff^2, its negative pivots.  LinAlgError when that
        factor cannot count: SuperLU left the diagonal, or the probe's
        backward error exceeds sqrt(eps) for lambda_max.  The values step
        reuses the factor: one is alive, the peak memory stays at one fill."""
        gram.data[diagonal] = g_ii - cutoff**2
        try:
            lu = splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options=dict(SymmetricMode=True))
        finally:
            gram.data[diagonal] = g_ii
        x = lu.solve(v0)
        residual = np.linalg.norm(by_rows @ x - cutoff**2 * x - v0)
        if not (np.array_equal(lu.perm_r, lu.perm_c) and residual
                <= np.sqrt(eps) * (lam_max * np.linalg.norm(x) + np.linalg.norm(v0))):
            raise np.linalg.LinAlgError("the factor cannot count")
        return lu, int(np.count_nonzero(lu.U.diagonal() < 0))

    try:
        low = np.zeros(0)
        if tall and null_columns is not None:
            q = np.linalg.qr(np.asarray(null_columns)[cols])[0]
            low = np.linalg.svd(b @ q, compute_uv=False)
        # Gershgorin: max_i G_ii <= lambda_max <= max_i sum_j |G_ij|
        lam_lo = float(g_ii.max())
        lam_hi = float(np.add.reduceat(np.abs(by_rows.data), by_rows.indptr[:-1]).max())
        c_lo, c_hi = (_cutoff(np.sqrt(lam), rows.size, cols.size, tol) for lam in (lam_lo, lam_hi))
        if (low.size >= 2 and low[0] <= c_lo and c_lo >= np.sqrt(eps * lam_hi)
                and _pinned_gram_exceeds(by_rows, g_ii, q, c_hi**2)):
            return Spectrum(side - low.size, c_hi, a.shape, "band", np.sqrt(lam_hi), _lows(low))
        lam_max = float(eigsh(by_rows, 1, v0=v0, tol=np.sqrt(eps), maxiter=_ARPACK_MAXITER,
                              return_eigenvectors=False)[0])
        smax = np.sqrt(max(lam_max, 0.0))
        cutoff = _cutoff(smax, rows.size, cols.size, tol)
        if smax == 0.0 or cutoff < np.sqrt(eps) * smax:
            return None
        lu, null = count(cutoff)
        low = low[-2:] if null >= 2 else np.zeros(0)
        if low.size < 2 or low[0] > cutoff:
            inverse = LinearOperator((side, side), matvec=lu.solve, dtype=float)
            _, vecs = eigsh(gram, min(max(null, 2), side - 1), sigma=cutoff**2,
                            which=("LA", "BE", "SA")[min(null, 2)], v0=v0,
                            maxiter=_ARPACK_MAXITER, OPinv=inverse)
            low = np.linalg.svd(b @ vecs, compute_uv=False)[-2:]
    except (RuntimeError, np.linalg.LinAlgError):  # ArpackError, SuperLU, count
        return None
    return Spectrum(side - null, cutoff, a.shape, "count", smax, _lows(low))


def _pinned_gram_exceeds(gram, g_ii, q, floor):
    """Whether lambda_min(G_SS) > `floor`: G_SS is the CSR Gram matrix `gram`
    (diagonal `g_ii`) without the k coordinates S that pivoted QR of q^T
    pins, q the orthonormal side x k null basis.  False, so the caller
    counts instead, when G_SS - floor I is not positive definite, when its
    band in reverse Cuthill-McKee order holds more than twice its envelope
    (a hub vertex), or when the band cannot be allocated.

    One banded Cholesky factor (LAPACK dpbtrf) decides it, of G_SS - s I
    with s = floor + delta and delta = (w + 2) eps trace(G_SS) at bandwidth
    w.  delta covers the factor's backward error.  Where dpbtrf succeeds,
    its R satisfies R^T R = G_SS - s I + E with |E| <= gamma |R^T| |R|,
    gamma = gamma_{w+1} = (w + 1) u / (1 - (w + 1) u), u = eps / 2, since
    no inner product in a band is longer than w + 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3).  With rho_i the norm of
    column i of R, |R^T| |R| <= rho rho^T entrywise (Cauchy-Schwarz), so
    ||E||_2 <= gamma sum_i rho_i^2 = gamma trace(R^T R) <= gamma / (1 -
    gamma) trace(G_SS), the diagonal of E being at most gamma times that
    of R^T R.  The rounding of the shifted diagonal adds at most u (max_i
    G_ii + s) more, and s < lambda_min(G_SS) <= trace(G_SS) / (side - k)
    wherever the factor succeeds; both together stay under (w + 2) eps
    trace(G_SS) = delta.  R^T R is positive definite, so lambda_min(G_SS)
    > s - ||E||_2 >= floor.
    """
    from scipy.linalg import qr
    from scipy.linalg.lapack import dpbtrf
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    side, k = q.shape
    pins = qr(q.T, mode="r", pivoting=True)[1][:k]
    order = reverse_cuthill_mckee(gram, symmetric_mode=True)
    order = order[~np.isin(order, pins)]
    position = np.full(side, -1)
    position[order] = np.arange(order.size)
    r = np.repeat(position, np.diff(gram.indptr))
    c = position[gram.indices]
    lower = (c >= 0) & (r >= c)
    r, c, offset = r[lower], c[lower], (r - c)[lower]
    width = int(offset.max())
    first = np.arange(order.size)
    np.minimum.at(first, r, c)
    if (width + 1) * order.size > 2 * int(np.sum(np.arange(order.size) - first + 1)):
        return False
    try:
        band = np.zeros((width + 1, order.size), order="F")
    except MemoryError:
        return False
    band[offset, c] = gram.data[lower]
    band[0] -= floor + (width + 2) * np.finfo(float).eps * g_ii[order].sum()
    return dpbtrf(band, lower=1, overwrite_ab=1)[1] == 0


def nullspace(a, rank):
    """Orthonormal basis of the right nullspace of `a`, whose rank `rank` the
    caller has decided, one row per basis vector: shape (n_cols - rank, n_cols).

    The identity for a matrix that is all zero or has no rows.
    """
    a = _as_matrix(a)
    if not np.any(a):
        return np.eye(a.shape[1])
    return svd(a)[2][rank:]


def column_space(a, rank):
    """Orthonormal basis of the column space of `a`, whose rank `rank` the
    caller has decided, one column per basis vector."""
    a = _as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    return svd(a, full_matrices=False)[0][:, :rank]


def min_norm_lstsq(a, b):
    """Minimum-norm least-squares solution of a x ~ b and its residual norm."""
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float)
    if a.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.linalg.norm(a @ x - b))
    return x, resid
