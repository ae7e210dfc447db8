"""Shared numerical linear algebra: rank decisions, bases, least squares.

Every SVD in the package goes through :func:`svd`: when LAPACK does not
converge on a matrix it retries once on the transpose, and a second failure
raises :class:`NumericalError`.  Every rank decision of a linear map is made
by :func:`spectrum` with the threshold convention
sigma > tol * sigma_max * max(m, n) of :func:`_cutoff` (m and n count the
rows and columns that are not zero), so it can be overridden in one place;
`statics.equilibrium_spectrum` applies it to every value of its stack.

Which path decides: a matrix whose smaller non-zero side has fewer than
:data:`SPARSE_MIN_SIDE` rows or columns gets one values-only SVD.  A larger
one, given densely or as :class:`Entries`, is decided on the Gram matrix G of
its smaller side (:func:`_sparse_spectrum`): the rank is a count, the number
of negative pivots of one symmetric LDL^T factorization of G - c^2 I (c the
cutoff), by Sylvester's law of inertia the number of singular values under
the cutoff.  sigma_max comes first, from one Lanczos call on G stopped at a
sqrt(eps) relative residual, the backward error the count's probe solve
accepts.  The `Spectrum` holds sigma_max and two upper bounds of the
smallest singular values only: from null columns the caller knows (the
rigidity operator's Killing fields) when they certify two null values,
else from one shift-invert Lanczos call (ARPACK, through scipy) on a
second factor.  When the cutoff sits below the sqrt(eps) * sigma_max
floor of squaring, when SuperLU pivots off the diagonal, when a probe solve
shows a backward error above sqrt(eps), when ARPACK or SuperLU fails, or
when scipy is missing, the same matrix gets the dense SVD instead.

The Maxwell-Cremona collinear-face test is the one geometric check that
counts singular values against an absolute cutoff instead.  A basis is one
SVD with vectors cut at a rank already decided (:func:`nullspace`,
:func:`column_space`); the plane fits of the Maxwell-Cremona lifts are the
only other SVDs with vectors.
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
#: fixture, the rim-1000 wheel, needs 35 restarts to read its two values.
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
    same contract either way.
    """
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    try:
        out = np.linalg.svd(np.swapaxes(a, -1, -2), full_matrices=full_matrices,
                            compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD of a %d x %d matrix did not converge, also on its transpose" % a.shape[-2:]
        ) from exc
    if not compute_uv:
        return out
    u, s, vt = out
    return np.swapaxes(vt, -1, -2), s, np.swapaxes(u, -1, -2)


def _svd_rank(s, rows, cols, tol):
    """(cutoff, rank) for the descending singular values `s` of a matrix with
    `rows` rows and `cols` columns that are not identically zero.

    max(m, n) counts only those, so zero padding, which leaves the singular
    values alone, leaves the rank alone too: the Euclidean resolution matrix
    (the transposed rigidity operator plus n zero rows) gets the operator's
    rank.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0.0, 0
    cutoff = _cutoff(s[0], rows, cols, tol)
    return cutoff, int(np.sum(s > cutoff))


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
    """Singular values of one matrix (descending) with its rank decision.

    `method` says which path decided the rank: "dense" (one values-only
    SVD; `values` holds every singular value) or "sparse" (an inertia count;
    `partial` is then true and `values` holds sigma_max, from a Lanczos
    Rayleigh quotient certified to sqrt(eps) relative and in practice at
    roundoff, and two upper bounds of the smallest singular values, to
    roundoff the values themselves above the cutoff; see
    `_sparse_spectrum`).
    """

    values: np.ndarray
    cutoff: float
    rank: int
    shape: tuple
    method: str = "dense"

    @property
    def partial(self) -> bool:
        return self.method == "sparse"

    @property
    def nullity(self) -> int:
        """Dimension of the right null space: columns minus rank."""
        return self.shape[1] - self.rank

    def smallest(self, k=2) -> np.ndarray:
        """The k smallest of the min(rows, columns) singular values (upper
        bounds on the sparse path), nan-padded: right null values for a tall
        matrix, else row-side ones, whose zeros are left null vectors."""
        low = self.values[1:] if self.partial else self.values
        s = low[::-1][:k]
        return np.concatenate([s, np.full(k - s.size, np.nan)])


def spectrum(a, tol=RANK_TOL, null_columns=None) -> Spectrum:
    """The singular values, cutoff and rank of `a`, a 2-d array or Entries:
    by an inertia count when its smaller side has at least SPARSE_MIN_SIDE
    non-zero rows or columns and the sparse path can decide, else by one
    values-only SVD.

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
        a = a.toarray()
    s = np.zeros(0) if a.size == 0 else svd(a, compute_uv=False)
    cutoff, rank = _svd_rank(s, np.count_nonzero(np.any(a, axis=1)),
                             np.count_nonzero(np.any(a, axis=0)), tol)
    return Spectrum(s, cutoff, rank, a.shape)


def _compact(index, size):
    """The distinct values of `index` (integers in [0, size)), ascending, and
    each entry's position among them."""
    used = np.bincount(index, minlength=size) > 0
    return np.flatnonzero(used), (np.cumsum(used) - 1)[index]


def _sparse_spectrum(a, tol, null_columns):
    """The Spectrum of `a` (Entries or a 2-d array) from the Gram matrix G of
    its smaller non-zero side, or None when the sparse path cannot decide.

    sigma_max, and with it the cutoff c, comes from the largest eigenvalue of
    G: one Lanczos call (ARPACK) stopped at tol = sqrt(eps), where its Ritz
    estimate certifies lambda_max to sqrt(eps) relative.  That is the
    backward error the probe solve below accepts for the counted factor; it
    moves c^2 by about 2 sqrt(eps) c^2, far under the sqrt(eps) lambda_max
    the probe allows, so the count's weakest certificate is unchanged.  The
    value is a Rayleigh quotient, whose error is quadratic in the residual
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4), so in practice it is
    at roundoff: 41 products on the 400- and 900-vertex grids, where a stop
    at machine precision took 61 and 71.  G is built once, with sorted
    indices.  Symmetric to the bit, it has the same CSR and CSC arrays:
    Lanczos takes its row-wise products, SuperLU its columns, and each
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

    `values` holds sigma_max and two upper bounds of the smallest singular
    values of B.  When G is the columns' (B has at least as many rows), the
    count finds two or more values under the cutoff and `null_columns` are
    given, the bounds are the two smallest singular values of B Q, Q the
    reduced-QR basis of `null_columns` on B's columns: for orthonormal Q the
    k-th smallest singular value of B Q bounds the k-th smallest of B from
    above (Cauchy interlacing), so two of them at or under the cutoff are
    null values, certified without a second factor.  Otherwise (fewer than
    two columns in Q, a value of B Q above the cutoff, or a wide matrix,
    whose smallest values are the row side's, on which right null columns
    say nothing) the values step reads them: the values of B V for the two
    eigenvectors V of G nearest -s, s = max(c^2, 16384 eps sigma_max^2)
    (shift-invert Lanczos on a factor of the positive definite G + s I,
    fixed start vector, run to machine precision, as the values are read
    through B V).  By interlacing these bound the two smallest singular
    values of B from above too, and reading them from B V instead
    of sqrt(eig) keeps the null ones at roundoff rather than at sqrt(eps)
    sigma_max.  The floor on s keeps the solves' relative error along the
    null vectors, about eps sigma_max^2 / s, under 1e-4 when c sits near the
    floor of squaring; at s = c^2 there, Lanczos returned null vectors with
    |B v| up to c/10.

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

    def ldlt(shift):
        """The LDL^T factor of G + shift I, shifted in place on G's stored
        diagonal for the factorization only."""
        gram.data[diagonal] = g_ii + shift
        try:
            return splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                        options=dict(SymmetricMode=True))
        finally:
            gram.data[diagonal] = g_ii

    try:
        lam_max = float(eigsh(by_rows, 1, v0=v0, tol=np.sqrt(eps), maxiter=_ARPACK_MAXITER,
                              return_eigenvectors=False)[0])
        smax = np.sqrt(max(lam_max, 0.0))
        cutoff = _cutoff(smax, rows.size, cols.size, tol)
        if smax == 0.0 or cutoff < np.sqrt(eps) * smax:
            return None
        lu = ldlt(-cutoff**2)
        x = lu.solve(v0)
        residual = np.linalg.norm(by_rows @ x - cutoff**2 * x - v0)
        if not (np.array_equal(lu.perm_r, lu.perm_c) and residual
                <= np.sqrt(eps) * (lam_max * np.linalg.norm(x) + np.linalg.norm(v0))):
            return None
        null = int(np.count_nonzero(lu.U.diagonal() < 0))
        del lu  # one factor alive at a time keeps the peak memory at one fill
        low = np.zeros(0)
        if null >= 2 and null_columns is not None and tall:
            q = np.linalg.qr(np.asarray(null_columns)[cols])[0]
            low = np.linalg.svd(b @ q, compute_uv=False)[-2:]
        if low.size < 2 or low[0] > cutoff:
            shift = max(cutoff**2, 16384 * eps * lam_max)
            inverse = LinearOperator((side, side), matvec=ldlt(shift).solve, dtype=float)
            _, vecs = eigsh(gram, min(2, side - 1), sigma=-shift, which="LM", v0=v0,
                            maxiter=_ARPACK_MAXITER, OPinv=inverse)
            low = np.linalg.svd(b @ vecs, compute_uv=False)
    except (RuntimeError, np.linalg.LinAlgError):  # ArpackError, SuperLU
        return None
    return Spectrum(np.concatenate([[smax], low]), cutoff, side - null, a.shape, "sparse")


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
