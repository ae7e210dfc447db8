"""Shared numerical linear algebra: rank decisions, bases, least squares.

Every SVD in the package goes through :func:`svd`: when LAPACK does not
converge on a matrix it retries once on the transpose, and a second failure
raises :class:`NumericalError`.  Every rank decision of a linear map is made
by :func:`spectrum` with the threshold convention
sigma > tol * sigma_max * max(m, n) of :func:`_svd_rank` (m and n count the
rows and columns that are not zero), so it can be overridden in one place.

Which path decides: a matrix whose smaller non-zero side has fewer than
:data:`SPARSE_MIN_SIDE` rows or columns gets one values-only SVD.  A larger
one, given densely or as :class:`Entries`, is decided by shift-invert Lanczos
(ARPACK, through scipy) on the Gram matrix of its smaller side, where the
null space of every rigidity matrix is small (:func:`_lanczos_spectrum`);
its `Spectrum` then holds sigma_max and the low end only.  One sparse LU
factorization of the shifted Gram matrix (minimum degree ordering) serves
every Lanczos call of a decision, and each call has a budget of about
side^3 flops of solves, the order of the dense SVD's cost.  When Lanczos
cannot certify the rank with a 100x margin on both sides of the cutoff,
when the cutoff sits below the sqrt(eps) * sigma_max floor of squaring, when
ARPACK or SuperLU fails or a call spends its budget, or when scipy is
missing, the same matrix gets the dense SVD instead.

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
#: `spectrum` tries shift-invert Lanczos before the dense SVD.  On E grid
#: operators (2 cores) the two break even near a side of 250; staying above
#: that keeps every small framework off scipy, whose import takes ~0.4 s.
SPARSE_MIN_SIDE = 300

#: Number of smallest singular values the first Lanczos solve asks for; it
#: doubles, up to 4x, while they all fall below the cutoff.  A null space
#: larger than that goes to the dense SVD: ARPACK's cost grows quickly with k
#: on a cluster of zero eigenvalues.
_LANCZOS_K = 8


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array, got shape %r" % (a.shape,))
    return a


def svd(a, full_matrices=True, compute_uv=True):
    """np.linalg.svd of a 2-d array, retried on the transpose when LAPACK does
    not converge.

    gesdd can fail on a matrix whose transpose it factors without trouble;
    the factors of the transpose are transposed back, so callers see the
    same contract either way.
    """
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    try:
        out = np.linalg.svd(a.T, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "SVD of a %d x %d matrix did not converge, also on its transpose" % a.shape
        ) from exc
    if not compute_uv:
        return out
    u, s, vt = out
    return vt.T, s, u.T


def _svd_rank(s, a, tol):
    """(cutoff, rank) for descending singular values `s` of the matrix `a`.

    max(m, n) counts only rows and columns that are not identically zero, so
    zero padding, which leaves the singular values alone, leaves the rank
    alone too: the Euclidean resolution matrix (the transposed rigidity
    operator plus n zero rows) gets the operator's rank.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0.0, 0
    cutoff = tol * s[0] * max(np.count_nonzero(np.any(a, axis=1)),
                              np.count_nonzero(np.any(a, axis=0)))
    return cutoff, int(np.sum(s > cutoff))


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
    SVD; `values` holds every singular value) or "sparse" (shift-invert
    Lanczos; `partial` is then true and `values` holds sigma_max followed
    by the smallest singular values only).
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
        """The k smallest singular values, padded with nan when there are fewer."""
        low = self.values[1:] if self.partial else self.values
        s = low[::-1][:k]
        return np.concatenate([s, np.full(k - s.size, np.nan)])


def spectrum(a, tol=RANK_TOL) -> Spectrum:
    """The singular values, cutoff and rank of `a`, a 2-d array or Entries:
    by shift-invert Lanczos when its smaller side has at least
    SPARSE_MIN_SIDE non-zero rows or columns and the rank can be certified,
    else by one values-only SVD."""
    a = a if isinstance(a, Entries) else _as_matrix(a)
    if min(a.shape) >= SPARSE_MIN_SIDE:
        spec = _lanczos_spectrum(a, tol)
        if spec is not None:
            return spec
    if isinstance(a, Entries):
        a = a.toarray()
    s = np.zeros(0) if a.size == 0 else svd(a, compute_uv=False)
    cutoff, rank = _svd_rank(s, a, tol)
    return Spectrum(s, cutoff, rank, a.shape)


class _OverBudget(RuntimeError):
    """An ARPACK call asked for one operator application more than its budget."""


def _budgeted(apply, side, nnz, k):
    """`apply`, an operator with `nnz` non-zeros on a side x side matrix, as
    a LinearOperator for one ARPACK call for k eigenvalues, which raises
    _OverBudget in place of any application past its budget.

    The budget is about side^3 flops, the order of the dense SVD's cost, at
    2 nnz flops per application.  It is never below 4 ncv, ncv =
    max(2k + 1, 20) the Krylov basis that eigsh keeps: whatever its fill, a
    small matrix needs a first basis and a restart or two.
    """
    from scipy.sparse.linalg import LinearOperator

    budget, calls = max(4 * max(2 * k + 1, 20), side**3 // (2 * nnz)), 0

    def matvec(x):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise _OverBudget("no convergence within %d applications" % budget)
        return apply(x)

    return LinearOperator((side, side), matvec=matvec, dtype=float)


def _lanczos_spectrum(a, tol):
    """The Spectrum of `a` (Entries or a 2-d array) from the Gram matrix G of
    its smaller non-zero side, or None when it cannot be certified.

    sigma_max comes from the largest eigenvalue of G; the smallest k
    singular values are those of B V, for the k eigenvectors V of G nearest
    0 (shift-invert about -1e-8 sigma_max^2, fixed start vector).  By
    interlacing they bound the k smallest singular values of B from above,
    and reading them from B V instead of sqrt(eig) keeps the null ones at
    roundoff rather than at sqrt(eps) sigma_max.  k doubles, up to
    4 * _LANCZOS_K, while all k fall below the cutoff.  The rank is
    certified when the first value above the cutoff clears it by 100x and
    the last one below sits under cutoff/100.

    G - sigma I is factored once per decision, by SuperLU with the minimum
    degree ordering of its (symmetric) pattern, and every shift-invert call
    reuses that factor; ARPACK's own factorization would use a column
    ordering (COLAMD), with more fill, and repeat it for each k.  Every
    ARPACK call stops at its budget of operator applications
    (`_budgeted`: about side^3 flops, at 2 nnz flops per solve or
    product), so a cluster of eigenvalues at the shift costs about a dense
    SVD's flops before the dense SVD decides.  A value between, a null space larger
    than ARPACK can take (k < side), a cutoff below the sqrt(eps) * sigma_max
    floor of squaring, an ARPACK or SuperLU failure, a spent budget and a
    missing scipy all give None.
    """
    if not isinstance(a, Entries):
        rows, cols = np.nonzero(a)
        a = Entries(rows, cols, a[rows, cols], a.shape)
    keep = a.vals != 0
    rows, ri = np.unique(a.rows[keep], return_inverse=True)
    cols, ci = np.unique(a.cols[keep], return_inverse=True)
    side = min(rows.size, cols.size)
    if side < max(SPARSE_MIN_SIDE, 2):
        return None
    try:
        from scipy.sparse import csr_matrix, identity
        from scipy.sparse.linalg import eigsh, splu
    except ImportError:
        return None
    b = csr_matrix((a.vals[keep], (ri, ci)), shape=(rows.size, cols.size))
    if rows.size < cols.size:
        b = b.T.tocsr()
    gram = (b.T @ b).tocsc()
    v0 = np.random.default_rng(0).standard_normal(side)
    try:
        lam_max = float(eigsh(_budgeted(gram.dot, side, gram.nnz, 1), 1, v0=v0,
                              return_eigenvectors=False)[0])
        smax = np.sqrt(max(lam_max, 0.0))
        cutoff = tol * smax * max(rows.size, cols.size)
        if smax == 0.0 or cutoff < np.sqrt(np.finfo(float).eps) * smax:
            return None
        sigma = -1e-8 * lam_max
        lu = splu(gram - sigma * identity(side, format="csc"), permc_spec="MMD_AT_PLUS_A")
        k = min(_LANCZOS_K, side - 1)
        while True:
            _, vecs = eigsh(gram, k, sigma=sigma, which="LM", v0=v0,
                            OPinv=_budgeted(lu.solve, side, lu.nnz, k))
            low = np.linalg.svd(b @ vecs, compute_uv=False)[::-1]
            null = int(np.count_nonzero(low <= cutoff))
            if null < k:
                break
            if k >= min(4 * _LANCZOS_K, side - 1):
                return None
            k = min(2 * k, side - 1)
    except (RuntimeError, np.linalg.LinAlgError):  # ArpackError, SuperLU, _OverBudget
        return None
    if low[null] <= 100.0 * cutoff or (null and low[null - 1] >= cutoff / 100.0):
        return None
    values = np.concatenate([[smax], low[::-1]])
    return Spectrum(values, cutoff, side - null, a.shape, "sparse")


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
