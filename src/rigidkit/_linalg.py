"""Shared numerical linear algebra: rank decisions, bases, least squares.

Every SVD in the package goes through :func:`svd`: when LAPACK does not
converge on a matrix it retries once on the transpose, and a second failure
raises :class:`NumericalError`.  Every rank decision of a linear map is one
values-only SVD (:func:`spectrum`) with the threshold convention
sigma > tol * sigma_max * max(m, n) of :func:`_svd_rank` (m and n count the
rows and columns that are not zero), so it can be overridden in one place;
the Maxwell-Cremona collinear-face test is the one geometric check that
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
class Spectrum:
    """Singular values of one matrix (descending) with its rank decision."""

    values: np.ndarray
    cutoff: float
    rank: int
    shape: tuple

    @property
    def nullity(self) -> int:
        """Dimension of the right null space: columns minus rank."""
        return self.shape[1] - self.rank

    def smallest(self, k=2) -> np.ndarray:
        """The k smallest singular values, padded with nan when there are fewer."""
        s = self.values[::-1][:k]
        return np.concatenate([s, np.full(k - s.size, np.nan)])


def spectrum(a, tol=RANK_TOL) -> Spectrum:
    """One values-only SVD of `a`: its singular values, cutoff and rank."""
    a = _as_matrix(a)
    s = np.zeros(0) if a.size == 0 else svd(a, compute_uv=False)
    cutoff, rank = _svd_rank(s, a, tol)
    return Spectrum(s, cutoff, rank, a.shape)


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
