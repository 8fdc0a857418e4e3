"""Dense-matrix primitives.

Row centering, the leading singular triple of the centered matrix via one
symmetric eigendecomposition of the Gram matrix on its smaller side,
ranking/permutation machinery, and a residual-spectrum diagnostic for the
approximate rank-one condition.

All functions here are pure; nothing mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GramOverflow, NonFiniteInput, ZeroMatrixError

DEFAULT_TOL = 1e-10


class SignConvention(Enum):
    """How the joint sign of the leading pair (u, v) is fixed.

    ROW_MAJORITY flips (u, v) so that sum_i (Xv)_i >= 0; on an exact tie it
    falls back to FIRST_NONZERO_NEGATIVE, which flips so that the first
    nonzero component of v is negative.
    """

    ROW_MAJORITY = "row-majority"
    FIRST_NONZERO_NEGATIVE = "first-negative"


@dataclass(frozen=True)
class CenteredMatrix:
    """A row-centered matrix together with the removed row means."""

    values: np.ndarray
    row_means: np.ndarray


@dataclass(frozen=True)
class SingularTriple:
    """Leading singular value/vectors of a centered matrix.

    ``u`` has length n, ``v`` has length p, both unit norm.  ``converged``
    reports whether the singular-pair relation that the eigensolve does not
    make exact (||Xv - lam*u|| or ||X^T u - lam*v||) is within
    tol*(lam + 1), with tol = DEFAULT_TOL.  ``iterations`` is 1: the solve
    is direct.  ``multiplicity_warning`` is set when the second singular
    value is within tol*lam of the first, in which case the returned
    direction is numerically ambiguous.
    """

    lam: float
    u: np.ndarray
    v: np.ndarray
    convention: SignConvention
    iterations: int
    converged: bool
    multiplicity_warning: bool = False


@dataclass(frozen=True)
class Ranking:
    """Ascending ranks of a vector and the inverse permutation.

    Both arrays are 1-based, matching the ranking-operator convention:
    ``ranks`` assigns 1 to the smallest entry with ties broken left to
    right, and ``inverse_permutation[k-1]`` is the (1-based) index holding
    rank k, so that ``ranks[inverse_permutation[k-1] - 1] == k``.
    """

    ranks: np.ndarray
    inverse_permutation: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """0-based column order, ascending by value (ties left to right)."""
        return self.inverse_permutation - 1


def _as_matrix(values, name: str = "matrix", min_rows: int = 2) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] < min_rows or a.shape[1] < 2:
        raise ValueError(
            f"{name} must be 2-d with at least {min_rows} row(s) and 2 columns, "
            f"got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return a


def center_rows(values) -> CenteredMatrix:
    """Subtract each row's mean; returns the centered matrix and the means."""
    y = _as_matrix(values, "observation matrix")
    row_means = y.mean(axis=1)
    return CenteredMatrix(values=y - row_means[:, None], row_means=row_means)


def _unwrap(x, name: str = "centered matrix") -> np.ndarray:
    if isinstance(x, CenteredMatrix):
        return x.values
    return _as_matrix(x, name)


def _first_nonzero_is_positive(v: np.ndarray) -> bool:
    for value in v:
        if value != 0.0:
            return value > 0.0
    return False


def _short_gram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, a a^T) with a the matrix or its transpose, whichever has no more
    rows than columns, so that the Gram matrix is min(n, p) square."""
    a = values if values.shape[0] <= values.shape[1] else values.T
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        gram = a @ a.T
    if not np.isfinite(gram).all():
        raise GramOverflow("matrix entries are too large: the Gram product overflows")
    return a, gram


def leading_singular_triple(
    x,
    convention: SignConvention = SignConvention.ROW_MAJORITY,
) -> SingularTriple:
    """Top singular triple of a (row-centered) matrix.

    Computed by one symmetric eigendecomposition of the Gram matrix on the
    smaller side: XX^T when n <= p, X^TX when p < n.  The top eigenvector
    gives u (or v); the other vector is X^T u / lam (or X v / lam) with
    lam = ||X^T u|| (or ||X v||).  The second eigenvalue gives lam2 for the
    multiplicity check.  Raises ZeroMatrixError when the matrix is
    identically zero, and GramOverflow when its Gram product overflows.
    """
    values = _unwrap(x)
    if not np.any(values):
        raise ZeroMatrixError("matrix has zero Frobenius norm; no direction defined")

    a, gram = _short_gram(values)
    mus, vecs = np.linalg.eigh(gram)
    s = vecs[:, -1]
    ats = a.T @ s
    lam = float(np.linalg.norm(ats))
    if lam == 0.0:
        raise ZeroMatrixError("leading eigenvector lies in the null space")
    t = ats / lam
    at = a @ t
    # a^T s = lam t holds by construction; a t = lam s is what the solve leaves inexact
    converged = float(np.linalg.norm(at - lam * s)) <= DEFAULT_TOL * (lam + 1.0)
    if a is values:
        u, v, xv = s, t, at
    else:
        u, v, xv = t, s, ats

    if convention is SignConvention.ROW_MAJORITY:
        total = float(xv.sum())
        if total != 0.0:
            flip = total < 0.0
        else:
            flip = _first_nonzero_is_positive(v)
    else:
        flip = _first_nonzero_is_positive(v)
    if flip:
        u, v = -u, -v
    lam2 = float(np.sqrt(max(mus[-2], 0.0))) if mus.size > 1 else 0.0

    return SingularTriple(
        lam=lam,
        u=u,
        v=v,
        convention=convention,
        iterations=1,
        converged=converged,
        multiplicity_warning=(lam - lam2) <= DEFAULT_TOL * lam,
    )


def rank_vector(x) -> Ranking:
    """Ascending ranks, ties broken left to right."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("rank_vector expects a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise NonFiniteInput("vector contains NaN or infinite entries")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[order] = np.arange(1, v.size + 1)
    return Ranking(ranks=ranks, inverse_permutation=order.astype(np.int64) + 1)


def residual_spectrum(x, k: int) -> tuple[float, float]:
    """Top singular value and the sum of singular values 2..k.

    Read off the eigenvalues of the Gram matrix on the smaller side.  The
    residual sum feeds the approximate rank-one diagnostic
    sum_{i>=2} lam_i <= sigma sqrt(log p).  Eigenvalues driven negative by
    roundoff are clamped to zero.
    """
    values = _unwrap(x)
    n, p = values.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k must be in [1, min(n, p)] = [1, {min(n, p)}], got {k}")
    if not np.any(values):
        raise ZeroMatrixError("matrix has zero Frobenius norm")

    mus = np.linalg.eigvalsh(_short_gram(values)[1])[::-1][:k]
    lams = np.sqrt(np.clip(mus, 0.0, None))
    return float(lams[0]), float(lams[1:].sum())
