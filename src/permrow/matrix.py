"""Dense-matrix primitives.

Row centering, the ascending order of a vector, the leading singular triple
of the centered matrix, and the residual spectrum of a matrix.  The last two
share one solve, the top k eigenpairs of the Gram matrix on the smaller side,
by LAPACK dsyevr of numpy's OpenBLAS; ``np.linalg.eigh`` is only the fallback
for a numpy where dsyevr is not found.  Every matrix, a ``CenteredMatrix``
included, has at least 2 rows and 2 columns, so that side is at least 2.
This module names every OpenBLAS symbol the package calls, the thread-count
calls that ``run_monte_carlo`` pins included.

The public functions here are pure; none mutates its arguments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GramOverflow, NonFiniteInput, NumericalDegeneracyError, ZeroMatrixError

DEFAULT_TOL = 1e-10
_OVERFLOW = "matrix entries are too large: its singular values overflow"


def _check_shape(shape: tuple, name: str, min_rows: int = 2) -> None:
    if len(shape) != 2 or shape[0] < min_rows or shape[1] < 2:
        raise ValueError(
            f"{name} must be 2-d with at least {min_rows} row(s) and 2 columns, got shape {shape}"
        )


@dataclass(frozen=True)
class CenteredMatrix:
    """A row-centered matrix of at least 2 rows and 2 columns, together with
    the removed row means.  Its entries are not checked: an overflowed
    centring raises GramOverflow in the solve."""

    values: np.ndarray
    row_means: np.ndarray

    def __post_init__(self):
        _check_shape(np.shape(self.values), "centered matrix")


@dataclass(frozen=True)
class SingularTriple:
    """Leading singular value/vectors of a centered matrix, and what the solve measured.

    ``u`` has length n, ``v`` has length p, both unit norm.  ``lam2`` is the
    second singular value.  ``residual`` is the
    norm of the singular-pair relation that the eigensolve does not make
    exact: ||Xv - lam*u|| when n <= p, ||X^T u - lam*v|| when p < n.
    """

    lam: float
    u: np.ndarray
    v: np.ndarray
    lam2: float
    residual: float

    @property
    def iterations(self) -> int:
        return 1  # the solve is direct

    @property
    def converged(self) -> bool:
        """Whether ``residual`` is within tol*(lam + 1), tol = DEFAULT_TOL."""
        return self.residual <= DEFAULT_TOL * (self.lam + 1.0)

    @property
    def multiplicity_warning(self) -> bool:
        """Whether ``lam2`` is within tol*lam of ``lam``: the direction is then ambiguous."""
        return (self.lam - self.lam2) <= DEFAULT_TOL * self.lam


def _as_matrix(values, name: str = "matrix", min_rows: int = 2) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    _check_shape(a.shape, name, min_rows)
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return a


def center_rows(values, out=None) -> CenteredMatrix:
    """Subtract each row's mean; returns the centered matrix and the means.

    The centered matrix is written into ``out`` when it is given: a
    C-ordered float64 array of ``values``' shape that does not overlap
    ``values``.  Otherwise it is a new array.
    """
    y = _as_matrix(values, "observation matrix")
    row_means = y.mean(axis=1)
    centered = np.subtract(y, row_means[:, None], out=out)
    return CenteredMatrix(values=centered, row_means=row_means)


def _unwrap(x, name: str = "centered matrix") -> np.ndarray:
    if isinstance(x, CenteredMatrix):
        return x.values
    return _as_matrix(x, name)


def _first_nonzero_is_positive(v: np.ndarray) -> bool:
    for value in v:
        if value != 0.0:
            return value > 0.0
    return False


def _pow2_scaled(x: np.ndarray, top: float) -> tuple[np.ndarray, int]:
    """(x / 2**e, e) for values of ``x`` up to ``top`` in size: ``x`` itself
    and e = 0 while ``top`` lies in [2**-100, 2**100] (or is 0, inf or NaN),
    else e with 2**(e-1) <= top < 2**e.  Dividing by 2**e is exact and brings
    the largest values near 1, so that sums of their squares neither overflow
    nor go subnormal."""
    e = 0 if 2.0**-100 <= top <= 2.0**100 else int(np.frexp(top)[1])
    return (x, 0) if e == 0 else (np.ldexp(x, -e), e)


def _short_gram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(b, b b^T, e): b is the matrix, or its transpose when it has more rows
    than columns, divided by 2**e; singular values of the matrix are those
    of b times 2**e.

    The Gram matrix is a new min(n, p) square array.  ``_pow2_scaled`` gives
    e: 0 where the product is far from overflow and from subnormals, else
    such that the largest Gram entries are near 1.
    Raises ZeroMatrixError when every entry is zero.
    """
    a = values if values.shape[0] <= values.shape[1] else values.T
    top = max(a.max(), -a.min())
    if not np.isfinite(top):  # row centering overflowed
        raise GramOverflow(_OVERFLOW)
    if top == 0.0:
        raise ZeroMatrixError("matrix has zero Frobenius norm; no direction defined")
    b, e = _pow2_scaled(a, top)
    return b, b @ b.T, e


@functools.cache
def _openblas_function(name: str, restype, *argtypes):
    """numpy's OpenBLAS function ``name`` as a ctypes function with this
    signature, or None where it is not found (another BLAS, numpy 1.x).

    dlsym on numpy's own extension module also searches the libraries it
    links, which is where the wheel's OpenBLAS lives.
    """
    import ctypes

    try:
        fn = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (AttributeError, OSError):
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


@functools.cache
def _openblas_thread_calls():
    """(get, set) of numpy's OpenBLAS thread count, or None where not found."""
    import ctypes

    get = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_ = _openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


@functools.cache
def _dsyevr():
    """LAPACK dsyevr of numpy's OpenBLAS (ILP64: 64-bit integers, and the
    lengths of the three string arguments last), or None where not found."""
    import ctypes

    char, i64 = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64)
    f64 = ctypes.POINTER(ctypes.c_double)
    return _openblas_function(
        "scipy_dsyevr_64_", None,
        char, char, char, i64, ctypes.c_void_p, i64, f64, f64, i64, i64, f64, i64,  # JOBZ .. M
        f64, f64, i64, i64, f64, i64, i64, i64, i64,  # W .. INFO
        ctypes.c_size_t, ctypes.c_size_t, ctypes.c_size_t,
    )


def _top_eigenpairs(
    gram: np.ndarray, k: int, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """(mus, s): the k largest eigenvalues of the symmetric ``gram``, in
    descending order, and the eigenvector of the largest (None without
    ``vectors``).  Overwrites ``gram``.

    One dsyevr call asks for eigenpairs n-k+1..n alone, or for their
    eigenvalues alone without ``vectors``; it releases the GIL, so pool
    threads solve at the same time.  A failed call raises
    NumericalDegeneracyError.  Where dsyevr is not found,
    ``np.linalg.eigh`` solves for all n eigenpairs.  Needs k <= n.
    """
    import ctypes

    dsyevr = _dsyevr()
    n = gram.shape[0]
    if dsyevr is None:
        mus, vecs = np.linalg.eigh(gram)
        return mus[::-1][:k], vecs[:, -1] if vectors else None
    gram = np.require(gram, np.float64, ["C", "W"])  # no copy for a Gram product
    size, il, m, info = (ctypes.c_int64(i) for i in (n, n - k + 1, 0, 0))
    lwork, liwork = ctypes.c_int64(26 * n), ctypes.c_int64(10 * n)  # the documented minima
    zero = ctypes.c_double(0.0)  # VL and VU (unused), and ABSTOL (the default)
    w = (ctypes.c_double * n)()
    z = (ctypes.c_double * (k * n if vectors else 1))()  # column-major n x k; JOBZ='N' reads none
    work, iwork = (ctypes.c_double * lwork.value)(), (ctypes.c_int64 * liwork.value)()
    isuppz = (ctypes.c_int64 * (2 * k))()
    ref = ctypes.byref
    dsyevr(
        b"V" if vectors else b"N", b"I", b"L", ref(size), gram.ctypes.data, ref(size),
        ref(zero), ref(zero), ref(il), ref(size), ref(zero), ref(m), w, z, ref(size), isuppz,
        work, ref(lwork), iwork, ref(liwork), ref(info), 1, 1, 1,
    )
    if info.value != 0 or m.value != k:
        raise NumericalDegeneracyError(
            f"eigensolve failed: LAPACK dsyevr gave info={info.value} and {m.value} of {k} eigenpairs"
        )
    mus = np.frombuffer(w, count=k)[::-1]
    return mus, np.frombuffer(z, offset=8 * n * (k - 1)) if vectors else None


def _scale_back(lam: float, e: int) -> float:
    """lam * 2**e, for a value read off the Gram matrix of ``_short_gram``."""
    with np.errstate(over="ignore"):  # reported by the check below
        value = float(np.ldexp(lam, e))
    if not np.isfinite(value):
        raise GramOverflow(_OVERFLOW)
    return value


def leading_singular_triple(x) -> SingularTriple:
    """Top singular triple of a (row-centered) matrix.

    Computed from the top two eigenpairs of the Gram matrix on the smaller
    side: XX^T when n <= p, X^TX when p < n, with X first divided by a
    power of two near its largest entry when that entry is far from 1.
    The top eigenvector gives u (or v); the other vector is X^T u / lam
    (or X v / lam) with lam = ||X^T u|| (or ||X v||).  The second
    eigenvalue gives lam2.

    The joint sign of (u, v) is the row-majority one: (u, v) is flipped so
    that sum_i (Xv)_i >= 0, which no column order changes; on an exact tie,
    so that the first nonzero entry of v is negative.  Raises
    ZeroMatrixError when the matrix is identically zero, GramOverflow when
    the top singular value exceeds the float range, and
    NumericalDegeneracyError when the eigensolve fails.
    """
    values = _unwrap(x)
    b, gram, e = _short_gram(values)
    mus, s = _top_eigenpairs(gram, 2)
    bts = b.T @ s
    lam_b = float(np.linalg.norm(bts))
    if lam_b == 0.0:
        raise ZeroMatrixError("leading eigenvector lies in the null space")
    lam = _scale_back(lam_b, e)
    t = bts / lam_b
    bt = b @ t
    u, v, xv = (s, t, bt) if values.shape[0] <= values.shape[1] else (t, s, bts)

    total = float(xv.sum())
    flip = total < 0.0 if total != 0.0 else _first_nonzero_is_positive(v)
    if flip:
        u, v = -u, -v
    return SingularTriple(
        lam=lam,
        u=u,
        v=v,
        lam2=float(np.ldexp(np.sqrt(np.maximum(0.0, mus[1])), e)),  # roundoff can make mus[1] < 0
        # b^T s = lam_b t holds by construction; b t = lam_b s is what the solve leaves inexact
        residual=float(np.ldexp(np.linalg.norm(bt - lam_b * s), e)),
    )


def rank_vector(x) -> np.ndarray:
    """The ascending order of a vector, ties broken left to right: its
    0-based int64 stable argsort, whose entry k indexes the (k+1)-th
    smallest value."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("rank_vector expects a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise NonFiniteInput("vector contains NaN or infinite entries")
    return np.argsort(v, kind="stable").astype(np.int64, copy=False)


def residual_spectrum(x, k: int) -> tuple[float, float]:
    """Top singular value and the sum of singular values 2..k.

    Read off the top k eigenvalues of the Gram matrix on the smaller side,
    solved as in ``leading_singular_triple``.  The paper's rank-one condition
    sum_{i>=2} lam_i <= sigma sqrt(log p) holds for the noiseless signal Theta:
    an observed matrix's noise alone gives a sum near n sigma sqrt(p) (k = n <= p).
    Eigenvalues driven negative by roundoff are clamped to zero.
    """
    values = _unwrap(x)
    n, p = values.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k must be in [1, min(n, p)] = [1, {min(n, p)}], got {k}")
    _, gram, e = _short_gram(values)
    mus, _ = _top_eigenpairs(gram, k, vectors=False)
    lams = np.sqrt(np.clip(mus, 0.0, None))
    return _scale_back(lams[0], e), _scale_back(lams[1:].sum(), e)
