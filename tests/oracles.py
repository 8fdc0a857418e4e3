"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: centering via an
explicit projection-matrix product, eigendecomposition via hand-rolled
cyclic Jacobi rotations, ranking via lexicographic sorting, least squares
via exact rational normal equations, the regression estimate via the
paper's sort-then-fit steps, coverage CSV parsing via one
``float()`` call per cell, a Monte Carlo replicate via the whole n x p
signal matrix, whose columns are then permuted, and the minimax rate via
the earlier regime-wise dispatch, which holds for n <= p.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from permrow import (
    CoverageTable,
    DimensionMismatch,
    DuplicateSampleId,
    LinearGrowthSignal,
    ParseError,
    PermutationKind,
    ScenarioKind,
    rate_psi,
    spectral_extremes,
)


def centering_oracle(y: np.ndarray) -> np.ndarray:
    """Y (I - ee^T/p) by explicit matrix product."""
    p = y.shape[1]
    projector = np.eye(p) - np.ones((p, p)) / p
    return y @ projector


def jacobi_eigh(a: np.ndarray, sweeps: int = 100, tol: float = 1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in descending order and the matching eigenvector
    columns.  O(n^3 * sweeps); test-sized matrices only.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    vecs = np.eye(n)
    scale = np.abs(a).max() or 1.0
    for _ in range(sweeps):
        off = np.sqrt(sum(a[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= tol * scale:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                if a[i, j] == 0.0:
                    continue
                # classic Jacobi rotation annihilating a[i, j]
                theta = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], vecs[:, order]


def order_oracle(x: np.ndarray) -> list[int]:
    """0-based ascending order by lexicographic (value, index) sort."""
    return [index for _, index in sorted((value, index) for index, value in enumerate(x))]


def exact_ols_slope(x_values, y_values) -> Fraction:
    """Simple-regression slope via normal equations in exact rationals."""
    xs = [Fraction(float(v)) for v in x_values]
    ys = [Fraction(float(v)) for v in y_values]
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(v * v for v in xs)
    sxy = sum(a * b for a, b in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def regression_two_step(y) -> tuple[np.ndarray, np.ndarray]:
    """The paper's two-step regression estimate (theta_r, theta_l): Y's
    columns sorted by the order of the spectral scores v, each row
    centred again and fit by OLS on the sorted scores, read at the last
    and first of them."""
    spec = spectral_extremes(y)
    order = spec.permutation_hat
    scores = spec.triple.v[order]
    y_sorted = np.asarray(y, dtype=float)[:, order]
    m = float(scores.mean())
    centered_scores = scores - m
    row_means = y_sorted.mean(axis=1)
    beta = (y_sorted - row_means[:, None]) @ centered_scores / float(centered_scores @ centered_scores)
    alpha = row_means - beta * m
    return alpha + beta * float(scores[-1]), alpha + beta * float(scores[0])


def load_coverage_csv_per_cell(path) -> CoverageTable:
    """The coverage loader with one ``float()`` and ``math.isfinite`` per cell.

    Same checks, order and messages as ``permrow.load_coverage_csv``, except
    that ``csv.reader`` reads every record here: every field is held to its
    length limit, and its ``csv.Error`` is raised as it is.  A message echoes
    a cell or an id whole when its repr has at most 100 bytes in UTF-8, and
    else the whole characters of the repr's first 100 bytes, then "…" and the
    repr's length in characters.
    """

    def echo(text: str) -> str:
        quoted = repr(text)
        data = quoted.encode("utf-8")  # a repr escapes lone surrogates
        if len(data) > 100:
            quoted = data[:100].decode("utf-8", "ignore") + "… (" + str(len(quoted)) + " characters)"
        return quoted

    def parse_cell(cell: str, row: int, col: int) -> float:
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(row, col, f"cannot parse {echo(cell)} as a number") from None
        if not math.isfinite(value):
            raise ParseError(row, col, f"non-finite value {echo(cell)}")
        return value

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch("file is empty; a header row is required") from None
        p = len(header) - 1
        if p < 2:
            raise DimensionMismatch("need at least 2 position columns")
        ids: list[str] = []
        rows: list[list[float]] = []
        for i, record in enumerate(reader, start=2):
            if len(record) != p + 1:
                raise DimensionMismatch(
                    f"row {i} has {len(record)} fields, expected {p + 1}"
                )
            sample_id = record[0]
            if sample_id in ids:
                raise DuplicateSampleId(f"duplicate sample id {echo(sample_id)} at row {i}")
            ids.append(sample_id)
            rows.append([parse_cell(c, i, j) for j, c in enumerate(record[1:], start=2)])
    if len(rows) < 2:
        raise DimensionMismatch("need at least 2 sample rows")
    return CoverageTable(sample_ids=tuple(ids), values=np.array(rows, dtype=float))


def signal_matrix(signal) -> np.ndarray:
    """The whole n x p matrix of a ``LinearGrowthSignal``, in original
    column order: a_i eta_j + b_i, or its log1p for a ``log`` signal."""
    theta = signal.a[:, None] * signal.eta[None, :] + signal.b[:, None]
    return np.log1p(theta) if signal.log else theta


def composed_replicate(spec, rng):
    """A Monte Carlo replicate's (Y, (theta_r, theta_l, range)), drawn
    from ``rng`` in the replicate's order (slopes, intercepts, permutation,
    noise) and built through the whole n x p signal: its columns are
    permuted with ``np.take`` and the scaled noise is added to a new array.
    """
    n, p = spec.n, spec.p
    log = spec.kind is ScenarioKind.S2
    if spec.kind is ScenarioKind.CUSTOM_LINEAR:
        a, eta, b = (np.array(x, dtype=float) for x in (spec.a, spec.eta, spec.b))
    else:
        a = rng.uniform(0.0, spec.alpha, n)
        b = rng.uniform(0.0, 6.0, n)
        eta = np.arange(1.0, p + 1) if log else np.concatenate([[-1.0], np.zeros(p - 2), [1.0]])
    theta = signal_matrix(LinearGrowthSignal(a, eta, b, log))
    if spec.permutation is PermutationKind.IDENTITY:
        pi = None
    elif spec.permutation is PermutationKind.UNIFORM_RANDOM:
        pi = rng.permutation(p)
    else:
        pi = np.array(spec.given_permutation)
    y = theta if pi is None else np.take(theta, np.argsort(pi), axis=1)
    if spec.sigma > 0:
        y = y + spec.sigma * rng.standard_normal((n, p))
    return y, (theta[:, -1], theta[:, 0], theta[:, -1] - theta[:, 0])


def regime_wise_rate(idx, n: int, p: int, target: str) -> tuple[str, float]:
    """(regime label, minimax rate) by the earlier three-way dispatch: the
    regime from r^2 = (t / sigma)^2 against sqrt(np) and p, and then that
    regime's piece of the first term, beta t / sqrt(n), beta sigma sqrt(p) / r
    or beta sigma, plus the tail sigma psi.  The reference for n <= p only:
    for n > p it labels sqrt(np) < r^2 <= n strong and jumps there."""
    beta = {"right": idx.beta_r, "left": idx.beta_l, "range": idx.beta_r + idx.beta_l}[target]
    tail = idx.sigma * rate_psi(n, p)
    r = idx.t / idx.sigma
    if r * r <= math.sqrt(float(n) * p):
        return "weak", beta * idx.t / math.sqrt(n) + tail
    if r * r <= p:
        return "intermediate", beta * idx.sigma * (math.sqrt(float(p)) / r) + tail
    return "strong", beta * idx.sigma + tail
