"""Extreme-column and range estimators.

The spectral estimator projects each row onto the leading right singular
direction v of the row-centered matrix and reads off the extreme scores.
The paper's two-step regression form, a per-row least-squares fit on v read
at its extremes, is that same readout (see ``regression_extremes``).
Direct sorting, a baseline, reads the observed columns at the two ends of
the spectral estimate's order and carries that estimate's order and triple,
so one solve serves all three.  Rowwise order statistics and a
sort-trim-OLS proxy for iRep, which solve nothing, are the other baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import floor

import numpy as np

from .errors import InsufficientColumns, NonFiniteEstimate
from .matrix import (
    SingularTriple,
    _as_matrix,
    center_rows,
    leading_singular_triple,
    rank_vector,
)

IREP_TRIM = 0.05  # the iRep proxy's trim fraction at each end


class EstimatorMethod(Enum):
    SPECTRAL = "spectral"
    REGRESSION = "regression"
    DIRECT_SORTING = "ds"
    ORDER_STATISTIC = "os"
    IREP = "irep"


@dataclass(frozen=True)
class ExtremeEstimates:
    """Per-sample extreme-column and range estimates.

    In the log-scale record that every estimator returns, ``range`` equals
    ``theta_r - theta_l`` as computed, when both extremes are defined.  The
    exp-scale copy that ``permrow estimate --exp`` writes holds exp of
    ``theta_r``, ``theta_l`` and ``range``, so its range is the
    peak-to-trough ratio ``theta_r / theta_l`` (to rounding), not their
    difference.  ``permutation_hat`` is the 0-based int64 column order of
    the scores ``triple.v``, ties broken left to right.  SVD-free methods
    (order statistic, iRep) carry ``None`` for the spectral fields.

    Every column that a public estimator's record defines is finite: where
    one is not, the estimator raises ``NonFiniteEstimate`` naming it by its
    CSV name (thetaR, thetaL or range).  ``_finite`` decides this, for
    ``permrow estimate --exp``'s copy too, and runs the estimate with
    numpy's floating-point warnings off: a public estimator emits no numpy
    warning, and whatever ``np.errstate`` the caller set, an overflow ends
    in a ``PermrowError``.
    """

    theta_r: np.ndarray | None
    theta_l: np.ndarray | None
    range: np.ndarray
    permutation_hat: np.ndarray | None
    method: EstimatorMethod
    triple: SingularTriple | None


def _finite(estimate) -> ExtremeEstimates:
    """The record ``estimate()`` returns, run with numpy's floating-point
    errors ignored, when every column it defines is finite; else
    NonFiniteEstimate naming the first column that is not.  The internal
    records that simulation scores are not checked: their risks are."""
    with np.errstate(all="ignore"):
        est = estimate()
    for name, column in (("thetaR", est.theta_r), ("thetaL", est.theta_l), ("range", est.range)):
        if column is not None and not np.isfinite(column).all():
            raise NonFiniteEstimate(f"{name} overflowed to a non-finite value")
    return est


def _spectral_estimate(
    y, method: EstimatorMethod = EstimatorMethod.SPECTRAL, out=None
) -> ExtremeEstimates:
    """The spectral estimates of ``y``, labelled ``method``: Y centred (into
    ``out``, as ``center_rows`` takes it), its leading triple and the order of v."""
    centered = center_rows(y, out=out)  # validates shape and finiteness
    triple = leading_singular_triple(centered)
    xv = triple.lam * triple.u
    theta_r = float(triple.v.max()) * xv + centered.row_means
    theta_l = float(triple.v.min()) * xv + centered.row_means
    return ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        permutation_hat=rank_vector(triple.v),
        method=method,
        triple=triple,
    )


def _direct_sorting(y: np.ndarray, spectral: ExtremeEstimates) -> ExtremeEstimates:
    """Direct sorting on ``spectral``, the spectral estimate of ``y``: the
    observed columns that its order ranks last and first, with its order and triple."""
    order = spectral.permutation_hat
    theta_r = y[:, order[-1]].copy()
    theta_l = y[:, order[0]].copy()
    return replace(
        spectral,
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        method=EstimatorMethod.DIRECT_SORTING,
    )


def spectral_extremes(y) -> ExtremeEstimates:
    """Spectral estimates: theta_r = v_(p) Xv + (1/p) Y e, and the left/range analogues."""
    return _finite(lambda: _spectral_estimate(y))


def regression_extremes(y) -> ExtremeEstimates:
    """The paper's two-step form: per-row OLS of Y on the scores v, read at
    v_(p) and v_(1), labelled REGRESSION.

    With c = v - mean(v) the OLS slope is X c / (c . c) and the intercept
    the row means less slope * mean(v).  v is a unit vector orthogonal to e
    (X's rows sum to zero), so mean(v) = 0, c . c = 1 and X c = Xv = lam u:
    the fit is the spectral readout, which is what runs here."""
    return _finite(lambda: _spectral_estimate(y, EstimatorMethod.REGRESSION))


def direct_sorting_extremes(y) -> ExtremeEstimates:
    """Baseline: the observed columns ranked last/first by the score vector."""
    values = np.asarray(y, dtype=float)
    return _finite(lambda: _direct_sorting(values, _spectral_estimate(values)))


def order_statistic_extremes(y) -> ExtremeEstimates:
    """Baseline: rowwise max and min of Y; no SVD involved.  A row whose
    max - min overflows raises NonFiniteEstimate."""
    values = _as_matrix(y, "observation matrix")
    theta_r = values.max(axis=1)
    theta_l = values.min(axis=1)
    return _finite(lambda: ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        permutation_hat=None,
        method=EstimatorMethod.ORDER_STATISTIC,
        triple=None,
    ))


def irep_extremes(y) -> ExtremeEstimates:
    """Sort-trim-OLS proxy for the iRep log-PTR estimate: a range per
    sample, and no extremes, scores or permutation.

    Each row is sorted ascending, ``floor(IREP_TRIM * p)`` entries are
    dropped from each end, ordinary least squares is fit against the index
    positions of the kept window, and the slope is scaled by (p - 1).

    This is a simplified stand-in for the published piecewise pipeline, kept
    as a benchmarking baseline only.
    """
    values = _as_matrix(np.atleast_2d(y), "observation matrix", min_rows=1)
    p = values.shape[1]
    t = floor(IREP_TRIM * p)
    if p - 2 * t < 3:
        raise InsufficientColumns(
            f"only {p - 2 * t} columns remain after trimming; need at least 3"
        )
    positions = np.arange(p, dtype=float)[t : p - t]
    x = positions - positions.mean()
    denom = float(x @ x)
    window = np.sort(values, axis=1)[:, t : p - t]
    return _finite(lambda: ExtremeEstimates(
        theta_r=None,
        theta_l=None,
        range=window @ x / denom * (p - 1),
        permutation_hat=None,
        method=EstimatorMethod.IREP,
        triple=None,
    ))
