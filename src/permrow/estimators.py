"""Extreme-column and range estimators.

The spectral estimator projects each row onto the leading right singular
direction v of the row-centered matrix and reads off the extreme scores.
The paper's two-step regression form, a per-row least-squares fit on v read
at its extremes, is that same readout (see ``regression_extremes``).
Direct sorting, rowwise order statistics, and a sort-trim-OLS proxy for
iRep serve as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import floor

import numpy as np

from .errors import InsufficientColumns, NonFiniteEstimate
from .matrix import (
    CenteredMatrix,
    SignConvention,
    SingularTriple,
    _as_matrix,
    center_rows,
    leading_singular_triple,
    rank_vector,
)

DEFAULT_TRIM = 0.05  # the iRep proxy's trim fraction at each end


class EstimatorMethod(Enum):
    SPECTRAL = "spectral"
    REGRESSION = "regression"
    DIRECT_SORTING = "ds"
    ORDER_STATISTIC = "os"
    IREP = "irep"


@dataclass(frozen=True)
class ExtremeEstimates:
    """Per-sample extreme-column and range estimates.

    ``range`` always equals ``theta_r - theta_l`` as computed, when both
    extremes are defined.  ``permutation_hat`` is the 0-based int64 column
    order of the scores ``triple.v``, ties broken left to right.  SVD-free
    methods (order statistic, iRep) carry ``None`` for the spectral fields.
    """

    theta_r: np.ndarray | None
    theta_l: np.ndarray | None
    range: np.ndarray
    permutation_hat: np.ndarray | None
    method: EstimatorMethod
    triple: SingularTriple | None


@dataclass(frozen=True)
class _SpectralContext:
    y: np.ndarray
    centered: CenteredMatrix
    triple: SingularTriple
    order: np.ndarray

    def estimates(self, method: EstimatorMethod, theta_r, theta_l) -> ExtremeEstimates:
        """``method``'s estimates, with range = theta_r - theta_l and this
        context's order and triple."""
        return ExtremeEstimates(
            theta_r=theta_r,
            theta_l=theta_l,
            range=theta_r - theta_l,
            permutation_hat=self.order,
            method=method,
            triple=self.triple,
        )


def _spectral_context(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY, out=None
) -> _SpectralContext:
    """The centered matrix (written into ``out``, as ``center_rows`` takes
    it), its leading triple and the order of v."""
    values = np.asarray(y, dtype=float)
    centered = center_rows(values, out=out)  # validates shape and finiteness
    triple = leading_singular_triple(centered, convention=convention)
    return _SpectralContext(
        y=values, centered=centered, triple=triple, order=rank_vector(triple.v)
    )


def _spectral_from_context(
    ctx: _SpectralContext, method: EstimatorMethod = EstimatorMethod.SPECTRAL
) -> ExtremeEstimates:
    v = ctx.triple.v
    xv = ctx.triple.lam * ctx.triple.u
    theta_r = float(v.max()) * xv + ctx.centered.row_means
    theta_l = float(v.min()) * xv + ctx.centered.row_means
    return ctx.estimates(method, theta_r, theta_l)


def _direct_sorting_from_context(ctx: _SpectralContext) -> ExtremeEstimates:
    order = ctx.order
    theta_r = ctx.y[:, order[-1]].copy()
    theta_l = ctx.y[:, order[0]].copy()
    return ctx.estimates(EstimatorMethod.DIRECT_SORTING, theta_r, theta_l)


def spectral_extremes(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY
) -> ExtremeEstimates:
    """Spectral estimates: theta_r = v_(p) Xv + (1/p) Y e, and the left/range analogues."""
    return _spectral_from_context(_spectral_context(y, convention))


def regression_extremes(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY
) -> ExtremeEstimates:
    """The paper's two-step form: per-row OLS of Y on the scores v, read at
    v_(p) and v_(1), labelled REGRESSION.

    With c = v - mean(v) the OLS slope is X c / (c . c) and the intercept
    the row means less slope * mean(v).  v is a unit vector orthogonal to e
    (X's rows sum to zero), so mean(v) = 0, c . c = 1 and X c = Xv = lam u:
    the fit is the spectral readout, which is what runs here."""
    return _spectral_from_context(_spectral_context(y, convention), EstimatorMethod.REGRESSION)


def direct_sorting_extremes(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY
) -> ExtremeEstimates:
    """Baseline: the observed columns ranked last/first by the score vector."""
    return _direct_sorting_from_context(_spectral_context(y, convention))


def order_statistic_extremes(y) -> ExtremeEstimates:
    """Baseline: rowwise max and min of Y; no SVD involved.  A row whose
    max - min overflows raises NonFiniteEstimate."""
    values = _as_matrix(y, "observation matrix")
    theta_r = values.max(axis=1)
    theta_l = values.min(axis=1)
    with np.errstate(over="ignore"):
        range_ = theta_r - theta_l
    if not np.isfinite(range_).all():
        raise NonFiniteEstimate("a row's max - min overflowed to a non-finite range")
    return ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=range_,
        permutation_hat=None,
        method=EstimatorMethod.ORDER_STATISTIC,
        triple=None,
    )


def irep_range(y, trim_fraction: float = DEFAULT_TRIM) -> np.ndarray:
    """Sort-trim-OLS proxy for the iRep log-PTR estimate, per sample.

    Each row is sorted ascending, ``floor(trim_fraction * p)`` entries are
    dropped from each end, ordinary least squares is fit against the index
    positions of the kept window, and the slope is scaled by (p - 1).

    This is a simplified stand-in for the published piecewise pipeline, kept
    as a benchmarking baseline only.
    """
    if not 0.0 <= trim_fraction < 0.25:
        raise ValueError("trim_fraction must lie in [0, 0.25)")
    values = _as_matrix(np.atleast_2d(y), "observation matrix", min_rows=1)
    p = values.shape[1]
    t = floor(trim_fraction * p)
    if p - 2 * t < 3:
        raise InsufficientColumns(
            f"only {p - 2 * t} columns remain after trimming; need at least 3"
        )
    positions = np.arange(p, dtype=float)[t : p - t]
    x = positions - positions.mean()
    denom = float(x @ x)
    window = np.sort(values, axis=1)[:, t : p - t]
    slopes = window @ x / denom
    return slopes * (p - 1)


def irep_extremes(y, trim_fraction: float = DEFAULT_TRIM) -> ExtremeEstimates:
    """The iRep proxy as estimates: ``irep_range`` per sample, and no
    extremes, scores or permutation."""
    return ExtremeEstimates(
        theta_r=None,
        theta_l=None,
        range=irep_range(y, trim_fraction=trim_fraction),
        permutation_hat=None,
        method=EstimatorMethod.IREP,
        triple=None,
    )
