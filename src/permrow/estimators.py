"""Extreme-column and range estimators.

The spectral estimator projects each row onto the leading right singular
direction of the row-centered matrix and reads off the extreme scores; the
regression form fits per-row least squares against the sorted scores and is
numerically identical.  Direct sorting, rowwise order statistics, and a
sort-trim-OLS proxy for iRep serve as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import floor

import numpy as np

from .errors import DegenerateRegressor, InsufficientColumns, NonFiniteEstimate
from .matrix import (
    CenteredMatrix,
    Ranking,
    SignConvention,
    SingularTriple,
    _as_matrix,
    center_rows,
    leading_singular_triple,
    rank_vector,
)


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
    extremes are defined.  SVD-free methods (order statistic, iRep) carry
    ``None`` for the spectral fields.
    """

    theta_r: np.ndarray | None
    theta_l: np.ndarray | None
    range: np.ndarray
    v_max: float | None
    v_min: float | None
    permutation_hat: Ranking | None
    method: EstimatorMethod
    triple: SingularTriple | None


@dataclass(frozen=True)
class _SpectralContext:
    y: np.ndarray
    centered: CenteredMatrix
    triple: SingularTriple
    ranking: Ranking


def _spectral_context(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY, out=None
) -> _SpectralContext:
    """The centered matrix (written into ``out``, as ``center_rows`` takes
    it), its leading triple and the ranking of v."""
    values = np.asarray(y, dtype=float)
    centered = center_rows(values, out=out)  # validates shape and finiteness
    triple = leading_singular_triple(centered, convention=convention)
    return _SpectralContext(
        y=values, centered=centered, triple=triple, ranking=rank_vector(triple.v)
    )


def _spectral_from_context(ctx: _SpectralContext) -> ExtremeEstimates:
    v = ctx.triple.v
    xv = ctx.triple.lam * ctx.triple.u
    v_max = float(v.max())
    v_min = float(v.min())
    theta_r = v_max * xv + ctx.centered.row_means
    theta_l = v_min * xv + ctx.centered.row_means
    return ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        v_max=v_max,
        v_min=v_min,
        permutation_hat=ctx.ranking,
        method=EstimatorMethod.SPECTRAL,
        triple=ctx.triple,
    )


def _regression_from_context(ctx: _SpectralContext) -> ExtremeEstimates:
    order = ctx.ranking.order
    scores = ctx.triple.v[order]
    y_sorted = ctx.y[:, order]
    m = float(scores.mean())
    centered_scores = scores - m
    denom = float(centered_scores @ centered_scores)
    if denom == 0.0:
        raise DegenerateRegressor("all score components are equal")
    row_means = y_sorted.mean(axis=1)
    beta = (y_sorted - row_means[:, None]) @ centered_scores / denom
    alpha = row_means - beta * m
    v_min = float(scores[0])
    v_max = float(scores[-1])
    theta_r = alpha + beta * v_max
    theta_l = alpha + beta * v_min
    return ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        v_max=v_max,
        v_min=v_min,
        permutation_hat=ctx.ranking,
        method=EstimatorMethod.REGRESSION,
        triple=ctx.triple,
    )


def _direct_sorting_from_context(ctx: _SpectralContext) -> ExtremeEstimates:
    order = ctx.ranking.order
    theta_r = ctx.y[:, order[-1]].copy()
    theta_l = ctx.y[:, order[0]].copy()
    v = ctx.triple.v
    return ExtremeEstimates(
        theta_r=theta_r,
        theta_l=theta_l,
        range=theta_r - theta_l,
        v_max=float(v.max()),
        v_min=float(v.min()),
        permutation_hat=ctx.ranking,
        method=EstimatorMethod.DIRECT_SORTING,
        triple=ctx.triple,
    )


def spectral_extremes(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY
) -> ExtremeEstimates:
    """Spectral estimates: theta_r = v_(p) Xv + (1/p) Y e, and the left/range analogues."""
    return _spectral_from_context(_spectral_context(y, convention))


def regression_extremes(
    y, convention: SignConvention = SignConvention.ROW_MAJORITY
) -> ExtremeEstimates:
    """Two-step form: sort columns by the recovered permutation, then per-row OLS
    on the sorted scores.  Numerically identical to ``spectral_extremes``."""
    return _regression_from_context(_spectral_context(y, convention))


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
        v_max=None,
        v_min=None,
        permutation_hat=None,
        method=EstimatorMethod.ORDER_STATISTIC,
        triple=None,
    )


def irep_range(y, trim_fraction: float = 0.05) -> np.ndarray:
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


def irep_extremes(y, trim_fraction: float = 0.05) -> ExtremeEstimates:
    """The iRep proxy as estimates: ``irep_range`` per sample, and no
    extremes, scores or permutation."""
    return ExtremeEstimates(
        theta_r=None,
        theta_l=None,
        range=irep_range(y, trim_fraction=trim_fraction),
        v_max=None,
        v_min=None,
        permutation_hat=None,
        method=EstimatorMethod.IREP,
        triple=None,
    )
