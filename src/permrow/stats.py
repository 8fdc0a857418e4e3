"""Group-comparison statistics: one-way ANOVA F-test and two-sample t-tests.

P-values go through a self-contained regularized incomplete beta function
(modified Lentz continued fraction, relative tolerance 1e-12, 300-iteration
cap) so that results are bit-reproducible across platforms.  Both tests
read the F upper tail ``f_sf``: a t statistic's two-sided p-value is
P(F_{1, df} >= t^2), the F tail at t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateVariance

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 300
_TINY = 1e-300


class TTestVariant(Enum):
    WELCH = "welch"
    POOLED = "pooled"


@dataclass(frozen=True)
class FTestResult:
    statistic: float
    df1: int
    df2: int
    p_value: float


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: float
    p_value: float


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even and then the odd coefficient of step m, each one Lentz update
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail P(F_{df1, df2} >= f)."""
    if f <= 0.0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def _clean_groups(groups: Sequence) -> list[np.ndarray]:
    """The groups as float arrays, all divided by 2**e with max |x| in
    [2**(e-1), 2**e).

    F, t and the Welch df do not change under a common scale, and dividing by
    a power of two is exact; the sums of squares of values below 1 in size
    cannot overflow.  The groups are scaled even when ``matrix._pow2_scaled``
    would leave them as they are: the statistics square with Python's
    ``x ** 2``, that is libm ``pow``, which does not commute exactly with a
    power-of-two scale, so skipping the scale would change the last bit of
    some F and t values.
    """
    cleaned = []
    for g in groups:
        arr = np.asarray(g, dtype=float).ravel()
        if not np.isfinite(arr).all():
            raise ValueError("group values must be finite")
        cleaned.append(arr)
    top = max((float(np.abs(g).max()) for g in cleaned if g.size), default=0.0)
    e = int(np.frexp(top)[1])
    return [np.ldexp(g, -e) for g in cleaned]


def f_test_oneway(groups: Sequence) -> FTestResult:
    """Classical one-way ANOVA: F = MSB / MSW with df (k-1, N-k)."""
    gs = _clean_groups(groups)
    k = len(gs)
    if k < 2:
        raise ValueError("need at least 2 groups")
    if any(g.size < 2 for g in gs):
        raise ValueError("each group needs at least 2 observations")
    total_n = sum(g.size for g in gs)
    grand = sum(float(g.sum()) for g in gs) / total_n
    ssb = sum(g.size * (float(g.mean()) - grand) ** 2 for g in gs)
    ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in gs)
    df1 = k - 1
    df2 = total_n - k
    msw = ssw / df2
    if msw == 0.0:
        raise DegenerateVariance("within-group variance is zero")
    f = (ssb / df1) / msw
    if math.isinf(f):
        raise DegenerateVariance("within-group variance is too small for a finite F")
    return FTestResult(statistic=f, df1=df1, df2=df2, p_value=f_sf(f, df1, df2))


def t_test_two_sample(
    x, y, variant: TTestVariant = TTestVariant.WELCH
) -> TTestResult:
    """Two-sample t-test, Welch (default) or pooled-variance, two-sided."""
    gx, gy = _clean_groups([x, y])
    nx, ny = gx.size, gy.size
    if nx < 2 or ny < 2:
        raise ValueError("each sample needs at least 2 observations")
    mx, my = float(gx.mean()), float(gy.mean())
    vx = float(((gx - mx) ** 2).sum()) / (nx - 1)
    vy = float(((gy - my) ** 2).sum()) / (ny - 1)
    if variant is TTestVariant.POOLED:
        pooled = ((nx - 1) * vx + (ny - 1) * vy) / (nx + ny - 2)
        se = math.sqrt(pooled * (1.0 / nx + 1.0 / ny))
        if se == 0.0:
            raise DegenerateVariance("pooled variance is zero")
        df = float(nx + ny - 2)
    else:
        a, b = vx / nx, vy / ny
        se = math.sqrt(a + b)
        if se == 0.0:
            raise DegenerateVariance("both sample variances are zero")
        den = a**2 / (nx - 1) + b**2 / (ny - 1)
        if den == 0.0:  # a and b are below about 1e-154
            raise DegenerateVariance("sample variances are too small for a finite Welch df")
        df = (a + b) ** 2 / den
    t = (mx - my) / se  # finite: |mx - my| <= 2 and se >= 2**-537
    return TTestResult(statistic=t, df=df, p_value=f_sf(t * t, 1, df))
