"""Rate theory calculators.

These return the bare minimax-rate formulas with all unspecified constants
set to 1; they are order-of-magnitude diagnostics, not calibrated error
bars.  Logarithms are natural throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .matrix import center_rows, leading_singular_triple


class SnrRegime(Enum):
    WEAK = "weak"
    INTERMEDIATE = "intermediate"
    STRONG = "strong"


@dataclass(frozen=True)
class SignalIndices:
    """Global signal strength t, extreme-component bounds, and noise scale.

    ``beta_r`` bounds the largest component of the leading right singular
    vector and ``beta_l`` the negated smallest one; both must lie in [0, 1].
    """

    t: float
    beta_r: float
    beta_l: float
    sigma: float

    def __post_init__(self):
        _check_t_sigma(self.t, self.sigma)
        if not 0 <= self.beta_r <= 1 or not 0 <= self.beta_l <= 1:
            raise ValueError("beta_r and beta_l must lie in [0, 1]")


def _check_t_sigma(t: float, sigma: float) -> None:
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")


def _check_n_p(n, p) -> None:
    """Raise ValueError unless n >= 1 and p >= 2 are finite and within the
    float range: a larger integer would end in OverflowError where it meets
    a float."""
    if not (abs(n) <= sys.float_info.max and abs(p) <= sys.float_info.max):
        raise ValueError("n and p must be finite and within the float range")
    if n < 1:
        raise ValueError("n must be at least 1")
    if p < 2:
        raise ValueError("p must be at least 2")


def rate_psi(n: int, p) -> float:
    """The rate function sqrt(ln p / n); ``p`` may be real-valued."""
    _check_n_p(n, p)
    return math.sqrt(math.log(float(p)) / n)


def minimax_rate_extreme(
    idx: SignalIndices, n: int, p: int, target: str = "right"
) -> float:
    """Minimax rate (constant 1) for an extreme column or the range.

    First term (beta * t / sqrt(n)) * shrink + sigma * psi(n, p), with
    beta = beta_r, beta_l, or beta_r + beta_l for target 'right', 'left',
    or 'range'.  The shrink factor is the regime-wise simplification of
    min(sigma * sqrt((t^2 + sigma^2 p) n) / t^2, 1): 1 in the weak regime,
    sigma^2 sqrt(pn) / t^2 in the intermediate one, sigma sqrt(n) / t in
    the strong one.  With r = t / sigma the first term is beta t / sqrt(n),
    beta sigma sqrt(p) / r and beta sigma: it plateaus at beta * sigma exactly
    once r^2 exceeds p, and the three pieces agree at the regime boundaries,
    keeping the rate continuous in t.  Computed on r, never on t^2, the rate
    scales with (t, sigma) exactly, and t = 0 gives the tail sigma * psi.
    """
    beta = {
        "right": idx.beta_r,
        "left": idx.beta_l,
        "range": idx.beta_r + idx.beta_l,
    }[target]
    tail = idx.sigma * rate_psi(n, p)
    regime = classify_snr(idx.t, idx.sigma, n, p)
    if regime is SnrRegime.WEAK:
        first = beta * idx.t / math.sqrt(n)
    elif regime is SnrRegime.INTERMEDIATE:
        first = beta * idx.sigma * (math.sqrt(float(p)) / (idx.t / idx.sigma))
    else:
        first = beta * idx.sigma
    return first + tail


def classify_snr(t: float, sigma: float, n: int, p: int) -> SnrRegime:
    """Weak / intermediate / strong SNR regime of t^2 against sigma^2 sqrt(np)
    and sigma^2 p, compared as r^2 = (t / sigma)^2 against sqrt(np) and p, so
    that no square of t or sigma overflows or underflows.  Exact boundaries
    belong to the lower regime."""
    _check_t_sigma(t, sigma)
    _check_n_p(n, p)
    r = t / sigma
    r2 = r * r  # not r ** 2, which raises OverflowError
    if r2 <= math.sqrt(float(n) * p):
        return SnrRegime.WEAK
    if r2 <= p:
        return SnrRegime.INTERMEDIATE
    return SnrRegime.STRONG


def signal_indices(theta, sigma: float) -> SignalIndices:
    """Indices of a noiseless signal Theta, read off the leading singular
    triple of its row-centred matrix: t = lam, beta_r = max v and
    beta_l = -min v, with the row-majority sign that the estimators use.

    For Theta = a eta^T + b with nondecreasing eta, write e = eta - mean(eta):
    when sum(a) > 0 this gives t = ||a|| ||e||, beta_r = e_p / ||e|| and
    beta_l = -e_1 / ||e||.  When sum(a) < 0 the sign points v against eta,
    so beta_r and beta_l swap, as the estimators read theta_R at max v.
    A constant Theta raises ZeroMatrixError.
    """
    triple = leading_singular_triple(center_rows(theta))
    return SignalIndices(
        t=triple.lam, beta_r=float(triple.v.max()), beta_l=-float(triple.v.min()), sigma=sigma
    )


def feasible_condition11(idx: SignalIndices, n: int, p: int) -> bool:
    """Advisory check of the signal-strength condition under which the
    minimax rate statement holds, evaluated with constant 1.

    t^2 >= sigma^2 [1/beta^2 ^ {1/psi^2 + (1/psi) sqrt(p / (n ln p))}] n ln p
           + ((1 - beta^2)/beta^2) sigma^2 ln p + beta^2 sigma^2 p / (1 - beta^2),
    with beta = beta_r.  Requires beta_r strictly inside (0, 1).
    """
    beta = idx.beta_r
    if not 0.0 < beta < 1.0:
        raise ValueError("feasibility check requires beta_r strictly in (0, 1)")
    _check_n_p(n, p)
    logp = math.log(p)
    psi = rate_psi(n, p)
    first = min(
        1.0 / beta**2,
        1.0 / psi**2 + (1.0 / psi) * math.sqrt(p / (n * logp)),
    ) * n * logp
    second = (1.0 - beta**2) / beta**2 * logp + beta**2 * p / (1.0 - beta**2)
    r = idx.t / idx.sigma  # the bound over sigma^2, compared with r^2
    return r * r >= first + second
