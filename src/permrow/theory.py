"""Rate theory calculators.

These return the bare minimax-rate formulas with all unspecified constants
set to 1; they are order-of-magnitude diagnostics, not calibrated error
bars.  Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UncenteredEta, ZeroSignal
from .matrix import DEFAULT_TOL


class SnrRegime(Enum):
    WEAK = "weak"
    INTERMEDIATE = "intermediate"
    STRONG = "strong"


@dataclass(frozen=True)
class SignalIndices:
    """Global signal strength t, extreme-component bounds, and noise scale.

    ``beta_r`` bounds the largest component of the leading right singular
    vector and ``beta_l`` the negated smallest one; both sit in (0, 1] and
    are at least p^{-1/2} when derived from a unit vector of length p.
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


def rate_psi(n: int, p) -> float:
    """The rate function sqrt(ln p / n); ``p`` may be real-valued."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p = float(p)
    if p < 2:
        raise ValueError("p must be at least 2")
    return math.sqrt(math.log(p) / n)


def minimax_rate_extreme(
    idx: SignalIndices, n: int, p: int, target: str = "right"
) -> float:
    """Minimax rate (constant 1) for an extreme column or the range.

    First term (beta * t / sqrt(n)) * shrink + sigma * psi(n, p), with
    beta = beta_r, beta_l, or beta_r + beta_l for target 'right', 'left',
    or 'range'.  The shrink factor is the regime-wise simplification of
    min(sigma * sqrt((t^2 + sigma^2 p) n) / t^2, 1): 1 in the weak regime,
    sigma^2 sqrt(pn) / t^2 in the intermediate one, sigma sqrt(n) / t in
    the strong one, so the first term plateaus at beta * sigma exactly
    once t^2 exceeds sigma^2 p.  The three pieces agree at the regime
    boundaries, keeping the rate continuous in t.
    """
    beta = {
        "right": idx.beta_r,
        "left": idx.beta_l,
        "range": idx.beta_r + idx.beta_l,
    }[target]
    tail = idx.sigma * rate_psi(n, p)
    if beta == 0.0:
        return tail
    if idx.t <= 0:
        raise ValueError("t must be positive when beta > 0")
    regime = classify_snr(idx.t, idx.sigma, n, p)
    t2 = idx.t * idx.t
    s2 = idx.sigma * idx.sigma
    if regime is SnrRegime.WEAK:
        shrink = 1.0
    elif regime is SnrRegime.INTERMEDIATE:
        shrink = s2 * math.sqrt(p * n) / t2
    else:
        shrink = idx.sigma * math.sqrt(n) / idx.t
    return beta * idx.t / math.sqrt(n) * shrink + tail


def classify_snr(t: float, sigma: float, n: int, p: int) -> SnrRegime:
    """Weak / intermediate / strong SNR regime of t^2 against sigma^2 sqrt(np)
    and sigma^2 p.  Exact boundaries belong to the lower regime."""
    _check_t_sigma(t, sigma)
    t2 = t * t
    if t2 <= sigma * sigma * math.sqrt(n * p):
        return SnrRegime.WEAK
    if t2 <= sigma * sigma * p:
        return SnrRegime.INTERMEDIATE
    return SnrRegime.STRONG


def linear_signal_indices(a, eta, sigma: float) -> SignalIndices:
    """Indices of a linear growth signal: t = ||a|| ||eta||,
    beta_r = eta_p / ||eta||, beta_l = -eta_1 / ||eta||."""
    a = np.asarray(a, dtype=float).ravel()
    eta = np.asarray(eta, dtype=float).ravel()
    if np.any(np.diff(eta) < 0):
        raise ValueError("eta must be nondecreasing")
    if abs(float(eta.sum())) > DEFAULT_TOL * max(1.0, float(np.abs(eta).sum())):
        raise UncenteredEta("eta components must sum to zero")
    eta_norm = float(np.linalg.norm(eta))
    a_norm = float(np.linalg.norm(a))
    if eta_norm == 0.0 or a_norm == 0.0:
        raise ZeroSignal("a and eta must both have positive norm")
    return SignalIndices(
        t=a_norm * eta_norm,
        beta_r=float(eta[-1]) / eta_norm,
        beta_l=-float(eta[0]) / eta_norm,
        sigma=sigma,
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
    logp = math.log(p)
    psi = rate_psi(n, p)
    s2 = idx.sigma * idx.sigma
    first = s2 * min(
        1.0 / beta**2,
        1.0 / psi**2 + (1.0 / psi) * math.sqrt(p / (n * logp)),
    ) * n * logp
    second = (1.0 - beta**2) / beta**2 * s2 * logp + beta**2 * s2 * p / (1.0 - beta**2)
    return idx.t * idx.t >= first + second
