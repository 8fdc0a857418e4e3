import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permrow import (
    SignalIndices,
    SnrRegime,
    ZeroMatrixError,
    center_rows,
    classify_snr,
    feasible_condition11,
    generate_s2,
    leading_singular_triple,
    minimax_rate_extreme,
    rate_psi,
    rng_stream,
    signal_indices,
    synthesize_observation,
)
from strategies import SHAPES, gapped_matrix


class TestRatePsi:
    def test_direct_formula(self):
        assert rate_psi(100, 55) == pytest.approx(math.sqrt(math.log(55) / 100))
        assert rate_psi(100, 55) == pytest.approx(0.2002, abs=5e-4)

    def test_unit_identity_real_p(self):
        assert rate_psi(1, math.e) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_scaling(self):
        for n, p in [(5, 17), (50, 1000), (3, 8)]:
            assert rate_psi(4 * n, p) == pytest.approx(rate_psi(n, p) / 2, rel=1e-14)

    def test_monotonicity(self):
        assert rate_psi(10, 100) < rate_psi(10, 200)
        assert rate_psi(20, 100) < rate_psi(10, 100)


class TestMinimaxRate:
    def test_beta_zero_reduces_to_tail(self):
        idx = SignalIndices(t=5.0, beta_r=0.0, beta_l=0.0, sigma=2.0)
        assert minimax_rate_extreme(idx, 50, 300) == 2.0 * rate_psi(50, 300)

    def test_strong_boundary_symbolic(self):
        # sigma=1, t^2 = p, n = p: the shrink factor simplifies to
        # sqrt((p + p) * n) / p = sqrt(2n/p) = sqrt(2), clipped to 1, so the
        # first term is beta * sqrt(p)/sqrt(p) = beta
        p = 16
        idx = SignalIndices(t=math.sqrt(p), beta_r=1.0, beta_l=1.0, sigma=1.0)
        shrink = min(math.sqrt(2.0 * p / p), 1.0)
        expected = 1.0 * math.sqrt(p) / math.sqrt(p) * shrink + rate_psi(p, p)
        assert minimax_rate_extreme(idx, p, p) == pytest.approx(expected, rel=1e-12)

    def test_strong_snr_plateau(self):
        n, p, sigma, beta = 100, 10_000, 1.0, 0.5
        tail = sigma * rate_psi(n, p)
        values = []
        for t in (1e4, 1e5, 1e6):
            idx = SignalIndices(t=t, beta_r=beta, beta_l=beta, sigma=sigma)
            values.append(minimax_rate_extreme(idx, n, p) - tail)
        # first term tends to beta * sigma as t -> infinity
        assert values[-1] == pytest.approx(beta * sigma, rel=1e-4)
        assert abs(values[-1] - values[-2]) <= 1e-4

    def test_range_uses_beta_sum(self):
        idx = SignalIndices(t=50.0, beta_r=0.3, beta_l=0.2, sigma=1.0)
        r = minimax_rate_extreme(idx, 50, 500, target="right")
        l = minimax_rate_extreme(idx, 50, 500, target="left")
        w = minimax_rate_extreme(idx, 50, 500, target="range")
        tail = rate_psi(50, 500)
        assert (r - tail) + (l - tail) == pytest.approx(w - tail, rel=1e-12)

    def test_nonincreasing_in_t_on_intermediate(self):
        n, p, sigma = 100, 10_000, 1.0
        lo = sigma * (n * p) ** 0.25  # t at the weak/intermediate boundary
        hi = sigma * math.sqrt(p)
        ts = np.linspace(lo * 1.05, hi * 0.95, 30)
        rates = [
            minimax_rate_extreme(SignalIndices(t=t, beta_r=0.4, beta_l=0.4, sigma=sigma), n, p)
            for t in ts
        ]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


# t / sigma in each regime at n = 100, p = 10_000: weak up to sqrt(1000),
# intermediate up to 100, strong beyond
SNR_RATIOS = [
    (0.0, SnrRegime.WEAK), (5.0, SnrRegime.WEAK), (20.0, SnrRegime.WEAK),
    (50.0, SnrRegime.INTERMEDIATE), (90.0, SnrRegime.INTERMEDIATE),
    (150.0, SnrRegime.STRONG), (1e4, SnrRegime.STRONG), (1e30, SnrRegime.STRONG),
]


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
@pytest.mark.parametrize("sigma", [1.0, 0.75])
@pytest.mark.parametrize("ratio, regime", SNR_RATIOS)
def test_rate_scales_exactly_with_t_and_sigma(ratio, regime, sigma, k):
    """Scaling t and sigma by 2**k keeps the regime and scales the rate by
    2**k exactly, however far t**2 or sigma**2 would leave the float range."""
    n, p = 100, 10_000
    t = ratio * sigma
    scaled_t, scaled_sigma = math.ldexp(t, k), math.ldexp(sigma, k)
    assert classify_snr(t, sigma, n, p) is regime
    assert classify_snr(scaled_t, scaled_sigma, n, p) is regime
    for target in ("right", "left", "range"):
        idx = SignalIndices(t=t, beta_r=0.4, beta_l=0.3, sigma=sigma)
        scaled = SignalIndices(t=scaled_t, beta_r=0.4, beta_l=0.3, sigma=scaled_sigma)
        rate = minimax_rate_extreme(idx, n, p, target=target)
        assert minimax_rate_extreme(scaled, n, p, target=target) == math.ldexp(rate, k)


class TestClassifySnr:
    def test_reference_triple(self):
        assert classify_snr(math.sqrt(500), 1.0, 100, 10_000) is SnrRegime.WEAK
        assert classify_snr(math.sqrt(5000), 1.0, 100, 10_000) is SnrRegime.INTERMEDIATE
        assert classify_snr(math.sqrt(20000), 1.0, 100, 10_000) is SnrRegime.STRONG

    def test_collapsed_boundaries_tie_to_weak(self):
        n = p = 64
        assert classify_snr(math.sqrt(n), 1.0, n, p) is SnrRegime.WEAK

    def test_nondecreasing_in_t(self):
        ladder = [SnrRegime.WEAK, SnrRegime.INTERMEDIATE, SnrRegime.STRONG]
        prev = -1
        for t in np.linspace(0.0, 200.0, 400):
            regime = ladder.index(classify_snr(t, 1.0, 50, 2000))
            assert regime >= prev
            prev = regime

    def test_boundaries_match_min_factor_switches(self):
        # the min(.,1) factor saturates exactly where the weak regime ends,
        # and the first term becomes t-free exactly where the strong begins
        n, p, sigma = 25, 400, 1.5
        t_weak = sigma * (n * p) ** 0.25
        shrink = sigma * math.sqrt((t_weak**2 + sigma**2 * p) * n) / t_weak**2
        assert shrink >= 1.0  # still clipped at the weak/intermediate boundary
        t_strong = sigma * math.sqrt(p)
        # beyond the strong boundary the first term approaches beta*sigma
        idx = SignalIndices(t=100 * t_strong, beta_r=1.0, beta_l=1.0, sigma=sigma)
        tail = sigma * rate_psi(n, p)
        assert minimax_rate_extreme(idx, n, p) - tail == pytest.approx(sigma, rel=1e-3)


def _linear_signal(short, long, tall, seed, centred):
    """(a, eta, b) of an n x p Theta = a eta^T + b, n > p when ``tall``:
    a in [0.1, 3], eta nondecreasing in [-5, 10] (centred or not), b in
    [-6, 6], so that centring does not cancel."""
    n, p = (long, short) if tall else (short, long)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 3.0, n)
    eta = np.sort(rng.uniform(-5.0, 10.0, p))
    if centred:
        eta -= eta.mean()
    return a, eta, rng.uniform(-6.0, 6.0, n)[:, None]


# both Gram sides: n <= p solves on X X^T, n > p on X^T X
LINEAR = dict(
    short=st.integers(3, 20),
    long=st.integers(21, 60),
    tall=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    centred=st.booleans(),
)


def _assume_stable_sign(y):
    """Skip data whose row-majority sign is decided by a near-zero sum."""
    assume(abs(leading_singular_triple(center_rows(y)).u.sum()) >= 1e-6)


class TestSignalIndices:
    def test_direct_formula(self):
        idx = signal_indices(np.outer([1.0, 2.0], [-1.0, 0.0, 1.0]), sigma=1.0)
        assert idx.t == pytest.approx(math.sqrt(10))
        assert idx.beta_r == pytest.approx(1 / math.sqrt(2))
        assert idx.beta_l == pytest.approx(1 / math.sqrt(2))
        assert idx.sigma == 1.0

    def test_s1_design(self):
        p = 40
        eta = np.zeros(p)
        eta[0], eta[-1] = -1.0, 1.0
        a = np.array([0.5, 1.5, 2.5])
        idx = signal_indices(np.outer(a, eta) + np.array([[0.0], [3.0], [6.0]]), sigma=1.0)
        assert idx.beta_r == pytest.approx(1 / math.sqrt(2))
        assert idx.beta_l == pytest.approx(1 / math.sqrt(2))
        assert idx.t == pytest.approx(math.sqrt(2) * np.linalg.norm(a))

    @settings(max_examples=100, deadline=None)
    @given(**LINEAR)
    def test_linear_signal_closed_form(self, **draw):
        a, eta, b = _linear_signal(**draw)
        e = eta - eta.mean()
        e_norm = np.linalg.norm(e)
        idx = signal_indices(np.outer(a, eta) + b, sigma=1.0)
        assert idx.t == pytest.approx(np.linalg.norm(a) * e_norm, rel=1e-13)
        assert idx.beta_r == pytest.approx(e[-1] / e_norm, rel=1e-13)
        assert idx.beta_l == pytest.approx(-e[0] / e_norm, rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(**LINEAR)
    def test_negative_slope_sum_swaps_betas(self, **draw):
        # the row-majority sign then points v against eta
        a, eta, b = _linear_signal(**draw)
        idx = signal_indices(np.outer(a, eta) + b, sigma=1.0)
        flipped = signal_indices(np.outer(-a, eta) + b, sigma=1.0)
        assert flipped.t == pytest.approx(idx.t, rel=1e-13)
        assert flipped.beta_r == pytest.approx(idx.beta_l, rel=1e-13)
        assert flipped.beta_l == pytest.approx(idx.beta_r, rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(**SHAPES, perm_seed=st.integers(0, 2**32 - 1))
    def test_column_permutation_and_row_shift_invariance(
        self, n, p, seed, noise, exponent, perm_seed
    ):
        y = gapped_matrix(n, p, seed, noise, exponent)
        _assume_stable_sign(y)
        rng = np.random.default_rng(perm_seed)
        shifts = np.ldexp(rng.uniform(-8.0, 8.0, n), exponent)
        base = signal_indices(y, sigma=2.0)
        for other in (y[:, rng.permutation(p)], y + shifts[:, None]):
            got = signal_indices(other, sigma=2.0)
            assert got.t == pytest.approx(base.t, rel=1e-10)
            assert got.beta_r == pytest.approx(base.beta_r, rel=1e-10)
            assert got.beta_l == pytest.approx(base.beta_l, rel=1e-10)
            assert got.sigma == 2.0

    @settings(max_examples=50, deadline=None)
    @given(**SHAPES, scale=st.sampled_from([2.0**500, 2.0**-500, 2.5, 1e-3, 1e3]))
    def test_positive_scale(self, n, p, seed, noise, exponent, scale):
        y = gapped_matrix(n, p, seed, noise, exponent)
        _assume_stable_sign(y)
        base = signal_indices(y, sigma=1.0)
        scaled = signal_indices(scale * y, sigma=1.0)
        assert scaled.t == pytest.approx(scale * base.t, rel=1e-12)
        assert scaled.beta_r == pytest.approx(base.beta_r, rel=1e-12)
        assert scaled.beta_l == pytest.approx(base.beta_l, rel=1e-12)

    @pytest.mark.parametrize(
        "theta",
        [np.full((3, 5), 2.5), np.outer([0.0, 0.0], [-1.0, 0.0, 1.0]) + [[1.0], [4.0]]],
        ids=["constant", "zero-slope"],
    )
    def test_zero_signal_rejected(self, theta):
        with pytest.raises(ZeroMatrixError):
            signal_indices(theta, sigma=1.0)

    def test_s2_signal_accepted(self):
        # S2's eta = 1..p is not centred and its Theta is log-linear
        rng = rng_stream(5)
        theta = synthesize_observation(generate_s2(20, 200, 3.0, rng), 0.0, None, rng)
        idx = signal_indices(theta, sigma=1.0)
        v = leading_singular_triple(center_rows(theta)).v
        assert idx.t > 0
        assert (idx.beta_r, idx.beta_l) == (v.max(), -v.min())
        assert 0 < idx.beta_r < 1 and 0 < idx.beta_l < 1


class TestFeasibility:
    def test_large_t_feasible_small_t_not(self):
        idx_small = SignalIndices(t=1.0, beta_r=0.5, beta_l=0.5, sigma=1.0)
        idx_large = SignalIndices(t=1e4, beta_r=0.5, beta_l=0.5, sigma=1.0)
        assert not feasible_condition11(idx_small, 50, 1000)
        assert feasible_condition11(idx_large, 50, 1000)

    def test_beta_bounds(self):
        idx = SignalIndices(t=10.0, beta_r=1.0, beta_l=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            feasible_condition11(idx, 50, 1000)


IDX = SignalIndices(t=5.0, beta_r=0.5, beta_l=0.5, sigma=1.0)

# every public function that takes n and p, called at (n, p)
N_P_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda n, p: rate_psi(n, p),
        lambda n, p: classify_snr(1.0, 1.0, n, p),
        lambda n, p: minimax_rate_extreme(IDX, n, p),
        lambda n, p: feasible_condition11(IDX, n, p),
    ],
    ids=["rate_psi", "classify_snr", "minimax_rate_extreme", "feasible_condition11"],
)


@N_P_CALLS
@pytest.mark.parametrize(
    "n, p",
    [(10**400, 10), (10, 10**400), (-(10**400), 10), (10, math.inf), (10, math.nan)],
    ids=["n-1e400", "p-1e400", "n--1e400", "p-inf", "p-nan"],
)
def test_n_p_past_the_float_range_rejected(call, n, p):
    # an integer past the float range used to end in a bare OverflowError
    with pytest.raises(ValueError, match="^n and p must be finite and within the float range$"):
        call(n, p)


@N_P_CALLS
@pytest.mark.parametrize(
    "n, p, message",
    [(0, 100, "n must be at least 1"), (10, 1, "p must be at least 2"), (-1, 100, "n must be at least 1")],
    ids=["n-0", "p-1", "n--1"],
)
def test_n_below_1_or_p_below_2_rejected(call, n, p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(n, p)
