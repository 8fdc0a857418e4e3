import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permrow import (
    EstimatorMethod,
    ExtremeEstimates,
    InsufficientColumns,
    NonFiniteEstimate,
    NonFiniteInput,
    ZeroMatrixError,
    direct_sorting_extremes,
    generate_s1,
    generate_s2,
    irep_extremes,
    irep_range,
    order_statistic_extremes,
    regression_extremes,
    rng_stream,
    spectral_extremes,
    synthesize_observation,
)
from permrow import estimators
from oracles import exact_ols_slope, regression_two_step
from strategies import SHAPES, gapped_matrix

Y0 = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0]])


def random_growth_observation(rng, n=10, p=60, alpha=2.0, sigma=1.0):
    a = rng.uniform(0.1, alpha, n)
    b = rng.uniform(0, 6, n)
    eta = np.sort(rng.normal(size=p))
    eta -= eta.mean()
    theta = np.outer(a, eta) + b[:, None]
    return theta + sigma * rng.standard_normal((n, p))


class TestSpectralExtremes:
    def test_noiseless_closed_form(self):
        est = spectral_extremes(Y0)
        np.testing.assert_allclose(est.theta_r, [1.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(est.theta_l, [-1.0, -2.0], atol=1e-10)
        np.testing.assert_allclose(est.range, [2.0, 4.0], atol=1e-10)
        np.testing.assert_array_equal(est.permutation_hat, [0, 1, 2])

    def test_constant_rows_raise(self):
        with pytest.raises(ZeroMatrixError):
            spectral_extremes([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])

    def test_permuted_input_same_estimates(self):
        perm = np.array([2, 0, 1])  # columns reordered by (3,1,2)
        est = spectral_extremes(Y0)
        est_p = spectral_extremes(Y0[:, perm])
        np.testing.assert_allclose(est_p.theta_r, est.theta_r, atol=1e-10)
        np.testing.assert_allclose(est_p.theta_l, est.theta_l, atol=1e-10)
        np.testing.assert_allclose(est_p.range, est.range, atol=1e-10)
        # recovered order maps observed columns back to the original order
        np.testing.assert_allclose(Y0[:, perm][:, est_p.permutation_hat], Y0, atol=1e-12)

    def test_noiseless_exact_recovery_with_permutation(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n, p = 6, 25
            a = rng.uniform(0.5, 3.0, n)
            b = rng.uniform(0, 6, n)
            eta = np.sort(rng.normal(size=p))
            eta -= eta.mean()
            theta = np.outer(a, eta) + b[:, None]
            pi = rng.permutation(p)
            y = theta[:, np.argsort(pi)]
            est = spectral_extremes(y)
            np.testing.assert_allclose(est.theta_r, theta[:, -1], rtol=0, atol=1e-9)
            np.testing.assert_allclose(est.theta_l, theta[:, 0], rtol=0, atol=1e-9)
            # order statistic k of the scores sits at observed position pi(k)
            np.testing.assert_array_equal(est.permutation_hat, pi)

    @pytest.mark.parametrize("generate", [generate_s1, generate_s2], ids=["S1", "S2"])
    def test_orientation_on_permuted_input(self, generate):
        # the sign of v is fixed by the rows, not by which column comes
        # first, so theta_r and theta_l are not swapped under a permutation:
        # the median range is positive in every replicate
        for r in range(30):
            rng = rng_stream(r)
            y = synthesize_observation(generate(50, 200, 3.0, rng), 1.0, rng.permutation(200), rng)
            assert np.median(spectral_extremes(y).range) > 0.0, r


class TestRegressionEquivalence:
    def test_simple_example(self):
        spec = spectral_extremes(Y0)
        reg = regression_extremes(Y0)
        np.testing.assert_allclose(reg.theta_r, spec.theta_r, atol=1e-10)
        np.testing.assert_allclose(reg.theta_l, spec.theta_l, atol=1e-10)
        np.testing.assert_allclose(reg.range, spec.range, atol=1e-10)

    def test_random_matrices(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            y = random_growth_observation(rng)
            tol = 1e-8 * max(1.0, np.linalg.norm(y))
            spec = spectral_extremes(y)
            reg = regression_extremes(y)
            assert np.abs(reg.theta_r - spec.theta_r).max() <= tol
            assert np.abs(reg.theta_l - spec.theta_l).max() <= tol
            assert np.abs(reg.range - spec.range).max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(**SHAPES)
    def test_is_the_spectral_readout_bit_for_bit(self, n, p, seed, noise, exponent):
        """Only the label differs: the same estimates, order and triple."""

        def parts(est):
            t = est.triple
            return (est.theta_r, est.theta_l, est.range, est.permutation_hat,
                    t.lam, t.u, t.v, t.lam2, t.residual)

        y = gapped_matrix(n, p, seed, noise, exponent)
        spec = spectral_extremes(y)
        reg = regression_extremes(y)
        assert (spec.method, reg.method) == (EstimatorMethod.SPECTRAL, EstimatorMethod.REGRESSION)
        for got, want in zip(map(np.asarray, parts(reg)), map(np.asarray, parts(spec))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_matches_two_step_oracle(self):
        # the fit on v in observed order equals the sort-then-fit of the paper
        rng = np.random.default_rng(53)
        cases = [random_growth_observation(rng, n=n, p=p) for n, p in [(10, 60), (60, 10)] * 25]
        cases += [y[:, rng.permutation(y.shape[1])] for y in cases[:2]]
        for y in cases:
            est = regression_extremes(y)
            for got, want in zip((est.theta_r, est.theta_l), regression_two_step(y)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_rows_stacked(self):
        y = np.vstack([np.array([-1.0, 0.0, 1.0]), np.zeros(3), np.zeros(3)])
        spec = spectral_extremes(y)
        reg = regression_extremes(y)
        np.testing.assert_allclose(reg.theta_r, spec.theta_r, atol=1e-10)
        np.testing.assert_allclose(reg.theta_l, spec.theta_l, atol=1e-10)


class TestDirectSorting:
    def test_noiseless(self):
        est = direct_sorting_extremes(Y0)
        np.testing.assert_allclose(est.theta_r, [1.0, 2.0])
        np.testing.assert_allclose(est.theta_l, [-1.0, -2.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(52)
        y = random_growth_observation(rng, n=8, p=30)
        est = direct_sorting_extremes(y)
        perm = rng.permutation(30)
        est_p = direct_sorting_extremes(y[:, perm])
        np.testing.assert_allclose(est_p.theta_r, est.theta_r, atol=1e-10)
        np.testing.assert_allclose(est_p.theta_l, est.theta_l, atol=1e-10)


class TestOrderStatistic:
    def test_basic(self):
        est = order_statistic_extremes(Y0)
        np.testing.assert_array_equal(est.theta_r, [1.0, 2.0])
        np.testing.assert_array_equal(est.theta_l, [-1.0, -2.0])
        np.testing.assert_array_equal(est.range, [2.0, 4.0])
        assert est.triple is None and est.permutation_hat is None

    def test_constant_row_zero_range(self):
        est = order_statistic_extremes([[3.0, 3.0, 3.0], [1.0, 2.0, 3.0]])
        assert est.range[0] == 0.0

    def test_overflowing_range_raises_without_warning(self):
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise
            with pytest.raises(NonFiniteEstimate, match="max - min overflowed"):
                order_statistic_extremes([[-1.7e308, 1.7e308, 0.0], [1.0, 2.0, 3.0]])

    def test_pure_noise_range_grows_like_sqrt_log_p(self):
        # rowwise max - min of N(0,1) noise scales with sqrt(log p)
        rng = np.random.default_rng(53)
        ratios = []
        for p in (100, 1000, 10000):
            z = rng.standard_normal((400, p))
            mean_range = float((z.max(axis=1) - z.min(axis=1)).mean())
            ratios.append(mean_range / np.sqrt(np.log(p)))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 1.2


class TestIrep:
    # irep trims floor(0.05 p) entries of each end: none below p = 20
    def test_exact_linear_row(self):
        np.testing.assert_allclose(irep_range([-1.0, 0.0, 1.0]), [2.0])

    def test_constant_row(self):
        np.testing.assert_allclose(irep_range([5.0, 5.0, 5.0, 5.0]), [0.0])

    @pytest.mark.parametrize("p, t", [(19, 0), (40, 2)])
    def test_matches_exact_normal_equations(self, p, t):
        rng = np.random.default_rng(54)
        row = np.sort(rng.normal(size=p)) + 0.1 * rng.standard_normal(p)
        xs = np.arange(p)[t : p - t]
        ys = np.sort(row)[t : p - t]
        expected = float(exact_ols_slope(xs, ys)) * (p - 1)
        assert irep_range(row)[0] == pytest.approx(expected, abs=1e-10)

    def test_trimming_drops_columns(self):
        with pytest.raises(InsufficientColumns):
            irep_range(np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "y, error",
        [
            (np.zeros((2, 3, 4)), ValueError),
            (np.zeros((0, 5)), ValueError),
            ([1.0], ValueError),
            (["a", "b", "c"], ValueError),
            ([1.0, np.nan, 2.0], NonFiniteInput),
            ([[1.0, 2.0, 3.0], [0.0, -np.inf, 1.0]], NonFiniteInput),
            (np.zeros((3, 2)), InsufficientColumns),
        ],
        ids=["3-d", "no-rows", "one-column", "strings", "nan", "inf", "two-columns"],
    )
    def test_validation_error_classes(self, y, error):
        with pytest.raises(error):
            irep_range(y)

    def test_extremes_carry_the_range_only(self):
        y = np.random.default_rng(55).normal(size=(4, 30))
        est = irep_extremes(y)
        np.testing.assert_array_equal(est.range, irep_range(y))
        assert est.method is EstimatorMethod.IREP
        assert (est.theta_r, est.theta_l) == (None, None)
        assert est.permutation_hat is None and est.triple is None


class TestScoreOrder:
    """``permutation_hat`` is the order of the triple's scores, stored as
    the int64 array; the extreme scores are read off ``triple.v``."""

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(ExtremeEstimates)]
        assert names == ["theta_r", "theta_l", "range", "permutation_hat", "method", "triple"]

    @pytest.mark.parametrize(
        "estimator", [spectral_extremes, regression_extremes, direct_sorting_extremes]
    )
    def test_read_off_the_triple_and_kept_by_replace(self, estimator):
        est = estimator(random_growth_observation(np.random.default_rng(59)))
        v = est.triple.v
        order = est.permutation_hat
        assert type(order) is np.ndarray and order.dtype == np.int64
        np.testing.assert_array_equal(order, np.argsort(v, kind="stable"))
        assert (v[order[-1]], v[order[0]]) == (v.max(), v.min())
        # the replace that ``estimate --exp`` makes keeps the order and the triple
        exp = dataclasses.replace(
            est, theta_r=np.exp(est.theta_r), theta_l=np.exp(est.theta_l), range=np.exp(est.range)
        )
        assert exp.permutation_hat is order and exp.triple is est.triple

    @pytest.mark.parametrize(
        "estimator", [order_statistic_extremes, irep_extremes], ids=["os", "irep"],
    )
    def test_none_without_a_triple(self, estimator):
        est = estimator(random_growth_observation(np.random.default_rng(60)))
        assert est.triple is None and est.permutation_hat is None
        exp = dataclasses.replace(est, range=np.exp(est.range))
        assert exp.triple is None and exp.permutation_hat is None


@pytest.mark.parametrize(
    "read, method",
    [
        (lambda y, spectral: estimators._spectral_estimate(y), EstimatorMethod.SPECTRAL),
        (
            lambda y, spectral: estimators._spectral_estimate(y, EstimatorMethod.REGRESSION),
            EstimatorMethod.REGRESSION,
        ),
        (estimators._direct_sorting, EstimatorMethod.DIRECT_SORTING),
    ],
    ids=["spectral", "regression", "ds"],
)
def test_spectral_family_built_on_the_spectral_estimate(read, method):
    """Each of the family carries the spectral estimate's order (the order
    of its v) and triple, and each range is its theta_r - theta_l."""
    y = random_growth_observation(np.random.default_rng(61))
    spectral = estimators._spectral_estimate(y)
    est = read(y, spectral)
    assert est.method is method
    np.testing.assert_array_equal(est.permutation_hat, spectral.permutation_hat)
    np.testing.assert_array_equal(est.permutation_hat, np.argsort(est.triple.v, kind="stable"))
    for f in dataclasses.fields(est.triple):
        np.testing.assert_array_equal(getattr(est.triple, f.name), getattr(spectral.triple, f.name))
    np.testing.assert_array_equal(est.range, est.theta_r - est.theta_l)


def _assume_stable_readout(y):
    """Skip data whose estimates jump under roundoff: a row-majority sign
    decided by a near-zero sum, or extreme scores tied with the runners-up,
    which direct sorting reads as columns."""
    t = spectral_extremes(y).triple
    v = np.sort(t.v)
    assume(abs(t.u.sum()) >= 1e-6)
    assume(min(v[-1] - v[-2], v[1] - v[0]) >= 1e-6)


class TestSharedInvariants:
    @pytest.mark.parametrize(
        "estimator",
        [spectral_extremes, regression_extremes, direct_sorting_extremes, order_statistic_extremes],
    )
    def test_column_permutation_invariance(self, estimator):
        rng = np.random.default_rng(55)
        y = random_growth_observation(rng, n=9, p=40)
        base = estimator(y)
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(40)
            other = estimator(y[:, perm])
            np.testing.assert_allclose(other.theta_r, base.theta_r, atol=1e-10)
            np.testing.assert_allclose(other.theta_l, base.theta_l, atol=1e-10)
            np.testing.assert_allclose(other.range, base.range, atol=1e-10)

    @pytest.mark.parametrize(
        "estimator",
        [spectral_extremes, regression_extremes, direct_sorting_extremes, order_statistic_extremes],
    )
    @settings(max_examples=60, deadline=None)
    @given(**SHAPES, shift_seed=st.integers(0, 2**32 - 1))
    def test_row_shift_equivariance(self, estimator, n, p, seed, noise, exponent, shift_seed):
        y = gapped_matrix(n, p, seed, noise, exponent)
        _assume_stable_readout(y)
        shifts = np.ldexp(np.random.default_rng(shift_seed).uniform(-8.0, 8.0, n), exponent)
        base = estimator(y)
        shifted = estimator(y + shifts[:, None])
        atol = 1e-9 * np.abs(y + shifts[:, None]).max()
        np.testing.assert_allclose(shifted.theta_r, base.theta_r + shifts, rtol=0, atol=atol)
        np.testing.assert_allclose(shifted.theta_l, base.theta_l + shifts, rtol=0, atol=atol)
        np.testing.assert_allclose(shifted.range, base.range, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "estimator",
        [spectral_extremes, regression_extremes, direct_sorting_extremes, order_statistic_extremes],
    )
    @settings(max_examples=60, deadline=None)
    @given(**SHAPES, scale=st.sampled_from([2.0**500, 2.0**-500, 2.5, 1e-3, 1e3]))
    def test_positive_scale_equivariance(self, estimator, n, p, seed, noise, exponent, scale):
        # 2**+-500 on top of the 2**+-500 of the data takes _short_gram's rescale
        y = gapped_matrix(n, p, seed, noise, exponent)
        _assume_stable_readout(y)
        base = estimator(y)
        scaled = estimator(scale * y)
        atol = 1e-9 * scale * np.abs(y).max()
        np.testing.assert_allclose(scaled.theta_r, scale * base.theta_r, rtol=0, atol=atol)
        np.testing.assert_allclose(scaled.theta_l, scale * base.theta_l, rtol=0, atol=atol)
        np.testing.assert_allclose(scaled.range, scale * base.range, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "estimator",
        [spectral_extremes, regression_extremes, direct_sorting_extremes, order_statistic_extremes],
    )
    def test_range_identity(self, estimator):
        rng = np.random.default_rng(58)
        y = random_growth_observation(rng, n=5, p=20)
        est = estimator(y)
        np.testing.assert_array_equal(est.range, est.theta_r - est.theta_l)
        assert est.theta_r is not None
        if est.triple is not None:
            v, order = est.triple.v, est.permutation_hat
            assert v[order[0]] <= v[order[-1]]
