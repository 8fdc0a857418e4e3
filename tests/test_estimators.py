import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permrow import (
    AmbiguousDirection,
    EstimatorMethod,
    ExtremeEstimates,
    GramOverflow,
    InsufficientColumns,
    NonFiniteEstimate,
    NonFiniteInput,
    PermrowError,
    ZeroMatrixError,
    direct_sorting_extremes,
    generate_s1,
    generate_s2,
    irep_extremes,
    order_statistic_extremes,
    rng_stream,
    spectral_extremes,
    synthesize_observation,
)
from permrow import estimators
from oracles import exact_ols_slope, regression_two_step
from strategies import NUMBERS, SHAPES, gapped_matrix

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


def assert_is_two_step_fit(y, tol):
    """spectral_extremes(y) is the paper's two-step regression estimate:
    each of thetaR, thetaL and range within ``tol`` of the oracle's."""
    est = spectral_extremes(y)
    reg_r, reg_l = regression_two_step(y)
    for got, want in zip((est.theta_r, est.theta_l, est.range), (reg_r, reg_l, reg_r - reg_l)):
        assert np.abs(got - want).max() <= tol


class TestRegressionEquivalence:
    """spectral_extremes is the paper's two-step regression: the fit on v in
    observed order equals the sort-then-fit of the oracle."""

    def test_simple_example(self):
        assert_is_two_step_fit(Y0, 1e-10)

    def test_random_matrices(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            y = random_growth_observation(rng)
            assert_is_two_step_fit(y, 1e-8 * max(1.0, np.linalg.norm(y)))

    @settings(max_examples=60, deadline=None)
    @given(**SHAPES)
    def test_matches_two_step_oracle_at_every_scale(self, n, p, seed, noise, exponent):
        y = gapped_matrix(n, p, seed, noise, exponent)
        assert_is_two_step_fit(y, 1e-12 * p * np.abs(y).max())

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(53)
        cases = [random_growth_observation(rng, n=n, p=p) for n, p in [(10, 60), (60, 10)] * 25]
        cases += [y[:, rng.permutation(y.shape[1])] for y in cases[:2]]
        for y in cases:
            est = spectral_extremes(y)
            for got, want in zip((est.theta_r, est.theta_l), regression_two_step(y)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_rows_stacked(self):
        assert_is_two_step_fit(np.vstack([np.array([-1.0, 0.0, 1.0]), np.zeros(3), np.zeros(3)]),
                               1e-10)


class TestAmbiguousDirection:
    @pytest.mark.parametrize("tall", [False, True], ids=["n<=p", "p<n"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), exponent=st.sampled_from([0, 500, -500]))
    def test_a_tied_leading_pair_raises(self, tall, data, exponent):
        # one zero-sum rank-one block placed twice, on disjoint rows and
        # columns: lam1 = lam2, so the leading direction is not determined.
        # Integer entries keep the row sums exactly zero.
        k, m = sorted(data.draw(st.lists(st.integers(2, 6), min_size=2, max_size=2, unique=True)),
                      reverse=tall)
        a = np.array(data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float)
        a *= data.draw(st.sampled_from([1.0, -1.0]))
        c = data.draw(st.lists(st.integers(-9, 9), min_size=m - 1, max_size=m - 1))
        c = np.array(c + [-sum(c)], float)
        assume(c.any())
        y = np.zeros((2 * k, 2 * m))
        y[:k, :m] = y[k:, m:] = np.ldexp(np.outer(a, c), exponent)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = y[rng.permutation(2 * k)][:, rng.permutation(2 * m)]
        assert (y.shape[0] > y.shape[1]) == tall
        for estimator in (spectral_extremes, direct_sorting_extremes):
            with pytest.raises(AmbiguousDirection, match="^ambiguous leading direction: lam1 = "):
                estimator(y)


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
        np.testing.assert_allclose(irep_extremes([-1.0, 0.0, 1.0]).range, [2.0])

    def test_constant_row(self):
        np.testing.assert_allclose(irep_extremes([5.0, 5.0, 5.0, 5.0]).range, [0.0])

    @pytest.mark.parametrize("p, t", [(19, 0), (40, 2)])
    def test_matches_exact_normal_equations(self, p, t):
        rng = np.random.default_rng(54)
        row = np.sort(rng.normal(size=p)) + 0.1 * rng.standard_normal(p)
        xs = np.arange(p)[t : p - t]
        ys = np.sort(row)[t : p - t]
        expected = float(exact_ols_slope(xs, ys)) * (p - 1)
        assert irep_extremes(row).range[0] == pytest.approx(expected, abs=1e-10)

    def test_trimming_drops_columns(self):
        with pytest.raises(InsufficientColumns):
            irep_extremes(np.array([1.0, 2.0]))

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
            irep_extremes(y)

    def test_extremes_carry_the_range_only(self):
        y = np.random.default_rng(55).normal(size=(4, 30))
        est = irep_extremes(y)
        # each row's range is that of the row alone, read as one sample
        np.testing.assert_allclose(est.range, [irep_extremes(row).range[0] for row in y])
        assert est.method is EstimatorMethod.IREP
        assert (est.theta_r, est.theta_l) == (None, None)
        assert est.permutation_hat is None and est.triple is None


class TestScoreOrder:
    """``permutation_hat`` is the order of the triple's scores, stored as
    the int64 array; the extreme scores are read off ``triple.v``."""

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(ExtremeEstimates)]
        assert names == ["theta_r", "theta_l", "range", "permutation_hat", "method", "triple"]

    @pytest.mark.parametrize("estimator", [spectral_extremes, direct_sorting_extremes])
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
        (estimators._direct_sorting, EstimatorMethod.DIRECT_SORTING),
    ],
    ids=["spectral", "ds"],
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
        "estimator", [spectral_extremes, direct_sorting_extremes, order_statistic_extremes]
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
        "estimator", [spectral_extremes, direct_sorting_extremes, order_statistic_extremes]
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
        "estimator", [spectral_extremes, direct_sorting_extremes, order_statistic_extremes]
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
        "estimator", [spectral_extremes, direct_sorting_extremes, order_statistic_extremes]
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


class TestFinite:
    """``_finite``, the one check that a public estimator's record is finite."""

    def record(self, **columns):
        finite = dict(theta_r=np.array([1.0, 2.0]), theta_l=np.array([0.0, 1.0]),
                      range=np.array([1.0, 1.0]))
        return ExtremeEstimates(**{**finite, **columns}, permutation_hat=None,
                                method=EstimatorMethod.ORDER_STATISTIC, triple=None)

    def test_finite_record_returned_as_is(self):
        est = self.record()
        assert estimators._finite(lambda: est) is est
        irep = self.record(theta_r=None, theta_l=None)  # None columns are not checked
        assert estimators._finite(lambda: irep) is irep

    @pytest.mark.parametrize(
        "columns, name",
        [
            (dict(theta_r=np.array([np.inf, 2.0])), "thetaR"),
            (dict(theta_l=np.array([0.0, -np.inf])), "thetaL"),
            (dict(range=np.array([np.nan, 1.0])), "range"),
            (dict(theta_r=None, theta_l=None, range=np.array([1.0, np.inf])), "range"),
            # the first non-finite column in CSV order is named
            (dict(theta_l=np.array([np.nan, 1.0]), range=np.array([np.inf, 1.0])), "thetaL"),
        ],
        ids=["thetaR", "thetaL", "range", "irep-range", "first-in-csv-order"],
    )
    def test_names_the_first_non_finite_column(self, columns, name):
        with pytest.raises(NonFiniteEstimate) as exc:
            estimators._finite(lambda: self.record(**columns))
        assert str(exc.value) == f"{name} overflowed to a non-finite value"


PUBLIC_ESTIMATORS = [spectral_extremes, direct_sorting_extremes, order_statistic_extremes,
                     irep_extremes]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 5), p=st.integers(3, 5), data=st.data())
def test_every_public_estimate_finite_or_raises(n, p, data):
    # the library contract: on finite input whose sums, squares or products
    # may overflow, each public estimator returns a record whose defined
    # columns are all finite, or raises a package error
    y = np.array([data.draw(st.lists(NUMBERS, min_size=p, max_size=p)) for _ in range(n)],
                 dtype=float)
    for estimator in PUBLIC_ESTIMATORS:
        # and emits no numpy warning, whatever error state its caller set
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = estimator(y)
            except PermrowError:
                continue
        for column in (est.theta_r, est.theta_l, est.range):
            assert column is None or np.isfinite(column).all(), (estimator.__name__, y)


GRAM_OVERFLOW = (GramOverflow, "matrix entries are too large: its singular values overflow")
RANGE_OVERFLOW = (NonFiniteEstimate, "range overflowed to a non-finite value")


@pytest.mark.parametrize("state", ["warn", "raise"])
@pytest.mark.parametrize(
    "estimator, raised",
    zip(PUBLIC_ESTIMATORS, [GRAM_OVERFLOW] * 2 + [RANGE_OVERFLOW] * 2),
    ids=["spectral", "ds", "os", "irep"],
)
def test_overflowing_range_raises_without_warning(estimator, raised, state):
    # an overflow ends in the package error, not in numpy's warning or
    # FloatingPointError, whatever error state the caller set
    error, message = raised
    y = [[1.7e308, 1.7e308, -1.7e308, -1.7e308], [0.0, 1.0, 2.0, 3.0]]
    with np.errstate(all=state), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            estimator(y)
    assert str(exc.value) == message
