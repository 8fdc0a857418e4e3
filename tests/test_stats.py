import math

import numpy as np
import pytest
from scipy import special, stats as scipy_stats

from permrow import (
    DegenerateVariance,
    TTestVariant,
    f_test_oneway,
    regularized_incomplete_beta,
    t_test_two_sample,
)


class TestIncompleteBeta:
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.5])
    @pytest.mark.parametrize("b", [0.5, 2.0, 7.0])
    def test_matches_scipy(self, a, b):
        for x in np.linspace(0.001, 0.999, 23):
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-12
            )

    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestFTest:
    def test_hand_anova(self):
        # SSB = 6 with df1 = 2, SSW = 6 with df2 = 6, so F = 3
        result = f_test_oneway([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert result.statistic == pytest.approx(3.0, abs=1e-12)
        assert (result.df1, result.df2) == (2, 6)

    def test_p_value_against_scipy(self):
        result = f_test_oneway([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert result.p_value == pytest.approx(
            float(scipy_stats.f.sf(3.0, 2, 6)), abs=1e-10
        )

    def test_identical_means_null(self):
        result = f_test_oneway([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            f_test_oneway([[1.0, 1.0], [2.0, 2.0]])

    def test_one_group(self):
        with pytest.raises(ValueError) as exc:
            f_test_oneway([[1.0, 2.0, 3.0]])
        assert str(exc.value) == "need at least 2 groups"

    def test_nan_value(self):
        with pytest.raises(ValueError) as exc:
            f_test_oneway([[1.0, 2.0, 3.0], [2.0, math.nan, 4.0]])
        assert str(exc.value) == "group values must be finite"

    def test_matches_scipy_oneway(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            groups = [rng.normal(loc=m, size=rng.integers(3, 9)) for m in (0.0, 0.3, 0.6)]
            result = f_test_oneway(groups)
            ref = scipy_stats.f_oneway(*groups)
            assert result.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert result.p_value == pytest.approx(ref.pvalue, abs=1e-10)


class TestTTest:
    def test_pooled_hand_example(self):
        result = t_test_two_sample([1, 2, 3], [2, 3, 4], TTestVariant.POOLED)
        assert result.statistic == pytest.approx(-math.sqrt(1.5), abs=1e-9)
        assert result.df == 4

    def test_equal_samples_null(self):
        result = t_test_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_welch_matches_scipy(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            x = rng.normal(size=rng.integers(4, 12))
            y = rng.normal(loc=0.5, scale=2.0, size=rng.integers(4, 12))
            result = t_test_two_sample(x, y, TTestVariant.WELCH)
            ref = scipy_stats.ttest_ind(x, y, equal_var=False)
            assert result.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert result.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_pooled_matches_scipy(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=8)
        y = rng.normal(size=5)
        result = t_test_two_sample(x, y, TTestVariant.POOLED)
        ref = scipy_stats.ttest_ind(x, y, equal_var=True)
        assert result.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert result.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_p_decreases_with_shift(self):
        rng = np.random.default_rng(74)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        previous = 1.1
        for shift in np.linspace(0.5, 5.0, 10):
            p = t_test_two_sample(x + shift, y).p_value
            assert p < previous
            previous = p

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            t_test_two_sample([1.0, 1.0], [2.0, 2.0])

    @pytest.mark.parametrize(
        "variant, message",
        [(TTestVariant.POOLED, "pooled variance is zero"),
         (TTestVariant.WELCH, "both sample variances are zero")],
        ids=["pooled", "welch"],
    )
    def test_constant_samples_message(self, variant, message):
        with pytest.raises(DegenerateVariance) as exc:
            t_test_two_sample([1, 1, 1], [2, 2], variant)
        assert str(exc.value) == message

    @pytest.mark.parametrize("variant", list(TTestVariant))
    def test_nan_value(self, variant):
        with pytest.raises(ValueError) as exc:
            t_test_two_sample([1.0, math.nan, 3.0], [2.0, 3.0, 4.0], variant)
        assert str(exc.value) == "group values must be finite"


class TestCrossIdentities:
    def test_f_equals_t_squared_for_two_groups(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            x = rng.normal(size=rng.integers(3, 10))
            y = rng.normal(loc=0.4, size=rng.integers(3, 10))
            f = f_test_oneway([x, y])
            t = t_test_two_sample(x, y, TTestVariant.POOLED)
            assert f.statistic == pytest.approx(t.statistic**2, abs=1e-10)
            assert f.p_value == pytest.approx(t.p_value, abs=1e-10)

    def test_location_and_scale_invariance(self):
        rng = np.random.default_rng(76)
        groups = [rng.normal(size=6), rng.normal(loc=1, size=7), rng.normal(size=5)]
        base = f_test_oneway(groups)
        shifted = f_test_oneway([g + 11.0 for g in groups])
        scaled = f_test_oneway([3.0 * g for g in groups])
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-10)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-10)
        tb = t_test_two_sample(groups[0], groups[1], TTestVariant.POOLED)
        ts = t_test_two_sample(3.0 * groups[0], 3.0 * groups[1], TTestVariant.POOLED)
        assert ts.statistic == pytest.approx(tb.statistic, rel=1e-10)

    def test_p_values_in_unit_interval(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            assert 0.0 <= t_test_two_sample(x, y).p_value <= 1.0

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_power_of_two_scale_changes_no_bit(self, k):
        rng = np.random.default_rng(78)
        groups = [rng.normal(size=6), rng.normal(loc=1, size=7), rng.normal(size=5)]
        scaled = [np.ldexp(g, k) for g in groups]
        assert f_test_oneway(scaled) == f_test_oneway(groups)
        for variant in TTestVariant:
            assert t_test_two_sample(*scaled[:2], variant) == t_test_two_sample(
                *groups[:2], variant
            )

