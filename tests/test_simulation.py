import numpy as np
import pytest

from permrow import (
    InvalidScenario,
    LengthMismatch,
    NonFiniteInput,
    PermutationKind,
    ScenarioKind,
    ScenarioSpec,
    empirical_risk,
    generate_s1,
    generate_s2,
    rng_stream,
    run_monte_carlo,
    splitmix64,
    synthesize_observation,
    trial_seed,
)


class TestSeeding:
    def test_splitmix64_is_pinned(self):
        # reference values from the splitmix64 test vector (seed 0x1234567)
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(42, r) for r in range(1000)}
        assert len(seeds) == 1000

    def test_streams_reproducible(self):
        a = rng_stream(trial_seed(7, 3)).standard_normal(5)
        b = rng_stream(trial_seed(7, 3)).standard_normal(5)
        np.testing.assert_array_equal(a, b)


class TestGenerators:
    def test_s1_structure(self):
        signal, truth = generate_s1(4, 7, 3.0, rng_stream(1))
        theta = truth.theta
        np.testing.assert_allclose(theta[:, 0], signal.b - signal.a)
        np.testing.assert_allclose(theta[:, -1], signal.b + signal.a)
        for j in range(1, 6):
            np.testing.assert_allclose(theta[:, j], signal.b)
        np.testing.assert_allclose(truth.range, 2 * signal.a)
        assert np.all((signal.a >= 0) & (signal.a <= 3.0))
        assert np.all((signal.b >= 0) & (signal.b <= 6.0))

    def test_s1_alpha_to_zero_degenerates(self):
        signal, truth = generate_s1(3, 5, 1e-12, rng_stream(2))
        assert np.abs(truth.range).max() <= 2e-12

    def test_s1_deterministic(self):
        _, t1 = generate_s1(3, 5, 2.0, rng_stream(trial_seed(9, 0)))
        _, t2 = generate_s1(3, 5, 2.0, rng_stream(trial_seed(9, 0)))
        np.testing.assert_array_equal(t1.theta, t2.theta)

    def test_s2_direct_formula(self):
        # a=1, b=0 would give row (log2, log3, log4) with range log2
        theta, truth = generate_s2(2, 3, 1.0, rng_stream(3))
        a = None
        # reproduce the draws to check the formula entrywise
        rng = rng_stream(3)
        a = rng.uniform(0, 1.0, 2)
        b = rng.uniform(0, 6.0, 2)
        expected = np.log1p(a[:, None] * np.arange(1, 4)[None, :] + b[:, None])
        np.testing.assert_allclose(theta, expected)
        np.testing.assert_allclose(
            truth.range, np.log1p(3 * a + b) - np.log1p(a + b), atol=1e-12
        )

    def test_s2_exact_values(self):
        row = np.log1p(1.0 * np.arange(1, 4) + 0.0)
        np.testing.assert_allclose(row, [np.log(2), np.log(3), np.log(4)])

    def test_s2_rows_nondecreasing(self):
        for seed in range(100):
            theta, _ = generate_s2(5, 20, 3.0, rng_stream(seed))
            assert np.all(np.diff(theta, axis=1) >= 0)

    def test_s1_rows_monotone(self):
        for seed in range(50):
            _, truth = generate_s1(5, 12, 3.0, rng_stream(seed))
            assert np.all(np.diff(truth.theta, axis=1) >= 0)


class TestSynthesize:
    def test_noiseless_identity(self):
        theta = np.arange(12.0).reshape(3, 4)
        y = synthesize_observation(theta, 0.0, None, rng_stream(0))
        np.testing.assert_array_equal(y, theta)

    def test_permutation_roundtrip(self):
        theta = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        pi = np.array([2, 0, 1])
        y = synthesize_observation(theta, 0.0, pi, rng_stream(0))
        # column pi(j) of y is column j of theta
        np.testing.assert_array_equal(y[:, pi], theta)

    def test_noise_moments(self):
        theta = np.zeros((100, 100))
        y = synthesize_observation(theta, 1.0, None, rng_stream(11))
        assert abs(y.mean()) <= 3e-2
        assert abs(y.var() - 1.0) <= 0.05


class TestEmpiricalRisk:
    def test_zero_iff_equal(self):
        x = np.array([1.0, 2.0, 3.0])
        assert empirical_risk(x, x) == 0.0
        assert empirical_risk(x, x + 1e-3) > 0.0

    def test_arithmetic(self):
        assert empirical_risk([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5 / np.sqrt(2))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(13)
        e, t = rng.normal(size=100), rng.normal(size=100)
        expected = np.sqrt(sum((a - b) ** 2 for a, b in zip(e, t)) / 100)
        assert empirical_risk(e, t) == pytest.approx(expected, abs=1e-12)

    def test_align_takes_minimum(self):
        truth = np.array([1.0, 1.0])
        worse = np.array([5.0, 5.0])
        better = np.array([1.5, 1.5])
        risk = empirical_risk(worse, truth, align=True, counterpart=better)
        assert risk == empirical_risk(better, truth)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            empirical_risk([1.0], [1.0, 2.0])


class TestMonteCarlo:
    def spec(self, **kw):
        base = dict(
            kind=ScenarioKind.S1,
            n=5,
            p=20,
            alpha=3.0,
            sigma=0.0,
            permutation=PermutationKind.UNIFORM_RANDOM,
            seed=99,
        )
        base.update(kw)
        return ScenarioSpec(**base)

    def test_noiseless_risks_zero(self):
        report = run_monte_carlo(self.spec(), estimators=("spectral",), reps=1)
        for target in ("thetaR", "thetaL", "range"):
            assert report.summary("spectral", target).risks[0] <= 1e-10

    def test_deterministic_reruns(self):
        spec = self.spec(sigma=1.0)
        r1 = run_monte_carlo(spec, reps=8)
        r2 = run_monte_carlo(spec, reps=8)
        for s1, s2 in zip(r1.summaries, r2.summaries):
            np.testing.assert_array_equal(s1.risks, s2.risks)
        assert r1.to_json() == r2.to_json()

    def test_thread_count_irrelevant(self):
        spec = self.spec(sigma=0.5)
        r1 = run_monte_carlo(spec, reps=8, threads=1)
        r4 = run_monte_carlo(spec, reps=8, threads=4)
        assert r1.to_json() == r4.to_json()

    def test_failed_replicates_recorded(self):
        # zero slopes make the centered matrix exactly zero
        spec = self.spec(
            kind=ScenarioKind.CUSTOM_LINEAR,
            sigma=0.0,
            a=(0.0,) * 5,
            eta=(-1.0, 0.0, 0.0, 0.0, 1.0),
            b=(1.0, 2.0, 3.0, 4.0, 5.0),
            p=5,
        )
        report = run_monte_carlo(spec, estimators=("spectral",), reps=3)
        assert len(report.failed_replicates) == 3
        assert np.isnan(report.summary("spectral", "range").risks).all()

    def test_irep_only_range(self):
        report = run_monte_carlo(
            self.spec(sigma=0.5), estimators=("irep",), reps=2
        )
        assert [(s.estimator, s.target) for s in report.summaries] == [("irep", "range")]

    def test_spec_json_roundtrip(self):
        spec = self.spec(sigma=2.0, permutation=PermutationKind.IDENTITY)
        again = ScenarioSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_report_csv_layout(self, tmp_path):
        report = run_monte_carlo(self.spec(sigma=0.5), reps=3)
        path = tmp_path / "risks.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,target,replicate,risk"
        assert len(lines) == 1 + 3 * 3 * 3  # 3 estimators x 3 targets x 3 reps

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(self.spec(), estimators=("bogus",), reps=1)

    def test_risk_decreases_with_n(self):
        # statistical sanity at desk scale: larger n helps the proposed estimator
        means = []
        for n in (10, 40):
            spec = ScenarioSpec(
                kind=ScenarioKind.S1, n=n, p=200, alpha=3.0, sigma=1.0, seed=5
            )
            report = run_monte_carlo(spec, estimators=("spectral",), reps=40, threads=4)
            means.append(report.summary("spectral", "range").mean)
        assert means[1] < means[0]


class TestScenarioValidation:
    BASE = {"kind": "S1", "n": 10, "p": 50}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidScenario, match="sigmma"):
            ScenarioSpec.from_json_dict({**self.BASE, "sigmma": 5})

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidScenario, match="kind"):
            ScenarioSpec.from_json_dict({"n": 10, "p": 50})

    def test_malformed_value_rejected(self):
        for bad in ({"n": float("inf")}, {"a": 5}, {"kind": "S9"}):
            with pytest.raises(InvalidScenario):
                ScenarioSpec.from_json_dict({**self.BASE, **bad})

    @pytest.mark.parametrize("field", ["alpha", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_alpha_sigma_rejected(self, field, value):
        with pytest.raises(NonFiniteInput):
            ScenarioSpec.from_json_dict({**self.BASE, field: value})

    def test_given_permutation_must_be_a_permutation(self):
        for given in ((0,) * 50, tuple(range(49)), tuple(range(1, 51))):
            with pytest.raises(InvalidScenario):
                ScenarioSpec(
                    kind=ScenarioKind.S1,
                    n=10,
                    p=50,
                    permutation=PermutationKind.GIVEN,
                    given_permutation=given,
                )
        ok = ScenarioSpec(
            kind=ScenarioKind.S1,
            n=10,
            p=50,
            permutation=PermutationKind.GIVEN,
            given_permutation=tuple(reversed(range(50))),
        )
        assert ok.given_permutation[0] == 49

    def test_custom_linear_lengths_checked(self):
        with pytest.raises(LengthMismatch):
            ScenarioSpec(
                kind=ScenarioKind.CUSTOM_LINEAR,
                n=3,
                p=4,
                a=(1.0, 2.0),
                eta=(-1.0, 0.0, 0.0, 1.0),
                b=(0.0, 0.0, 0.0),
            )
