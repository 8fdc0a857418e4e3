import collections
import copy
import dataclasses
import importlib
import json
import os
import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings

from permrow import (
    InvalidScenario,
    LengthMismatch,
    LinearGrowthSignal,
    NonFiniteEstimate,
    NonFiniteInput,
    PermrowError,
    PermutationKind,
    ScenarioKind,
    RiskSummary,
    ScenarioSpec,
    direct_sorting_extremes,
    empirical_risk,
    generate_s1,
    generate_s2,
    irep_extremes,
    order_statistic_extremes,
    rng_stream,
    run_monte_carlo,
    spectral_extremes,
    synthesize_observation,
    trial_seed,
)
from permrow import estimators, matrix, simulation
from permrow.matrix import _one_blas_thread, _openblas, center_rows
from permrow.simulation import splitmix64

from oracles import composed_replicate, regression_two_step, signal_matrix
from strategies import scenario_specs

BLAS = _openblas() and _openblas()[1:]  # (get, set) of the thread count, or None
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS thread calls not found")


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
        signal = generate_s1(4, 7, 3.0, rng_stream(1))
        assert not signal.log
        np.testing.assert_array_equal(signal.eta, [-1.0, 0, 0, 0, 0, 0, 1.0])
        theta = signal_matrix(signal)
        np.testing.assert_allclose(theta[:, 0], signal.b - signal.a)
        np.testing.assert_allclose(theta[:, -1], signal.b + signal.a)
        for j in range(1, 6):
            np.testing.assert_allclose(theta[:, j], signal.b)
        np.testing.assert_allclose(theta[:, -1] - theta[:, 0], 2 * signal.a)
        assert np.all((signal.a >= 0) & (signal.a <= 3.0))
        assert np.all((signal.b >= 0) & (signal.b <= 6.0))

    def test_s1_alpha_to_zero_degenerates(self):
        theta = signal_matrix(generate_s1(3, 5, 1e-12, rng_stream(2)))
        assert np.abs(theta[:, -1] - theta[:, 0]).max() <= 2e-12

    @pytest.mark.parametrize("generate, kind", [(generate_s1, "S1"), (generate_s2, "S2")])
    def test_needs_three_columns(self, generate, kind):
        with pytest.raises(ValueError) as exc:
            generate(3, 2, 1.0, rng_stream(1))
        assert str(exc.value) == f"{kind} requires p >= 3"

    @pytest.mark.parametrize("generate", [generate_s1, generate_s2])
    def test_deterministic(self, generate):
        s1 = generate(3, 5, 2.0, rng_stream(trial_seed(9, 0)))
        s2 = generate(3, 5, 2.0, rng_stream(trial_seed(9, 0)))
        for field in ("a", "eta", "b"):
            assert getattr(s1, field).tobytes() == getattr(s2, field).tobytes()

    def test_s2_direct_formula(self):
        # a=1, b=0 would give row (log2, log3, log4) with range log2
        signal = generate_s2(2, 3, 1.0, rng_stream(3))
        assert signal.log
        # reproduce the draws to check the formula entrywise
        rng = rng_stream(3)
        a = rng.uniform(0, 1.0, 2)
        b = rng.uniform(0, 6.0, 2)
        expected = np.log1p(a[:, None] * np.arange(1, 4)[None, :] + b[:, None])
        theta = signal_matrix(signal)
        np.testing.assert_allclose(theta, expected)
        np.testing.assert_allclose(
            theta[:, -1] - theta[:, 0], np.log1p(3 * a + b) - np.log1p(a + b), atol=1e-12
        )

    def test_s2_exact_values(self):
        row = np.log1p(1.0 * np.arange(1, 4) + 0.0)
        np.testing.assert_allclose(row, [np.log(2), np.log(3), np.log(4)])

    def test_s2_rows_nondecreasing(self):
        for seed in range(100):
            theta = signal_matrix(generate_s2(5, 20, 3.0, rng_stream(seed)))
            assert np.all(np.diff(theta, axis=1) >= 0)

    def test_s1_rows_monotone(self):
        for seed in range(50):
            theta = signal_matrix(generate_s1(5, 12, 3.0, rng_stream(seed)))
            assert np.all(np.diff(theta, axis=1) >= 0)


class TestSynthesize:
    @pytest.mark.parametrize("log", [False, True])
    def test_noiseless_identity(self, log):
        rng = np.random.default_rng(2)
        signal = LinearGrowthSignal(
            a=rng.uniform(0, 3, 3), eta=np.sort(rng.uniform(-1, 5, 4)), b=rng.uniform(3, 6, 3), log=log
        )
        drawn = rng_stream(0)
        y = synthesize_observation(signal, 0.0, None, drawn)
        assert y.tobytes() == signal_matrix(signal).tobytes()
        assert drawn.bytes(16) == rng_stream(0).bytes(16)  # sigma == 0 draws nothing

    def test_permutation_roundtrip(self):
        signal = LinearGrowthSignal(
            a=np.array([1.0, 1.0]), eta=np.array([1.0, 2.0, 3.0]), b=np.array([0.0, 3.0])
        )
        pi = np.array([2, 0, 1])
        y = synthesize_observation(signal, 0.0, pi, rng_stream(0))
        # column pi(j) of y is column j of theta
        np.testing.assert_array_equal(y[:, pi], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_noise_moments(self):
        signal = LinearGrowthSignal(a=np.zeros(100), eta=np.zeros(100), b=np.zeros(100))
        y = synthesize_observation(signal, 1.0, None, rng_stream(11))
        assert abs(y.mean()) <= 3e-2
        assert abs(y.var() - 1.0) <= 0.05

    def test_negative_sigma_rejected(self):
        signal = generate_s1(3, 5, 1.0, rng_stream(0))
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            synthesize_observation(signal, -1.0, None, rng_stream(0))

    def test_permuted_output_is_c_ordered(self):
        """The Gram product rounds by memory layout, so a Fortran-ordered Y
        would give other last digits than the same values in C order."""
        rng = np.random.default_rng(17)
        signal = generate_s1(30, 200, 3.0, rng_stream(4))
        y = synthesize_observation(signal, 1.0, rng.permutation(200), rng_stream(5))
        assert y.flags.c_contiguous
        got, want = spectral_extremes(y), spectral_extremes(y.copy(order="C"))
        for field in ("theta_r", "theta_l", "range"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("permutation", list(PermutationKind))
@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_replicate_matches_public_composition(kind, permutation, sigma):
    """The replicate builds Y in observed column order and the truth at the
    end columns only; both keep the bytes of the whole-signal reference."""
    n, p = 9, 37
    rng = np.random.default_rng(5)
    spec = ScenarioSpec(
        kind=kind, n=n, p=p, alpha=3.0, sigma=sigma, permutation=permutation, seed=3,
        given_permutation=(
            tuple(rng.permutation(p).tolist()) if permutation is PermutationKind.GIVEN else None
        ),
        **(dict(a=tuple(rng.uniform(0, 3, n)), eta=tuple(rng.normal(size=p)),
                b=tuple(rng.uniform(0, 6, n))) if kind is ScenarioKind.CUSTOM_LINEAR else {}),
    )
    # reused across replicates, as a worker thread does; NaN shows a stale entry
    buffers = (np.full((n, p), np.nan), np.full((n, p), np.nan))
    for r in range(3):
        built_rng, composed_rng, buffered_rng = (
            rng_stream(trial_seed(spec.seed, r)) for _ in range(3)
        )
        y, truth = simulation._generate_replicate(spec, built_rng)
        y_ref, truth_ref = composed_replicate(spec, composed_rng)
        assert y.tobytes() == y_ref.tobytes()
        for got, want in zip(truth, truth_ref, strict=True):
            assert got.tobytes() == want.tobytes()
        after = built_rng.bytes(16)
        assert composed_rng.bytes(16) == after  # the same draws were used up

        y_buf, truth_buf = simulation._generate_replicate(spec, buffered_rng, buffers)
        assert np.shares_memory(y_buf, buffers[0]) and y_buf.flags.c_contiguous
        assert y_buf.tobytes() == y.tobytes()
        for got, want in zip(truth_buf, truth, strict=True):
            assert got.tobytes() == want.tobytes()
            assert not any(np.shares_memory(got, buf) for buf in buffers)
        assert buffered_rng.bytes(16) == after


def test_replicate_centres_into_second_buffer(monkeypatch):
    """The shared spectral estimate centres Y (in buffer 0) into buffer 1,
    with the bytes ``center_rows`` gives on a new array, and solves once."""
    calls, solves = [], []
    solve = estimators.leading_singular_triple

    def spy(values, out=None):
        got = center_rows(values, out=out)
        calls.append((values, got, values.copy(), got.values.copy()))  # buffers get reused
        return got

    def counting_solve(x):
        solves.append(x)
        return solve(x)

    monkeypatch.setattr(estimators, "center_rows", spy)
    monkeypatch.setattr(estimators, "leading_singular_triple", counting_solve)
    spec = ScenarioSpec(kind=ScenarioKind.S2, n=12, p=50, alpha=3.0, sigma=1.0, seed=4)
    buffers = (np.full((12, 50), np.nan), np.full((12, 50), np.nan))
    for r in range(3):
        risks = simulation._replicate_risks(spec, r, ALL_ESTIMATORS, buffers)
        assert risks == simulation._replicate_risks(spec, r, ALL_ESTIMATORS)
    # a buffered and an allocating call per replicate, one centring and one solve each
    assert len(calls) == len(solves) == 6
    for (y_arg, got, y, centred), (ref_arg, ref, _, _) in zip(calls[::2], calls[1::2]):
        assert np.shares_memory(y_arg, buffers[0])
        assert np.shares_memory(got.values, buffers[1])
        assert not any(np.shares_memory(ref.values, buf) for buf in buffers)
        assert y.tobytes() == ref_arg.tobytes()
        assert centred.tobytes() == center_rows(ref_arg).values.tobytes()


@pytest.mark.parametrize("kind", [ScenarioKind.S1, ScenarioKind.S2])
def test_replicate_matches_public_composition_at_grid_size(kind):
    spec = ScenarioSpec(kind=kind, n=150, p=1000, alpha=3.0, sigma=1.0, seed=7)
    y, truth = simulation._generate_replicate(spec, rng_stream(11))
    y_ref, truth_ref = composed_replicate(spec, rng_stream(11))
    assert y.tobytes() == y_ref.tobytes()
    assert truth[2].tobytes() == truth_ref[2].tobytes()


def test_perfbench_tracer_spans_every_replicate(monkeypatch):
    """perfbench/tracing.py re-binds module attributes, so each of its
    targets must exist, and a replicate must call the generator and
    ``synthesize_observation`` through the names it re-binds."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    originals = (simulation.generate_s1, simulation.generate_s2, simulation.synthesize_observation)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in (ScenarioKind.S1, ScenarioKind.S2):
            spec = ScenarioSpec(kind=kind, n=4, p=12, alpha=3.0, sigma=1.0, seed=5)
            run_monte_carlo(spec, reps=3, threads=2)
    finally:
        tracer.uninstall()
    assert (simulation.generate_s1, simulation.generate_s2,
            simulation.synthesize_observation) == originals
    spans = collections.Counter(span[1] for span in tracer.spans)
    assert spans["simulation.generate"] == 6
    assert spans["simulation.noise"] == 6


ALL_ESTIMATORS = ("spectral", "ds", "os", "irep")
ALL_PAIRS = [
    (e, t) for e in ALL_ESTIMATORS for t in (("range",) if e == "irep" else simulation.TARGETS)
]
PUBLIC_ESTIMATORS = {
    "spectral": spectral_extremes,
    "ds": direct_sorting_extremes,
    "os": order_statistic_extremes,
    "irep": irep_extremes,
}


def _reference_monte_carlo(spec: ScenarioSpec, reps: int):
    """(risks, failures) of a plain loop over replicates, built from the
    public functions: one row of risks per replicate, in the order of
    ``ALL_PAIRS``; a replicate that raises a package error is a NaN row."""
    rows, failures = [], []
    for r in range(reps):
        y, truth = composed_replicate(spec, rng_stream(trial_seed(spec.seed, r)))
        row = []
        try:
            with np.errstate(all="ignore"):
                for name in ALL_ESTIMATORS:
                    est = PUBLIC_ESTIMATORS[name](y)
                    for got, want in zip((est.theta_r, est.theta_l, est.range), truth):
                        if got is not None:  # irep estimates the range only
                            row.append(empirical_risk(got, want))
        except PermrowError as exc:
            failures.append((r, type(exc).__name__, str(exc)))
            row = [np.nan] * len(ALL_PAIRS)
        rows.append(row)
    return np.array(rows), tuple(failures)


def _reference_case(kind, permutation):
    n, p = 6, 40
    rng = np.random.default_rng(8)
    custom = dict(a=tuple(rng.uniform(0, 3, n)), eta=tuple(np.sort(rng.normal(size=p))),
                  b=tuple(rng.uniform(0, 6, n)))
    return ScenarioSpec(kind=kind, n=n, p=p, alpha=3.0, sigma=1.0, permutation=permutation,
                        seed=21, **(custom if kind is ScenarioKind.CUSTOM_LINEAR else {})), 5


REFERENCE_CASES = {
    f"{kind.value}-{perm.value}": _reference_case(kind, perm)
    for kind in ScenarioKind
    for perm in (PermutationKind.IDENTITY, PermutationKind.UNIFORM_RANDOM)
}
# a_i is 0 or 5e-324, so 7 of the 8 replicates have a zero centred matrix
REFERENCE_CASES["partial-failure"] = (
    ScenarioSpec(kind=ScenarioKind.S1, n=2, p=5, alpha=5e-324, sigma=0.0, seed=1), 8
)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_monte_carlo_matches_reference_loop(case):
    spec, reps = REFERENCE_CASES[case]
    report = run_monte_carlo(spec, ALL_ESTIMATORS, reps)
    want, failures = _reference_monte_carlo(spec, reps)
    if case == "partial-failure":
        assert len(failures) == 7
    assert report.failures == failures
    assert [(s.estimator, s.target) for s in report.summaries] == ALL_PAIRS
    got = np.column_stack([s.risks for s in report.summaries])
    assert got.tobytes() == want.tobytes()
    failed = np.isin(np.arange(reps), [r for r, _, _ in failures])
    assert np.isnan(got[failed]).all() and not np.isnan(got[~failed]).any()
    for s, column in zip(report.summaries, want[~failed].T):
        column = np.ascontiguousarray(column)
        assert s.mean == np.mean(column)
        # one surviving replicate has no spread; np.std(ddof=1) would give NaN
        assert s.std == (np.std(column, ddof=1) if column.size > 1 else 0.0)
        assert [s.q1, s.median, s.q3] == np.percentile(column, [25.0, 50.0, 75.0]).tolist()


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

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            empirical_risk([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with warnings.catch_warnings():  # no numpy warning on the way to the error
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^empirical_risk needs at least one entry$"):
                empirical_risk([], [])

    @pytest.mark.parametrize(
        "scale", [2.0**600, 2.0**-600, 1e300, 1e-300], ids=["2^600", "2^-600", "1e300", "1e-300"]
    )
    def test_no_overflow_or_underflow_far_from_one(self, scale):
        # the sum of squares of entries near 1e300 overflows; near 1e-300 it is 0
        e, t = np.array([3.0, -1.0, 2.0]), np.array([-1.0, 2.0, 2.0])
        with np.errstate(all="raise"):
            assert empirical_risk(scale * e, scale * t) == pytest.approx(
                scale * empirical_risk(e, t), rel=1e-15
            )

    @pytest.mark.parametrize("state", ["warn", "raise"])
    def test_overflow_raises_without_warning(self, state):
        # the difference 3.4e308 overflows; the risk is the package error,
        # not inf, numpy's warning or FloatingPointError
        with np.errstate(all=state), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEstimate) as exc:
                empirical_risk([1.7e308], [-1.7e308])
        assert str(exc.value) == "a risk overflowed to a non-finite value"

    def test_bytes_unchanged_near_one(self):
        rng = np.random.default_rng(14)
        e, t = rng.normal(size=50), rng.normal(size=50)
        assert empirical_risk(e, t) == float(np.linalg.norm(e - t) / np.sqrt(50))


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

    @pytest.mark.parametrize(
        "pair", [("spectral", "thetaX"), ("irep", "thetaR"), ("os", "range")],
        ids=["unknown-target", "irep-extreme", "estimator-not-run"],
    )
    def test_summary_of_an_unknown_pair(self, pair):
        report = run_monte_carlo(self.spec(), estimators=("spectral", "irep"), reps=1)
        with pytest.raises(KeyError) as exc:
            report.summary(*pair)
        assert exc.value.args == (pair,)

    def test_deterministic_reruns(self):
        spec = self.spec(sigma=1.0)
        r1 = run_monte_carlo(spec, reps=8)
        r2 = run_monte_carlo(spec, reps=8)
        for s1, s2 in zip(r1.summaries, r2.summaries):
            np.testing.assert_array_equal(s1.risks, s2.risks)
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("n, p", [(8, 40), (30, 12)], ids=["n<p", "n>p"])
    @pytest.mark.parametrize("kind", [ScenarioKind.S1, ScenarioKind.S2])
    def test_spectral_risks_are_the_two_step_risks(self, kind, n, p):
        # the spectral rows of a report score the paper's two-step
        # regression estimate, rebuilt replicate by replicate by the oracles
        spec = self.spec(kind=kind, n=n, p=p, sigma=1.0)
        report = run_monte_carlo(spec, estimators=("spectral",), reps=6)
        assert report.failures == ()
        want = {target: [] for target in simulation.TARGETS}
        for r in range(6):
            y, truth = composed_replicate(spec, rng_stream(trial_seed(spec.seed, r)))
            reg_r, reg_l = regression_two_step(y)
            for target, got, true in zip(simulation.TARGETS, (reg_r, reg_l, reg_r - reg_l), truth):
                want[target].append(empirical_risk(got, true))
        for target in simulation.TARGETS:
            np.testing.assert_allclose(
                report.summary("spectral", target).risks, want[target], rtol=1e-9, atol=0
            )

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

    @pytest.mark.parametrize(
        "spec_kw, estimators, reps",
        [
            # most replicates fail
            (dict(n=2, p=5, alpha=5e-324, seed=1), ("spectral", "os"), 64),
            # grid-sized buffers: one shared across threads would mix replicates
            (dict(kind=ScenarioKind.S2, n=150, p=1000, sigma=1.0, seed=2),
             ("spectral", "ds", "os"), 24),
        ],
        ids=["failures", "S2-150x1000"],
    )
    def test_pool_threads_lose_no_row_or_failure(self, spec_kw, estimators, reps):
        """More pool threads than cores, switching often, write the shared
        risk rows and failure list and build replicates in their own
        buffers; a lost update or a shared buffer breaks the equality."""
        spec = self.spec(**spec_kw)
        serial = run_monte_carlo(spec, estimators, reps=reps)
        if spec.n == 2:
            assert 0 < len(serial.failures) < reps
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_monte_carlo(spec, estimators, reps=reps, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.failures == serial.failures
        assert pooled.to_json() == serial.to_json()

    def test_overflowing_risk_fails_its_replicate(self):
        # Y stays finite near 1e308, but a row's max - min, and so its risk, can overflow
        report = run_monte_carlo(self.spec(sigma=4e307), estimators=("os",), reps=8)
        failed = list(report.failed_replicates)
        assert failed and len(failed) < 8
        assert {name for _, name, _ in report.failures} == {"NonFiniteEstimate"}
        risks = report.summary("os", "range").risks
        assert np.isnan(risks[failed]).all()
        assert np.isfinite(np.delete(risks, failed)).all()

    def test_non_finite_risk_fails_its_replicate(self):
        # irep's range estimate of the true range 2a overflows to inf, and
        # irep_extremes raises before any risk is taken
        spec = ScenarioSpec(kind=ScenarioKind.CUSTOM_LINEAR, n=2, p=3, sigma=0.0,
                            permutation=PermutationKind.IDENTITY, a=(1.7e308, 1.7e308),
                            eta=(-1.0, 0.0, 1.0), b=(0.0, 0.0))
        report = run_monte_carlo(spec, estimators=("irep",), reps=2)
        message = "range overflowed to a non-finite value"
        assert report.failures == tuple((r, "NonFiniteEstimate", message) for r in range(2))
        assert np.isnan(report.summary("irep", "range").risks).all()
        # every estimate is finite (irep's range is +1e308), but the true
        # range is -1e308, so the range risk of 2e308 overflows
        spec = dataclasses.replace(spec, a=(-1e308, -1e308), eta=(-0.5, 0.0, 0.5))
        message = "a risk overflowed to a non-finite value"
        for estimators in (("irep",), ("os",), ("spectral", "ds")):
            report = run_monte_carlo(spec, estimators=estimators, reps=2)
            assert report.failures == tuple((r, "NonFiniteEstimate", message) for r in range(2))
            assert np.isnan(report.summary(estimators[0], "range").risks).all()

    def test_ambiguous_direction_fails_every_replicate(self, monkeypatch):
        # no scenario gives a tied leading pair (a centred linear signal is
        # rank one), so every replicate's Y is replaced by one with
        # lam1 = lam2 = sqrt(2)
        probe = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        monkeypatch.setattr(simulation, "synthesize_observation", lambda *args: probe.copy())
        spec = self.spec(n=2, p=4, sigma=1.0)
        report = run_monte_carlo(spec, estimators=("spectral", "ds", "os"), reps=3)
        message = "ambiguous leading direction: lam1 = 1.41421, lam2 = 1.41421"
        assert report.failures == tuple((r, "AmbiguousDirection", message) for r in range(3))
        assert all(np.isnan(s.risks).all() for s in report.summaries)

    def test_huge_risks_summarized_without_overflow(self):
        # risks near 1e200: the sum of their squares (std) passes the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_monte_carlo(self.spec(sigma=1e200), estimators=("os",), reps=6)
            assert report.failures == ()
            summary = report.summary("os", "range")
            scaled = np.ldexp(summary.risks, -665)  # exact; 2**665 is about 1e200
            assert summary.std == pytest.approx(np.ldexp(scaled.std(ddof=1), 665), rel=1e-15)
            assert summary.mean == pytest.approx(np.ldexp(scaled.mean(), 665), rel=1e-15)
            assert summary.median == pytest.approx(np.median(summary.risks), rel=1e-15)

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
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "estimator,target,replicate,risk"
        assert len(lines) == 1 + 3 * 3 * 3  # 3 estimators x 3 targets x 3 reps
        # failed replicates have no row; the rest come in order, at full precision
        failing = run_monte_carlo(
            self.spec(n=2, p=5, alpha=5e-324, seed=1), ("spectral", "os"), reps=16
        )
        failed = set(failing.failed_replicates)
        assert 0 < len(failed) < 16
        survivors = [r for r in range(16) if r not in failed]
        for written, ok in ((report, [0, 1, 2]), (failing, survivors)):
            written.write_csv(path)
            lines = path.read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == len(written.summaries) * len(ok)
            for k, s in enumerate(written.summaries):
                block = rows[k * len(ok):(k + 1) * len(ok)]
                assert [row[:2] for row in block] == [[s.estimator, s.target]] * len(ok)
                assert [int(row[2]) for row in block] == ok
                assert [row[3] for row in block] == [f"{float(s.risks[r]):.17g}" for r in ok]

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(self.spec(), estimators=("bogus",), reps=1)

    def test_repeated_estimator_rejected(self):
        # a repeated name would write each of its risk rows twice
        with pytest.raises(ValueError, match=r"repeated estimators: \['spectral'\]"):
            run_monte_carlo(self.spec(), estimators=("spectral", "os", "spectral"), reps=1)

    def test_empty_estimators_rejected(self):
        with pytest.raises(ValueError, match="no estimator"):
            run_monte_carlo(self.spec(), estimators=(), reps=1)

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


class TestRiskSummary:
    """A summary stores its risk column; the statistics are read off it."""

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(RiskSummary)]
        assert names == ["estimator", "target", "risks"]

    def test_keeps_a_read_only_copy(self):
        column = np.array([1.0, np.nan, 3.0])
        summary = RiskSummary("spectral", "range", column)
        column[0] = 100.0
        assert summary.risks[0] == 1.0 and summary.mean == 2.0
        with pytest.raises(ValueError, match="read-only"):
            summary.risks[0] = 5.0

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_stay_read_only(self, clone):
        summary = RiskSummary("spectral", "range", [1.0, np.nan, 3.0])
        assert summary.mean == 2.0
        other = clone(summary)
        assert not other.risks.flags.writeable
        assert (other.estimator, other.target, other.mean) == ("spectral", "range", 2.0)
        np.testing.assert_array_equal(other.risks, summary.risks)

    def test_statistics_of_the_survivors(self):
        risks = np.random.default_rng(62).uniform(0.5, 2.0, 9)
        risks[[2, 5]] = np.nan
        summary = RiskSummary("os", "thetaR", risks)
        ok = risks[~np.isnan(risks)]  # in [2**-100, 2**100], so not rescaled
        q1, median, q3 = np.percentile(ok, [25.0, 50.0, 75.0])
        got = (summary.mean, summary.std, summary.q1, summary.median, summary.q3)
        assert got == (ok.mean(), ok.std(ddof=1), q1, median, q3)
        assert all(type(x) is float for x in got)

    def test_one_survivor_and_none(self):
        one = RiskSummary("os", "range", [np.nan, 0.25, np.nan])
        assert (one.mean, one.std, one.q1, one.median, one.q3) == (0.25, 0.0, 0.25, 0.25, 0.25)
        none = RiskSummary("os", "range", [np.nan, np.nan])
        assert np.isnan([none.mean, none.std, none.q1, none.median, none.q3]).all()

    def test_report_json_strict_when_every_replicate_failed(self):
        """The NaN statistics of an all-failed column are written as null."""

        def reject(constant):
            raise AssertionError(f"bare {constant} in the report JSON")

        # a_i is 0 or 5e-324, so the one replicate has a zero centred matrix
        spec = ScenarioSpec(kind=ScenarioKind.S1, n=2, p=5, alpha=5e-324, sigma=0.0, seed=1)
        report = run_monte_carlo(spec, ("spectral",), reps=1)
        assert report.failed_replicates == (0,)
        doc = json.loads(report.to_json(), parse_constant=reject)
        for summary in doc["summaries"]:
            stats = [summary[name] for name in ("mean", "std", "q1", "median", "q3")]
            assert stats == [None] * 5 and summary["risks"] == [None]

    def test_percentiles_computed_once_on_first_read(self, monkeypatch, tmp_path):
        calls = []
        percentile = np.percentile
        monkeypatch.setattr(np, "percentile", lambda *a, **k: calls.append(a) or percentile(*a, **k))
        spec = ScenarioSpec(kind=ScenarioKind.S1, n=5, p=20, sigma=1.0, seed=3)
        report = run_monte_carlo(spec, reps=4)
        report.write_csv(tmp_path / "risks.csv")
        assert calls == []
        summary = report.summaries[0]
        assert summary.median > 0.0
        assert len(calls) == 1  # one call gives the three quartiles
        assert np.isfinite([summary.mean, summary.std, summary.q1, summary.q3]).all()
        assert len(calls) == 1


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"n": 10.7}, "n must be an integer"),
            ({"n": 10.0}, "n must be an integer"),
            ({"n": True}, "n must be an integer"),
            ({"p": "50"}, "p must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"permutation": "Given", "givenPermutation": [*range(49), 49.0]},
             "givenPermutation entry must be an integer"),
            ({"permutation": "Given", "givenPermutation": "0123"},
             "^givenPermutation must be a list of integers, got '0123'$"),
            ({"permutation": "Given", "givenPermutation": 5},
             "^givenPermutation must be a list of integers, got 5$"),
        ],
        ids=["fractional", "integral-float", "bool", "string", "seed", "perm-entry", "perm-string",
             "perm-scalar"],
    )
    def test_non_integer_rejected(self, bad, message):
        # int() would truncate 10.7 to 10 and run the wrong scenario
        with pytest.raises(InvalidScenario, match=message):
            ScenarioSpec.from_json_dict({**self.BASE, **bad})

    CUSTOM = {"kind": "CustomLinear", "n": 2, "p": 3, "a": [1, 2], "eta": [0, 1, 2], "b": [4, 5]}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"alpha": "3"}, "alpha must be a number"),
            ({"sigma": True}, "sigma must be a number"),
            ({"a": "12", "eta": "123", "b": "45"}, "a must be a list"),
            ({"eta": "123"}, "eta must be a list"),
            ({"a": ["1", 2]}, "a entry must be a number"),
            ({"b": [True, 5]}, "b entry must be a number"),
        ],
        ids=["alpha-string", "sigma-bool", "all-strings", "eta-string", "a-entry", "b-entry-bool"],
    )
    def test_non_number_rejected(self, bad, message):
        # float() would read "3" as 3.0, true as 1.0 and "123" as (1.0, 2.0, 3.0)
        with pytest.raises(InvalidScenario, match=message):
            ScenarioSpec.from_json_dict({**self.CUSTOM, **bad})

    def test_json_integers_accepted(self):
        spec = ScenarioSpec.from_json_dict({**self.CUSTOM, "alpha": 3, "sigma": 0})
        assert (spec.alpha, spec.sigma, spec.a, spec.eta) == (3.0, 0.0, (1.0, 2.0), (0.0, 1.0, 2.0))
        assert all(type(x) is float for x in (spec.alpha, spec.sigma, *spec.a, *spec.eta, *spec.b))

    @pytest.mark.parametrize("bad", [{"alpha": 10**400}, {"a": [10**400, 1]}], ids=["alpha", "a-entry"])
    def test_huge_integer_malformed(self, bad):
        with pytest.raises(InvalidScenario, match="malformed scenario config"):
            ScenarioSpec.from_json_dict({**self.CUSTOM, **bad})

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

    @pytest.mark.parametrize(
        "extra",
        [
            {"a": [1, 2, 3], "eta": [0, 1, 2, 3], "b": [0, 0, 0]},
            {"kind": "S2", "a": [1, 2, 3]},
            {"permutation": "Identity", "givenPermutation": [0, 1, 2, 3]},
            {"permutation": "UniformRandom", "givenPermutation": [3, 2, 1, 0]},
        ],
        ids=["S1-a-eta-b", "S2-a", "Identity-given", "UniformRandom-given"],
    )
    def test_unread_vectors_rejected(self, extra):
        # the run would silently ignore these, so the config is an error
        with pytest.raises(InvalidScenario, match="with, and only with"):
            ScenarioSpec.from_json_dict({"kind": "S1", "n": 3, "p": 4, **extra})

    CUSTOM_FIELDS = dict(a=(1.0, 2.0), eta=(0.0, 1.0, 2.0), b=(4.0, 5.0))

    @pytest.mark.parametrize(
        "kind, permutation",
        [("S1", "Identity"), ("S2", "UniformRandom"), ("CustomLinear", "Given")],
    )
    def test_json_values_from_python_build_the_enum_spec(self, kind, permutation):
        """A Python caller may name kind and permutation by their JSON values,
        and runs the same scenario as with the enum members."""
        rest = dict(n=2, p=3, alpha=3.0, sigma=0.5, seed=4)
        if kind == "CustomLinear":
            rest.update(self.CUSTOM_FIELDS)
        if permutation == "Given":
            rest["given_permutation"] = (2, 0, 1)
        by_value = ScenarioSpec(kind=kind, permutation=permutation, **rest)
        by_enum = ScenarioSpec(kind=ScenarioKind(kind), permutation=PermutationKind(permutation), **rest)
        assert by_value == by_enum
        assert (by_value.kind, by_value.permutation) == (by_enum.kind, by_enum.permutation)
        reports = [run_monte_carlo(spec, reps=3).to_json() for spec in (by_value, by_enum)]
        assert reports[0] == reports[1]
        if kind == "S1":  # the S1 design, not S2
            s2 = dataclasses.replace(by_enum, kind=ScenarioKind.S2)
            assert run_monte_carlo(s2, reps=3).to_json() != reports[0]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"kind": "S9"}, "^kind must be one of S1, S2, CustomLinear, got 'S9'$"),
            ({"kind": None}, "^kind must be one of S1, S2, CustomLinear, got None$"),
            ({"permutation": "identity"},
             "^permutation must be one of Identity, UniformRandom, Given, got 'identity'$"),
            ({"n": 10.7}, "^n must be an integer, got 10.7$"),
            ({"p": np.float64(50.0)}, "^p must be an integer"),
            ({"seed": True}, "^seed must be an integer, got True$"),
            ({"alpha": "3"}, "^alpha must be a number, got '3'$"),
            ({"sigma": None}, "^sigma must be a number, got None$"),
            ({"permutation": PermutationKind.GIVEN, "given_permutation": range(50)},
             "^givenPermutation must be a list of integers"),
            ({"kind": ScenarioKind.CUSTOM_LINEAR, "n": 2, "p": 3, **CUSTOM_FIELDS,
              "eta": np.array([0.0, 1.0, 2.0])}, "^eta must be a list of numbers"),
            ({"kind": ScenarioKind.CUSTOM_LINEAR, "n": 2, "p": 3, **CUSTOM_FIELDS, "a": (1.0, "2")},
             "^a entry must be a number, got '2'$"),
        ],
        ids=["kind-unknown", "kind-none", "permutation-case", "n-fractional", "p-numpy-float",
             "seed-bool", "alpha-string", "sigma-none", "given-range", "eta-array", "a-entry"],
    )
    def test_wrong_types_from_python_rejected(self, bad, message):
        """The checks of a JSON config hold for a Python caller too, and name the field."""
        with pytest.raises(InvalidScenario, match=message):
            ScenarioSpec(**{"kind": ScenarioKind.S1, "n": 10, "p": 50, **bad})

    def test_python_values_stored_normalised(self):
        spec = ScenarioSpec(kind="CustomLinear", n=np.int64(2), p=3, alpha=3, sigma=np.float32(0.5),
                            permutation="Given", given_permutation=[np.int64(2), 0, 1],
                            a=[1, 2], eta=(0, 1, np.float64(2)), b=[4, 5])
        assert spec == ScenarioSpec(kind=ScenarioKind.CUSTOM_LINEAR, n=2, p=3, alpha=3.0, sigma=0.5,
                                    permutation=PermutationKind.GIVEN, given_permutation=(2, 0, 1),
                                    **self.CUSTOM_FIELDS)
        assert all(type(x) is int for x in (spec.n, spec.p, spec.seed, *spec.given_permutation))
        assert all(type(x) is float for x in (spec.alpha, spec.sigma, *spec.a, *spec.eta, *spec.b))
        assert all(type(v) is tuple for v in (spec.given_permutation, spec.a, spec.eta, spec.b))

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


@settings(max_examples=100, deadline=None)
@given(spec=scenario_specs())
def test_spec_json_round_trip(spec):
    """A spec goes through its JSON text and back unchanged, with its keys
    in the pinned order and no key for a vector it does not hold."""
    doc = spec.to_json_dict()
    keys = ["kind", "n", "p", "alpha", "sigma", "permutation", "seed"]
    if spec.permutation is PermutationKind.GIVEN:
        keys.append("givenPermutation")
    if spec.kind is ScenarioKind.CUSTOM_LINEAR:
        keys += ["a", "eta", "b"]
    assert list(doc) == keys
    assert ScenarioSpec.from_json_dict(json.loads(json.dumps(doc))) == spec


@needs_openblas
class TestBlasThreadPin:
    """run_monte_carlo holds OpenBLAS at one thread and restores its count."""

    SPEC = ScenarioSpec(kind=ScenarioKind.S1, n=6, p=30, alpha=3.0, sigma=1.0, seed=11)

    @pytest.fixture
    def blas_threads(self):
        """OpenBLAS set to 2 threads, a count the pin must restore; yields its getter."""
        get, set_ = BLAS
        before = get()
        set_(2)
        yield get
        set_(before)

    def spy_os(self, monkeypatch, hook):
        """Call ``hook()`` in each replicate, just before its order statistics."""
        real = simulation.order_statistic_extremes

        def spied(y):
            hook()
            return real(y)

        monkeypatch.setattr(simulation, "order_statistic_extremes", spied)

    def test_pinned_inside_and_restored_after_return(self, blas_threads, monkeypatch):
        seen = []
        self.spy_os(monkeypatch, lambda: seen.append(blas_threads()))
        run_monte_carlo(self.SPEC, reps=4, threads=2)
        assert seen == [1] * 4
        assert blas_threads() == 2

    def test_no_pin_without_openblas(self, blas_threads, monkeypatch):
        """Where the OpenBLAS lookup finds nothing, the pin does nothing, and a
        run solves by the eigh fallback with no failed replicate."""
        seen = []
        self.spy_os(monkeypatch, lambda: seen.append(blas_threads()))
        monkeypatch.setattr(matrix, "_openblas", lambda: None)
        with _one_blas_thread():
            assert blas_threads() == 2
        report = run_monte_carlo(self.SPEC, reps=2, threads=2)
        assert report.failures == ()
        assert seen == [2, 2] and blas_threads() == 2
        assert matrix._blas_depth == 0

    def test_restored_after_raise(self, blas_threads, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        self.spy_os(monkeypatch, boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_monte_carlo(self.SPEC, reps=2, threads=2)
        assert blas_threads() == 2

    @pytest.mark.parametrize("started", [0, 1], ids=["none-started", "one-started"])
    def test_failed_thread_start_raises_value_error(self, blas_threads, monkeypatch, started):
        """A pool thread that cannot start ends the run with ValueError, after
        ``started`` threads did start; the replicates still queued are
        cancelled, and the BLAS count comes back."""
        real_start, real_shutdown = threading.Thread.start, ThreadPoolExecutor.shutdown
        starts, ran = [], []
        release = threading.Event()  # holds the first replicate until the pool shuts down

        def start(thread):
            starts.append(thread)
            if len(starts) > started:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        def shutdown(pool, wait=True, *, cancel_futures=False):
            real_shutdown(pool, wait=False, cancel_futures=cancel_futures)
            release.set()
            real_shutdown(pool, wait=wait)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", shutdown)
        self.spy_os(monkeypatch, lambda: ran.append(release.wait(30)))
        message = "^cannot start 2 worker threads: can't start new thread$"
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(self.SPEC, reps=4, threads=2)
        assert len(starts) == started + 1
        assert not any(t.is_alive() for t in starts)
        assert ran == [True] * started  # the started thread ran its first replicate only
        assert blas_threads() == 2

    def test_overlapping_calls_from_two_threads(self, blas_threads, monkeypatch):
        """A short call enters, a long one enters, and the short one leaves
        first: the long one stays pinned, and the count comes back after it."""
        serial = {reps: run_monte_carlo(self.SPEC, reps=reps).to_json() for reps in (1, 3)}
        short_inside = threading.Event()
        both_inside = threading.Barrier(2, timeout=30)
        short_done = threading.Event()
        calls = collections.Counter()
        seen = []

        def hook():
            name = threading.current_thread().name
            calls[name] += 1
            if calls[name] == 1:
                if name == "short":
                    short_inside.set()
                both_inside.wait()
            else:
                assert short_done.wait(30)
            seen.append(blas_threads())

        self.spy_os(monkeypatch, hook)
        reports = {}

        def run(reps):
            reports[reps] = run_monte_carlo(self.SPEC, reps=reps).to_json()

        short = threading.Thread(target=run, args=(1,), name="short")
        long_ = threading.Thread(target=run, args=(3,), name="long")
        short.start()
        assert short_inside.wait(30)
        long_.start()
        short.join(30)
        short_done.set()
        long_.join(30)
        assert not short.is_alive() and not long_.is_alive()
        assert reports == serial
        assert seen == [1] * 4
        assert blas_threads() == 2

    def test_many_overlapping_calls(self, blas_threads, monkeypatch):
        """More callers than cores, switching often: every replicate runs
        pinned and the count comes back, which a lost depth update breaks."""
        serial = run_monte_carlo(self.SPEC, reps=4).to_json()
        seen = []
        self.spy_os(monkeypatch, lambda: seen.append(blas_threads()))
        reports = []

        def run():
            for _ in range(3):
                reports.append(run_monte_carlo(self.SPEC, reps=4, threads=2).to_json())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert reports == [serial] * 12
        assert seen == [1] * 48
        assert blas_threads() == 2


def test_simulate_huge_sigma_loses_no_replicate(tmp_path, run_cli):
    """Risks near 1e153 square past the float range unless rescaled."""
    cfg = tmp_path / "s1.json"
    cfg.write_text(json.dumps({"kind": "S1", "n": 5, "p": 20, "alpha": 3.0, "sigma": 1.6e153}),
                   encoding="utf-8")
    out = tmp_path / "risk.csv"
    proc = run_cli("simulate", "--config", cfg, "--reps", 6, "--seed", 1, "--output", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    replicates = {line.split(",")[2] for line in out.read_text(encoding="utf-8").splitlines()[1:]}
    assert replicates == {str(r) for r in range(6)}


@needs_openblas
def test_simulate_bytes_independent_of_blas_threads(tmp_path, run_cli):
    """At n=150 the Gram product and eigh round differently on 1 and 2 BLAS
    threads; the pin makes the CSV the same."""
    cfg = tmp_path / "s1.json"
    cfg.write_text(
        json.dumps({"kind": "S1", "n": 150, "p": 1000, "alpha": 3.0, "sigma": 1.0,
                    "permutation": "UniformRandom"}),
        encoding="utf-8",
    )
    payloads = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.csv"
        proc = run_cli("simulate", "--config", cfg, "--reps", 10, "--seed", 7,
                       "--output", out, env={"OPENBLAS_NUM_THREADS": blas})
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
