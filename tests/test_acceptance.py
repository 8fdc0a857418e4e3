"""End-to-end acceptance checks.

Each test produces a single PASS/FAIL verdict line, printed immediately
and repeated in the terminal summary so the lines survive output capture.
"""

import json
import math
import time

import numpy as np
from scipy import stats as scipy_stats

import conftest

from permrow import (
    LinearGrowthSignal,
    PermutationKind,
    ScenarioKind,
    ScenarioSpec,
    SignalIndices,
    SnrRegime,
    TTestVariant,
    center_rows,
    classify_snr,
    empirical_risk,
    f_test_oneway,
    generate_s1,
    generate_s2,
    leading_singular_triple,
    minimax_rate_extreme,
    order_statistic_extremes,
    rate_psi,
    rng_stream,
    run_monte_carlo,
    signal_indices,
    spectral_extremes,
    synthesize_observation,
    t_test_two_sample,
    trial_seed,
)
from permrow.cli import main

from oracles import regression_two_step


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    print(line)
    conftest.acceptance_verdicts.append(line)
    assert ok, f"criterion {num}: {description} ({detail})"


def _growth_observation(rng, n, p, sigma):
    a = rng.uniform(0.2, 3.0, n)
    b = rng.uniform(0.0, 6.0, n)
    eta = np.sort(rng.normal(size=p))
    eta -= eta.mean()
    theta = np.outer(a, eta) + b[:, None]
    return theta + sigma * rng.standard_normal((n, p))


def test_criterion_1_estimator_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = _growth_observation(rng, 20, 100, 1.0)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(y)))
        spec = spectral_extremes(y)
        reg_r, reg_l = regression_two_step(y)
        gap = max(
            float(np.abs(reg_r - spec.theta_r).max()),
            float(np.abs(reg_l - spec.theta_l).max()),
            float(np.abs((reg_r - reg_l) - spec.range).max()),
        )
        worst = max(worst, gap / tol)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "the spectral estimate is the two-step regression fit on 100 random matrices",
        worst <= 1.0 and elapsed < 10.0,
        f"worst gap ratio {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_noiseless_exact_recovery():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        n, p = 8, 40
        a = rng.uniform(0.5, 3.0, n)
        b = rng.uniform(0.0, 6.0, n)
        # strictly increasing eta gives distinct values
        eta = np.sort(rng.normal(size=p))
        eta += 1e-6 * np.arange(p)
        eta -= eta.mean()
        theta = np.outer(a, eta) + b[:, None]
        pi = rng.permutation(p)
        y = theta[:, np.argsort(pi)]
        est = spectral_extremes(y)
        scale = max(1.0, float(np.abs(theta).max()))
        ok = ok and np.abs(est.theta_r - theta[:, -1]).max() <= 1e-10 * scale
        ok = ok and np.abs(est.theta_l - theta[:, 0]).max() <= 1e-10 * scale
        ok = ok and np.abs(est.range - (theta[:, -1] - theta[:, 0])).max() <= 1e-10 * scale
        ok = ok and np.array_equal(est.permutation_hat, pi)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "noiseless recovery is exact on 50 permuted linear-growth instances",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_monotone_singular_vector():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        n, p = 8, 30
        eta = np.sort(rng.normal(size=p))
        eta -= eta.mean()
        zeta = np.sort(rng.uniform(0, 1, p))
        zeta -= zeta.mean()
        zeta *= 0.1 * float(np.diff(np.sort(eta)).min() / max(zeta.max(), 1e-12))
        slopes = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        weights = rng.uniform(-0.2, 0.2, n)
        b = rng.uniform(0, 6, n)
        theta = slopes[:, None] * (eta + weights[:, None] * zeta) + b[:, None]
        triple = leading_singular_triple(center_rows(theta))
        s = 1.0 if triple.v[-1] >= triple.v[0] else -1.0  # one joint flip of (u, v)
        ok = ok and bool(np.all(np.diff(s * triple.v) >= -1e-10))
        ok = ok and bool(np.array_equal(np.sign(s * triple.u), np.sign(slopes)))
        if not ok:
            break
    _verdict(
        3,
        "leading right singular vector of monotone matrices is nondecreasing "
        "and left signs match row directions",
        ok,
    )


def test_criterion_4_permutation_invariance():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        y = _growth_observation(rng, 6, 30, 1.0)
        base = spectral_extremes(y)
        for _ in range(5):
            perm = rng.permutation(30)
            other = spectral_extremes(y[:, perm])
            ok = ok and np.abs(other.theta_r - base.theta_r).max() <= 1e-10
            ok = ok and np.abs(other.theta_l - base.theta_l).max() <= 1e-10
            ok = ok and np.abs(other.range - base.range).max() <= 1e-10
        if not ok:
            break
    _verdict(
        4,
        "estimates are invariant under column permutations (50 x 5 instances)",
        ok,
    )


def _relation(a: float, b: float) -> str:
    return "<" if a < b else ">" if a > b else "="


def _strictly_falling(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def test_criterion_5_simulation_replication():
    # S2 (logarithmic, not rank-one) is where the projection onto u pays off,
    # so the full ordering spectral < ds < os is asserted there.  S1 is the
    # two-point design eta = (-1, 0, ..., 0, 1): the ranking finds both true
    # extreme columns, so direct sorting reads two raw columns and its range
    # risk stays at sigma * sqrt(2), while the spectral range projects onto a u
    # that is only partly aligned with a in the intermediate SNR regime of
    # these cells.  There the assertion is that the spectral / direct-sorting
    # ratio and the spectral mean fall strictly as n, and with it
    # t^2 / (sigma^2 sqrt(np)), grows.
    #
    # Two sweeps at n = 50 (40 replicates each) pin where spectral wins, as
    # the measured medians show it.  In S1 the spectral / direct-sorting ratio
    # falls to about 1 as alpha grows: v then sits on the two end columns, so
    # the spectral range reads the same two noisy columns that direct sorting
    # reads.  In CustomLinear with eta = -1 on the first k columns and +1 on
    # the last k, v spreads over 2k columns, while direct sorting still reads
    # one raw column at each end: from k = 5 on, spectral < ds < os.  eta is
    # kept nondecreasing, since the truth is read at the end columns.
    start = time.perf_counter()
    alpha, sigma, p, seed = 3.0, 1.0, 1000, 20260823
    failures = []
    details = []
    s1_ratios = []
    s1_means = []
    for kind in (ScenarioKind.S1, ScenarioKind.S2):
        for n in (50, 100, 150):
            spec = ScenarioSpec(
                kind=kind,
                n=n,
                p=p,
                alpha=alpha,
                sigma=sigma,
                permutation=PermutationKind.UNIFORM_RANDOM,
                seed=seed,
            )
            report = run_monte_carlo(
                spec, estimators=("spectral", "ds", "os"), reps=200, threads=4
            )
            s, d, o = (report.summary(e, "range").median for e in ("spectral", "ds", "os"))
            # the regime of t read off replicate 0's noiseless signal
            generate = generate_s1 if kind is ScenarioKind.S1 else generate_s2
            rng = rng_stream(trial_seed(seed, 0))
            theta = synthesize_observation(generate(n, p, alpha, rng), 0.0, None, rng)
            t = signal_indices(theta, sigma).t
            cell = f"{kind.value} n={n}"
            line = (
                f"{cell}: spectral {s:.3f} {_relation(s, d)} ds {d:.3f} "
                f"{_relation(d, o)} os {o:.3f} (t {t:.2f}, "
                f"{classify_snr(t, sigma, n, p).value}"
            )
            if kind is ScenarioKind.S2:
                if not s < d < o:
                    failures.append(f"{cell} spectral < ds < os")
            else:
                if not d < o:
                    failures.append(f"{cell} ds < os")
                if not s < o:
                    failures.append(f"{cell} spectral < os")
                s1_ratios.append(s / d)
                s1_means.append(report.summary("spectral", "range").mean)
                line += f", spectral/ds {s / d:.3f}"
            details.append(line + ")")
    if not _strictly_falling(s1_ratios):
        failures.append("S1 spectral/ds median ratio strictly falling in n")
    if not _strictly_falling(s1_means):
        failures.append("S1 spectral mean strictly falling in n")

    def medians(**kw):
        spec = ScenarioSpec(n=50, p=p, sigma=sigma, permutation=PermutationKind.UNIFORM_RANDOM,
                            seed=seed, **kw)
        report = run_monte_carlo(spec, estimators=("spectral", "ds", "os"), reps=40, threads=2)
        return [report.summary(e, "range").median for e in ("spectral", "ds", "os")]

    alpha_ratios = {}
    for strength in (3.0, 10.0, 30.0, 100.0):
        s, d, _ = medians(kind=ScenarioKind.S1, alpha=strength)
        alpha_ratios[strength] = s / d
    if not _strictly_falling([alpha_ratios[a] for a in (3.0, 10.0, 30.0)]):
        failures.append("S1 n=50 spectral/ds ratio strictly falling in alpha up to 30")
    if not all(0.95 <= alpha_ratios[a] <= 1.10 for a in (30.0, 100.0)):
        failures.append("S1 n=50 spectral/ds ratio in [0.95, 1.10] at alpha 30 and 100")
    details.append("S1 n=50 spectral/ds by alpha " + ", ".join(
        f"{strength:g}: {r:.3f}" for strength, r in alpha_ratios.items()))
    rng = np.random.default_rng(7)  # a and b drawn once, held fixed over k
    a, b = tuple(rng.uniform(0.0, 3.0, 50)), tuple(rng.uniform(0.0, 6.0, 50))
    for k in (5, 20, 100):
        eta = (-1.0,) * k + (0.0,) * (p - 2 * k) + (1.0,) * k
        s, d, o = medians(kind=ScenarioKind.CUSTOM_LINEAR, alpha=alpha, a=a, eta=eta, b=b)
        if not s < d < o:
            failures.append(f"CustomLinear k={k} spectral < ds < os")
        details.append(f"CustomLinear k={k}: spectral {s:.3f} {_relation(s, d)} ds {d:.3f} "
                       f"{_relation(d, o)} os {o:.3f}")
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "Monte Carlo range risks: spectral < direct sorting < order statistic "
        "in every S2 cell and in CustomLinear with k >= 5 tied end columns; in S1 "
        "both below order statistic, with the spectral/direct-sorting ratio and the "
        "spectral mean falling in n, and that ratio falling in alpha to about 1",
        not failures,
        "failed: " + ", ".join(failures or ["none"])
        + "; " + "; ".join(details)
        + "; S1 spectral means " + ", ".join(f"{m:.3f}" for m in s1_means)
        + f"; {elapsed:.1f}s",
    )


def test_criterion_6_order_statistic_scaling():
    rng = np.random.default_rng(106)
    ratios = []
    for p in (100, 1000, 10000):
        maxima = rng.standard_normal((2000, p)).max(axis=1)
        ratios.append(float(maxima.mean()) / math.sqrt(math.log(p)))
    band = max(ratios) / min(ratios)
    _verdict(
        6,
        "mean rowwise maximum of standard normal noise scales like sqrt(ln p)",
        band <= 1.35,
        f"band ratio {band:.3f}",
    )


def test_criterion_7_statistics_oracle():
    f = f_test_oneway([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    ok = abs(f.statistic - 3.0) <= 1e-12 and (f.df1, f.df2) == (2, 6)
    ok = ok and abs(f.p_value - float(scipy_stats.f.sf(3.0, 2, 6))) <= 1e-10
    t = t_test_two_sample([1, 2, 3], [2, 3, 4], TTestVariant.POOLED)
    ok = ok and abs(t.statistic - (-1.224744871391589)) <= 1e-9
    rng = np.random.default_rng(107)
    for _ in range(100):
        x = rng.normal(size=rng.integers(3, 10))
        y = rng.normal(loc=0.4, size=rng.integers(3, 10))
        fr = f_test_oneway([x, y])
        tr = t_test_two_sample(x, y, TTestVariant.POOLED)
        ok = ok and abs(fr.statistic - tr.statistic**2) <= 1e-10
        ok = ok and abs(fr.p_value - tr.p_value) <= 1e-10
        if not ok:
            break
    _verdict(
        7,
        "F and t tests reproduce hand values, match the independent p-value "
        "oracle, and satisfy F = t^2",
        ok,
    )


def test_criterion_8_rate_calculator():
    sigma, n, p = 1.5, 100, 10_000
    idx0 = SignalIndices(t=7.0, beta_r=0.0, beta_l=0.0, sigma=sigma)
    ok = minimax_rate_extreme(idx0, n, p) == sigma * rate_psi(n, p)
    for t in np.sqrt(100.0 * sigma**2 * p) * np.linspace(1.0, 50.0, 25):
        idx_a = SignalIndices(t=float(t), beta_r=0.5, beta_l=0.5, sigma=sigma)
        idx_b = SignalIndices(t=float(10 * t), beta_r=0.5, beta_l=0.5, sigma=sigma)
        ok = ok and minimax_rate_extreme(idx_a, n, p) == minimax_rate_extreme(idx_b, n, p)
    labels = [
        classify_snr(math.sqrt(t2), 1.0, 100, 10_000)
        for t2 in (500.0, 5000.0, 20000.0)
    ]
    ok = ok and labels == [SnrRegime.WEAK, SnrRegime.INTERMEDIATE, SnrRegime.STRONG]
    _verdict(
        8,
        "rate calculator: exact tail at beta=0, exact strong-SNR plateau, "
        "hand-labelled regimes",
        ok,
    )


def test_criterion_9_simulation_determinism(tmp_path):
    config = {
        "kind": "S1",
        "n": 10,
        "p": 100,
        "alpha": 3.0,
        "sigma": 1.0,
        "permutation": "UniformRandom",
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    payloads = []
    for threads, name in ((1, "one.csv"), (4, "four.csv")):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--reps",
                "20",
                "--seed",
                "7",
                "--output",
                str(out),
                "--threads",
                str(threads),
            ]
        )
        assert code == 0
        payloads.append(out.read_bytes())
    _verdict(
        9,
        "simulate CLI output is byte-identical across thread counts",
        payloads[0] == payloads[1],
    )


def _linear_ramp(n, p, alpha, rng):
    """eta = linspace(0, 1, p), a_i ~ U(0, alpha), then b_i ~ U(0, 6)."""
    a = rng.uniform(0.0, alpha, n)
    b = rng.uniform(0.0, 6.0, n)
    return LinearGrowthSignal(a=a, eta=np.linspace(0.0, 1.0, p), b=b)


def test_criterion_10_range_risk_against_the_minimax_rate():
    """The spectral range risk stays within a constant of the minimax rate.

    n = 50, p = 1000, sigma = 1, permuted columns, 20 seeds per point and
    alpha in {0.3, 1, 3, 10, 100}, on S1 and on the linear ramp.  Each seed's
    rate is ``minimax_rate_extreme(signal_indices(theta, 1), 50, 1000,
    "range")`` with constants 1, and each point takes the median over seeds
    of risk / rate; the test runs master seed 5.  Over master seeds 1, 2, 3,
    4, 5, 7, 11, 13 and 42 the spectral medians read 0.32-2.05, the largest
    on the ramp at alpha = 0.3, so the bound is 2.5.  The order-statistic
    medians peaked at 8.5-8.8 on S1 (alpha = 0.3) and 12.6-12.7 on the ramp
    (alpha = 1), so the multiple is 5.

    The rate's weak-regime first term is the risk of the constant-0 range:
    for theta = a eta^T + b with sum(a) > 0, (beta_R + beta_L) t / sqrt(n)
    = ||a (eta_p - eta_1)|| / sqrt(n).  It held to 1e-15 at every point.
    """
    n, p, sigma, seeds, alphas = 50, 1000, 1.0, 20, (0.3, 1.0, 3.0, 10.0, 100.0)
    spectral_bound, os_multiple = 2.5, 5.0
    ok, details = True, []
    for name, generate in (("S1", generate_s1), ("ramp", _linear_ramp)):
        os_peak = 0.0
        for alpha in alphas:
            spectral, order_stat, identity_gap = [], [], 0.0
            for r in range(seeds):
                rng = rng_stream(trial_seed(5, r))
                signal = generate(n, p, alpha, rng)
                y = synthesize_observation(signal, sigma, rng.permutation(p), rng)
                idx = signal_indices(synthesize_observation(signal, 0.0, None, rng), sigma)
                rate = minimax_rate_extreme(idx, n, p, "range")
                truth = signal.a * (signal.eta[-1] - signal.eta[0])
                spectral.append(empirical_risk(spectral_extremes(y).range, truth) / rate)
                order_stat.append(empirical_risk(order_statistic_extremes(y).range, truth) / rate)
                zero_risk = empirical_risk(np.zeros(n), truth)
                first = (idx.beta_r + idx.beta_l) * idx.t / math.sqrt(n)
                identity_gap = max(identity_gap, abs(first - zero_risk) / zero_risk)
            s_med, os_med = float(np.median(spectral)), float(np.median(order_stat))
            os_peak = max(os_peak, os_med)
            ok = ok and s_med < spectral_bound and identity_gap <= 1e-12
            details.append(f"{name} alpha={alpha:g}: spectral/rate {s_med:.3f}, "
                           f"os/rate {os_med:.3f}, identity gap {identity_gap:.1e}")
        ok = ok and os_peak > os_multiple
    _verdict(
        10,
        f"median spectral range risk stays below {spectral_bound:g} x the minimax rate "
        f"while the order statistic exceeds {os_multiple:g} x, and the constant-0 risk "
        "is the rate's first term",
        ok,
        "; ".join(details),
    )
