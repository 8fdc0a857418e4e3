"""Signal generators, noise/permutation synthesis, and the Monte Carlo harness.

Reproducibility contract: every replicate r of a run derives its own seed as
``trial_seed(master_seed, r)`` (a splitmix64 mix, pinned below) and draws all
randomness from a counter-based Philox stream keyed by that seed.  Within a
replicate the draw order is fixed: slopes, then intercepts, then the
permutation (if random), then the noise matrix.  A replicate builds Y
directly in observed column order, and its truth only at the two end
columns; Y and the truth are byte for byte those of ``generate_s1`` or
``generate_s2`` (or the CustomLinear signal) composed with
``synthesize_observation`` on the same stream, since every entry comes from
the same float operations.

``run_monte_carlo`` gives each of its worker threads two C-ordered float64
(n, p) buffers, allocated at the thread's first replicate and dropped when
the call returns.  A replicate builds Y in the first, draws its noise into
the second, and then centres Y into the second; only the place where these
results are written changes, not their bytes.  Nothing a report or an
estimate keeps points into a buffer.

While ``run_monte_carlo`` runs its replicates it holds the OpenBLAS that
numpy links at one thread, and restores the previous count when it returns or
raises; parallelism comes only from its ``threads`` pool.  Each replicate's
Gram product and eigensolve then round the same way whatever the BLAS thread
count, so reports are pure functions of (spec, estimators, reps), independent
of both ``threads`` and the BLAS thread setting.  Where numpy links another
BLAS (or numpy 1.x, whose symbols are not looked up), the pin does nothing and
reports may vary in their last digits with that BLAS's thread count.
"""

from __future__ import annotations

import functools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidScenario, LengthMismatch, NonFiniteEstimate, NonFiniteInput, PermrowError
from .estimators import (
    EstimatorMethod,
    _direct_sorting_from_context,
    _regression_from_context,
    _spectral_context,
    _spectral_from_context,
    irep_range,
    order_statistic_extremes,
)
from .matrix import _openblas_function, _pow2_exponent

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

TARGETS = ("thetaR", "thetaL", "range")
_JSON_KEYS = frozenset(
    ("kind", "n", "p", "alpha", "sigma", "permutation", "seed", "givenPermutation", "a", "eta", "b")
)
DEFAULT_ESTIMATORS = ("spectral", "ds", "os")
# two C-ordered float64 (n, p) arrays that one thread reuses across replicates
_Buffers = tuple[np.ndarray, np.ndarray]


def splitmix64(z: int) -> int:
    """One step of the splitmix64 mixer (Steele, Lea & Flood constants)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, replicate: int) -> int:
    """Pinned per-replicate seed derivation."""
    return splitmix64((master_seed & _MASK64) ^ splitmix64(replicate + 1))


def rng_stream(seed: int) -> np.random.Generator:
    """Counter-based generator; identical streams on every platform."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


class ScenarioKind(Enum):
    S1 = "S1"
    S2 = "S2"
    CUSTOM_LINEAR = "CustomLinear"


class PermutationKind(Enum):
    IDENTITY = "Identity"
    UNIFORM_RANDOM = "UniformRandom"
    GIVEN = "Given"


@dataclass(frozen=True)
class LinearGrowthSignal:
    """Rank-one linear growth signal theta_ij = a_i * eta_j + b_i."""

    a: np.ndarray
    eta: np.ndarray
    b: np.ndarray

    def theta(self) -> np.ndarray:
        return _growth_signal(self.a, self.eta, self.b, log=False)


def _growth_signal(
    a: np.ndarray, eta: np.ndarray, b: np.ndarray, log: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """theta_ij = a_i * eta_j + b_i, or log(1 + a_i * eta_j + b_i) with
    ``log``, in ``out`` or else in one new n x len(eta) array."""
    theta = np.multiply(a[:, None], eta[None, :], out=out)
    theta += b[:, None]
    if log:
        np.log1p(theta, out=theta)
    return theta


@dataclass(frozen=True)
class GroundTruth:
    """Unpermuted signal matrix with its extreme columns, range, and the
    permutation that was applied to produce the observation.  A Monte Carlo
    replicate builds only the extremes and the range; its ``theta`` is None."""

    theta: np.ndarray | None
    theta_r: np.ndarray
    theta_l: np.ndarray
    range: np.ndarray
    pi: np.ndarray | None = None


def _json_int(value, name: str) -> int:
    """``value`` when it is a JSON integer; ``int()`` would truncate 10.7 to 10."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidScenario(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration of one simulation cell; JSON round-trippable."""

    kind: ScenarioKind
    n: int
    p: int
    alpha: float = 1.0
    sigma: float = 1.0
    permutation: PermutationKind = PermutationKind.UNIFORM_RANDOM
    seed: int = 0
    given_permutation: tuple[int, ...] | None = None
    a: tuple[float, ...] | None = None
    eta: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 2 or self.p < 3:
            raise InvalidScenario("scenario requires n >= 2 and p >= 3")
        if not np.isfinite([self.alpha, self.sigma]).all():
            raise NonFiniteInput("alpha and sigma must be finite")
        if self.alpha <= 0:
            raise InvalidScenario("alpha must be positive")
        if self.sigma < 0:
            raise InvalidScenario("sigma must be nonnegative")
        if self.permutation is PermutationKind.GIVEN and self.given_permutation is None:
            raise InvalidScenario("permutation 'Given' requires given_permutation")
        if self.given_permutation is not None and sorted(self.given_permutation) != list(
            range(self.p)
        ):
            raise InvalidScenario(f"given_permutation is not a permutation of 0..{self.p - 1}")
        if self.kind is ScenarioKind.CUSTOM_LINEAR:
            if self.a is None or self.eta is None or self.b is None:
                raise InvalidScenario("CustomLinear requires explicit a, eta and b")
            if (len(self.a), len(self.eta), len(self.b)) != (self.n, self.p, self.n):
                raise LengthMismatch("CustomLinear a and b need length n, eta length p")
            if not np.isfinite(np.concatenate([self.a, self.eta, self.b])).all():
                raise NonFiniteInput("CustomLinear a, eta and b must be finite")

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind.value,
            "n": self.n,
            "p": self.p,
            "alpha": self.alpha,
            "sigma": self.sigma,
            "permutation": self.permutation.value,
            "seed": self.seed,
        }
        if self.given_permutation is not None:
            doc["givenPermutation"] = list(self.given_permutation)
        if self.a is not None:
            doc["a"] = list(self.a)
            doc["eta"] = list(self.eta)
            doc["b"] = list(self.b)
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise InvalidScenario("scenario config must be a JSON object")
        unknown = sorted(set(doc) - _JSON_KEYS)
        if unknown:
            raise InvalidScenario(f"unknown scenario config keys: {', '.join(unknown)}")
        try:
            fields = dict(
                kind=ScenarioKind(doc["kind"]),
                n=_json_int(doc["n"], "n"),
                p=_json_int(doc["p"], "p"),
                alpha=float(doc.get("alpha", 1.0)),
                sigma=float(doc.get("sigma", 1.0)),
                permutation=PermutationKind(doc.get("permutation", "UniformRandom")),
                seed=_json_int(doc.get("seed", 0), "seed"),
                given_permutation=(
                    tuple(_json_int(j, "givenPermutation entry") for j in doc["givenPermutation"])
                    if "givenPermutation" in doc
                    else None
                ),
                a=tuple(float(x) for x in doc["a"]) if "a" in doc else None,
                eta=tuple(float(x) for x in doc["eta"]) if "eta" in doc else None,
                b=tuple(float(x) for x in doc["b"]) if "b" in doc else None,
            )
        except KeyError as exc:
            raise InvalidScenario(f"scenario config lacks the key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidScenario(f"malformed scenario config: {exc}") from None
        return cls(**fields)


def _truth_from_theta(theta: np.ndarray) -> GroundTruth:
    return GroundTruth(
        theta=theta,
        theta_r=theta[:, -1].copy(),
        theta_l=theta[:, 0].copy(),
        range=theta[:, -1] - theta[:, 0],
        pi=None,
    )


def _draw_signal(
    kind: ScenarioKind, n: int, p: int, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, eta, b) of S1 or S2: slopes a_i ~ U(0, alpha) and then intercepts
    b_i ~ U(0, 6) from ``rng``; eta = (-1, 0, ..., 0, 1) for S1, 1..p for S2."""
    if p < 3:
        raise ValueError(f"{kind.value} requires p >= 3")
    a = rng.uniform(0.0, alpha, n)
    b = rng.uniform(0.0, 6.0, n)
    if kind is ScenarioKind.S1:
        eta = np.zeros(p)
        eta[0] = -1.0
        eta[-1] = 1.0
    else:
        eta = np.arange(1, p + 1, dtype=float)
    return a, eta, b


def generate_s1(
    n: int, p: int, alpha: float, rng: np.random.Generator
) -> tuple[LinearGrowthSignal, GroundTruth]:
    """S1 regime: a_i ~ U(0, alpha), b_i ~ U(0, 6), eta = (-1, 0, ..., 0, 1)."""
    a, eta, b = _draw_signal(ScenarioKind.S1, n, p, alpha, rng)
    signal = LinearGrowthSignal(a=a, eta=eta, b=b)
    return signal, _truth_from_theta(signal.theta())


def generate_s2(
    n: int, p: int, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, GroundTruth]:
    """S2 regime: theta_ij = log(1 + a_i * j + b_i), j = 1..p; not rank-one."""
    a, j, b = _draw_signal(ScenarioKind.S2, n, p, alpha, rng)
    theta = _growth_signal(a, j, b, log=True)
    return theta, _truth_from_theta(theta)


def _add_noise(
    y: np.ndarray, sigma: float, rng: np.random.Generator, scratch: np.ndarray | None = None
) -> np.ndarray:
    """y += sigma * N(0, 1) noise, in place, with the noise drawn into
    ``scratch`` (an array of y's shape) or else a new array; nothing is drawn
    when sigma == 0."""
    if sigma > 0:
        z = rng.standard_normal(y.shape, out=scratch)
        z *= sigma
        y += z
    return y


def synthesize_observation(
    theta, sigma: float, pi, rng: np.random.Generator
) -> np.ndarray:
    """Y with column j equal to theta column pi^{-1}(j) plus sigma * N(0, 1) noise.

    ``pi`` is a 0-based array mapping original positions to observed
    positions; ``None`` means identity.  No noise is drawn when sigma == 0.
    """
    theta = np.asarray(theta, dtype=float)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if pi is None:
        y = theta.copy()
    else:
        # C order, as the replicate builds Y: the Gram product rounds by layout
        y = np.take(theta, np.argsort(np.asarray(pi, dtype=np.int64)), axis=1)
    return _add_noise(y, sigma, rng)


def _rms(d: np.ndarray) -> float:
    """||d||_2 / sqrt(len(d)), on d divided by 2**e (exact) where max |d| is
    far enough from 1 that the sum of squares would overflow or go
    subnormal; see ``matrix._pow2_exponent``."""
    e = _pow2_exponent(float(np.abs(d).max(initial=0.0)))
    if e == 0:
        return float(np.linalg.norm(d) / np.sqrt(d.size))
    return float(np.ldexp(np.linalg.norm(np.ldexp(d, -e)) / np.sqrt(d.size), e))


def empirical_risk(estimate, truth) -> float:
    """Normalized l2 distance ||estimate - truth||_2 / sqrt(n)."""
    e = np.asarray(estimate, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if e.size != t.size:
        raise LengthMismatch(f"length {e.size} vs {t.size}")
    return _rms(e - t)


@dataclass(frozen=True)
class RiskSummary:
    estimator: str
    target: str
    risks: np.ndarray  # indexed by replicate; NaN marks a failed replicate
    mean: float
    std: float
    q1: float
    median: float
    q3: float


@dataclass(frozen=True)
class RiskReport:
    spec: ScenarioSpec
    reps: int
    estimators: tuple[str, ...]
    summaries: tuple[RiskSummary, ...] = field(repr=False)
    # (replicate, exception class name, message) of each failed replicate
    failures: tuple[tuple[int, str, str], ...] = ()

    @property
    def master_seed(self) -> int:
        return self.spec.seed

    @property
    def failed_replicates(self) -> tuple[int, ...]:
        return tuple(r for r, _, _ in self.failures)

    def summary(self, estimator: str, target: str) -> RiskSummary:
        for s in self.summaries:
            if s.estimator == estimator and s.target == target:
                return s
        raise KeyError((estimator, target))

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "reps": self.reps,
            "masterSeed": self.master_seed,
            "estimators": list(self.estimators),
            "failedReplicates": list(self.failed_replicates),
            "summaries": [
                {
                    "estimator": s.estimator,
                    "target": s.target,
                    "mean": s.mean,
                    "std": s.std,
                    "q1": s.q1,
                    "median": s.median,
                    "q3": s.q3,
                    "risks": [None if np.isnan(r) else r for r in s.risks],
                }
                for s in self.summaries
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def write_csv(self, path) -> None:
        """Tidy CSV: estimator, target, replicate, risk (failed rows omitted)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("estimator,target,replicate,risk\n")
            for s in self.summaries:
                for r, risk in enumerate(s.risks):
                    if np.isnan(risk):
                        continue
                    fh.write(f"{s.estimator},{s.target},{r},{risk:.17g}\n")


def _generate_replicate(
    spec: ScenarioSpec, rng: np.random.Generator, buffers: _Buffers | None = None
) -> tuple[np.ndarray, GroundTruth]:
    """(Y, truth) of one replicate, with Y built directly in observed column
    order: eta is permuted once, not the n x p signal.  Y is written into
    ``buffers[0]`` and the noise drawn into ``buffers[1]`` when they are
    given; otherwise both are new arrays."""
    if spec.kind is ScenarioKind.CUSTOM_LINEAR:
        a, eta, b = (np.asarray(x, dtype=float) for x in (spec.a, spec.eta, spec.b))
    else:
        a, eta, b = _draw_signal(spec.kind, spec.n, spec.p, spec.alpha, rng)
    log = spec.kind is ScenarioKind.S2

    if spec.permutation is PermutationKind.IDENTITY:
        pi = None
    elif spec.permutation is PermutationKind.UNIFORM_RANDOM:
        pi = rng.permutation(spec.p)
    else:
        pi = np.asarray(spec.given_permutation, dtype=np.int64)
    eta_observed = eta if pi is None else eta[np.argsort(pi)]
    y_out, noise_out = (None, None) if buffers is None else buffers
    y = _growth_signal(a, eta_observed, b, log, out=y_out)
    _add_noise(y, spec.sigma, rng, scratch=noise_out)
    theta_l, theta_r = _growth_signal(a, eta[[0, -1]], b, log).T.copy()
    truth = GroundTruth(
        theta=None, theta_r=theta_r, theta_l=theta_l, range=theta_r - theta_l, pi=pi
    )
    return y, truth


@functools.cache
def _openblas_thread_calls():
    """(get, set) of numpy's OpenBLAS thread count, or None where not found."""
    import ctypes

    get = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_ = _openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


# OpenBLAS's thread count is process-wide, so the bookkeeping of who holds it
# at one thread is too.
_blas_lock = threading.Lock()
_blas_depth = 0  # run_monte_carlo calls inside _one_blas_thread
_blas_saved = 0  # thread count to restore when the last of them leaves


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread; overlapping uses from several threads nest."""
    global _blas_depth, _blas_saved
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


_FROM_CONTEXT = {
    "spectral": _spectral_from_context,
    "regression": _regression_from_context,
    "ds": _direct_sorting_from_context,
}


def _replicate_risks(
    spec: ScenarioSpec, r: int, estimators: Sequence[str], buffers: _Buffers | None = None
) -> list[float]:
    """Replicate r's risks, in the pair order of ``run_monte_carlo``; the
    spectral, regression and DS estimates share one eigensolve.  With
    ``buffers``, Y is built in ``buffers[0]`` and centered into
    ``buffers[1]`` once the noise drawn there has been added."""
    y, truth = _generate_replicate(spec, rng_stream(trial_seed(spec.seed, r)), buffers)
    truths = (truth.theta_r, truth.theta_l, truth.range)
    ctx = None
    risks = []
    for name in estimators:
        if name == "irep":
            risks.append(empirical_risk(irep_range(y), truth.range))
            continue
        if name == "os":
            est = order_statistic_extremes(y)
        else:
            if ctx is None:
                ctx = _spectral_context(y, out=None if buffers is None else buffers[1])
            est = _FROM_CONTEXT[name](ctx)
        for got, want in zip((est.theta_r, est.theta_l, est.range), truths):
            risks.append(empirical_risk(got, want))
    if not np.isfinite(risks).all():
        raise NonFiniteEstimate("a risk overflowed to a non-finite value")
    return risks


def _summarize(estimator: str, target: str, risks: np.ndarray) -> RiskSummary:
    ok = risks[~np.isnan(risks)]
    if ok.size:
        # on risks divided by 2**e (exact), so that the sums cannot overflow
        e = _pow2_exponent(float(ok.max()))
        scaled = np.ldexp(ok, -e)
        q1, med, q3 = np.ldexp(np.percentile(scaled, [25.0, 50.0, 75.0]), e)
        mean = float(np.ldexp(scaled.mean(), e))
        std = float(np.ldexp(scaled.std(ddof=1), e)) if ok.size > 1 else 0.0
    else:
        q1 = med = q3 = mean = std = float("nan")
    return RiskSummary(
        estimator=estimator,
        target=target,
        risks=risks,
        mean=mean,
        std=std,
        q1=float(q1),
        median=float(med),
        q3=float(q3),
    )


def run_monte_carlo(
    spec: ScenarioSpec,
    estimators: Sequence[str] = DEFAULT_ESTIMATORS,
    reps: int = 200,
    threads: int = 1,
) -> RiskReport:
    """Run ``reps`` independent replicates of a scenario and summarize risks.

    Each estimator is scored on thetaR, thetaL and range, except irep, which
    estimates the range only.  Replicate r fills row r of a (reps, pairs)
    risk array, and each (estimator, target) summary is computed from its
    column.  The spectral, regression and DS estimators use the row-majority
    sign convention, and irep trims 5% of each end.

    The report depends only on (spec, estimators, reps); ``threads`` changes
    wall-clock time, never the result (see the module docstring for the BLAS
    thread pin that makes this hold).  A replicate that raises a package
    error (e.g. a zero centered matrix under alpha -> 0), or whose risk
    overflows, leaves its row NaN, is recorded in ``failures`` with its
    exception class and message, and is excluded from the summaries.
    An empty, unknown or repeated estimator name raises ``ValueError``.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    estimators = tuple(estimators)
    if not estimators:
        raise ValueError("no estimator given")
    known = {e.value for e in EstimatorMethod}
    unknown = [e for e in estimators if e not in known]
    if unknown:
        raise ValueError(f"unknown estimators: {unknown}")
    repeated = sorted({e for e in estimators if estimators.count(e) > 1})
    if repeated:
        raise ValueError(f"repeated estimators: {repeated}")

    pairs = [(e, t) for e in estimators for t in (("range",) if e == "irep" else TARGETS)]
    risks = np.full((reps, len(pairs)), np.nan)
    failures = []
    local = threading.local()  # each thread's buffers, dropped with this call

    def job(r: int) -> None:
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = (np.empty((spec.n, spec.p)), np.empty((spec.n, spec.p)))
        # numpy's error state is per thread, so each job sets its own; an
        # overflow shows as a package error or as a non-finite risk
        try:
            with np.errstate(all="ignore"):
                risks[r] = _replicate_risks(spec, r, estimators, buffers)
        except PermrowError as exc:
            failures.append((r, type(exc).__name__, str(exc)))

    workers = min(threads, reps)
    with _one_blas_thread():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(job, range(reps)))
        else:
            for r in range(reps):
                job(r)

    return RiskReport(
        spec=spec,
        reps=reps,
        estimators=estimators,
        summaries=tuple(_summarize(e, t, risks[:, k].copy()) for k, (e, t) in enumerate(pairs)),
        failures=tuple(sorted(failures)),
    )
