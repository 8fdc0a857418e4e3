"""Signal generators, noise/permutation synthesis, and the Monte Carlo harness.

Reproducibility contract: every replicate r of a run derives its own seed as
``trial_seed(master_seed, r)`` (a splitmix64 mix, pinned below) and draws all
randomness from a counter-based Philox stream keyed by that seed.  Reports
are therefore pure functions of (spec, estimators, reps) and independent of
thread count.  Within a replicate the draw order is fixed: slopes, then
intercepts, then the permutation (if random), then the noise matrix.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidScenario, LengthMismatch, NonFiniteInput, PermrowError
from .estimators import (
    EstimatorMethod,
    _direct_sorting_from_context,
    _regression_from_context,
    _spectral_context,
    _spectral_from_context,
    irep_range,
    order_statistic_extremes,
)
from .matrix import SignConvention

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

TARGETS = ("thetaR", "thetaL", "range")
_JSON_KEYS = frozenset(
    ("kind", "n", "p", "alpha", "sigma", "permutation", "seed", "givenPermutation", "a", "eta", "b")
)
DEFAULT_ESTIMATORS = ("spectral", "ds", "os")


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
        return self.a[:, None] * self.eta[None, :] + self.b[:, None]


@dataclass(frozen=True)
class GroundTruth:
    """Unpermuted signal matrix with its extreme columns, range, and the
    permutation that was applied to produce the observation."""

    theta: np.ndarray
    theta_r: np.ndarray
    theta_l: np.ndarray
    range: np.ndarray
    pi: np.ndarray | None = None


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
                n=int(doc["n"]),
                p=int(doc["p"]),
                alpha=float(doc.get("alpha", 1.0)),
                sigma=float(doc.get("sigma", 1.0)),
                permutation=PermutationKind(doc.get("permutation", "UniformRandom")),
                seed=int(doc.get("seed", 0)),
                given_permutation=(
                    tuple(int(j) for j in doc["givenPermutation"])
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


def generate_s1(
    n: int, p: int, alpha: float, rng: np.random.Generator
) -> tuple[LinearGrowthSignal, GroundTruth]:
    """S1 regime: a_i ~ U(0, alpha), b_i ~ U(0, 6), eta = (-1, 0, ..., 0, 1)."""
    if p < 3:
        raise ValueError("S1 requires p >= 3")
    a = rng.uniform(0.0, alpha, n)
    b = rng.uniform(0.0, 6.0, n)
    eta = np.zeros(p)
    eta[0] = -1.0
    eta[-1] = 1.0
    signal = LinearGrowthSignal(a=a, eta=eta, b=b)
    return signal, _truth_from_theta(signal.theta())


def generate_s2(
    n: int, p: int, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, GroundTruth]:
    """S2 regime: theta_ij = log(1 + a_i * j + b_i), j = 1..p; not rank-one."""
    if p < 3:
        raise ValueError("S2 requires p >= 3")
    a = rng.uniform(0.0, alpha, n)
    b = rng.uniform(0.0, 6.0, n)
    j = np.arange(1, p + 1, dtype=float)
    theta = np.log1p(a[:, None] * j[None, :] + b[:, None])
    return theta, _truth_from_theta(theta)


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
        pi = np.asarray(pi, dtype=np.int64)
        inverse = np.argsort(pi)
        y = theta[:, inverse]
    if sigma > 0:
        y = y + sigma * rng.standard_normal(theta.shape)
    return y


def empirical_risk(estimate, truth, align: bool = False, counterpart=None) -> float:
    """Normalized l2 distance ||estimate - truth||_2 / sqrt(n).

    With ``align`` set and a swapped-extreme ``counterpart`` supplied, the
    smaller of the two risks is returned (oracle R/L alignment).
    """
    e = np.asarray(estimate, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if e.size != t.size:
        raise LengthMismatch(f"length {e.size} vs {t.size}")
    risk = float(np.linalg.norm(e - t) / np.sqrt(t.size))
    if align and counterpart is not None:
        c = np.asarray(counterpart, dtype=float).ravel()
        if c.size != t.size:
            raise LengthMismatch(f"length {c.size} vs {t.size}")
        risk = min(risk, float(np.linalg.norm(c - t) / np.sqrt(t.size)))
    return risk


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
    failed_replicates: tuple[int, ...] = ()

    @property
    def master_seed(self) -> int:
        return self.spec.seed

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


def _generate_replicate(spec: ScenarioSpec, rng: np.random.Generator):
    if spec.kind is ScenarioKind.S1:
        _, truth = generate_s1(spec.n, spec.p, spec.alpha, rng)
    elif spec.kind is ScenarioKind.S2:
        _, truth = generate_s2(spec.n, spec.p, spec.alpha, rng)
    else:
        signal = LinearGrowthSignal(
            a=np.asarray(spec.a, dtype=float),
            eta=np.asarray(spec.eta, dtype=float),
            b=np.asarray(spec.b, dtype=float),
        )
        truth = _truth_from_theta(signal.theta())

    if spec.permutation is PermutationKind.IDENTITY:
        pi = None
    elif spec.permutation is PermutationKind.UNIFORM_RANDOM:
        pi = rng.permutation(spec.p)
    else:
        pi = np.asarray(spec.given_permutation, dtype=np.int64)
    truth = replace(truth, pi=pi)
    y = synthesize_observation(truth.theta, spec.sigma, pi, rng)
    return y, truth


def _replicate_risks(
    spec: ScenarioSpec,
    r: int,
    estimators: Sequence[str],
    align: bool,
    convention: SignConvention,
    trim_fraction: float,
) -> dict[tuple[str, str], float]:
    rng = rng_stream(trial_seed(spec.seed, r))
    y, truth = _generate_replicate(spec, rng)

    out: dict[tuple[str, str], float] = {}
    spectral_like = [e for e in estimators if e in ("spectral", "regression", "ds")]
    if spectral_like:
        ctx = _spectral_context(y, convention=convention)
        builders = {
            "spectral": _spectral_from_context,
            "regression": _regression_from_context,
            "ds": _direct_sorting_from_context,
        }
        for name in spectral_like:
            est = builders[name](ctx)
            out[(name, "thetaR")] = empirical_risk(
                est.theta_r, truth.theta_r, align, est.theta_l
            )
            out[(name, "thetaL")] = empirical_risk(
                est.theta_l, truth.theta_l, align, est.theta_r
            )
            out[(name, "range")] = empirical_risk(
                est.range, truth.range, align, -est.range
            )
    if "os" in estimators:
        est = order_statistic_extremes(y)
        out[("os", "thetaR")] = empirical_risk(est.theta_r, truth.theta_r)
        out[("os", "thetaL")] = empirical_risk(est.theta_l, truth.theta_l)
        out[("os", "range")] = empirical_risk(est.range, truth.range, align, -est.range)
    if "irep" in estimators:
        rng_hat = irep_range(y, trim_fraction=trim_fraction)
        out[("irep", "range")] = empirical_risk(rng_hat, truth.range, align, -rng_hat)
    return out


def run_monte_carlo(
    spec: ScenarioSpec,
    estimators: Sequence[str] = DEFAULT_ESTIMATORS,
    reps: int = 200,
    threads: int = 1,
    align: bool = False,
    convention: SignConvention = SignConvention.ROW_MAJORITY,
    trim_fraction: float = 0.05,
) -> RiskReport:
    """Run ``reps`` independent replicates of a scenario and summarize risks.

    The report depends only on (spec, estimators, reps); ``threads`` changes
    wall-clock time, never the result.  A replicate that raises a package
    error (e.g. a zero centered matrix under alpha -> 0) is recorded as
    failed and excluded from the summaries.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    estimators = tuple(estimators)
    known = {e.value for e in EstimatorMethod}
    unknown = [e for e in estimators if e not in known]
    if unknown:
        raise ValueError(f"unknown estimators: {unknown}")

    def job(r: int):
        try:
            return r, _replicate_risks(spec, r, estimators, align, convention, trim_fraction)
        except PermrowError:
            return r, None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(pool.map(job, range(reps)))
    else:
        results = dict(map(job, range(reps)))

    failed = tuple(r for r in range(reps) if results[r] is None)
    pairs = [
        (e, t)
        for e in estimators
        for t in TARGETS
        if not (e == "irep" and t != "range")
    ]
    summaries = []
    for estimator, target in pairs:
        risks = np.full(reps, np.nan)
        for r in range(reps):
            if results[r] is not None:
                risks[r] = results[r][(estimator, target)]
        ok = risks[~np.isnan(risks)]
        if ok.size:
            q1, med, q3 = np.percentile(ok, [25.0, 50.0, 75.0])
            mean = float(ok.mean())
            std = float(ok.std(ddof=1)) if ok.size > 1 else 0.0
        else:
            q1 = med = q3 = mean = std = float("nan")
        summaries.append(
            RiskSummary(
                estimator=estimator,
                target=target,
                risks=risks,
                mean=mean,
                std=std,
                q1=float(q1),
                median=float(med),
                q3=float(q3),
            )
        )
    return RiskReport(
        spec=spec,
        reps=reps,
        estimators=estimators,
        summaries=tuple(summaries),
        failed_replicates=failed,
    )
