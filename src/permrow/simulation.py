"""Signal generators, noise/permutation synthesis, and the Monte Carlo harness.

Reproducibility contract: every replicate r of a run derives its own seed as
``trial_seed(master_seed, r)`` (a splitmix64 mix, pinned below) and draws all
randomness from a counter-based Philox stream keyed by that seed.  Within a
replicate the draw order is fixed: slopes, then intercepts, then the
permutation (if random), then the noise matrix.  A replicate takes its signal
(a, eta, b) from ``generate_s1`` or ``generate_s2`` (or the CustomLinear
spec), and ``synthesize_observation`` builds Y directly in observed column
order: eta is permuted once, never an n x p signal.  The truth is built only
at the two end columns.

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
of both ``threads`` and the BLAS thread setting.  The pin is
``matrix._one_blas_thread``: ``matrix.py`` binds that library and pins it,
and this module names none of its symbols.  Where numpy links another BLAS
(or numpy 1.x, whose symbols are not looked up), the pin does nothing and
reports may vary in their last digits with that BLAS's thread count.
"""

from __future__ import annotations

import json
import numbers
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .errors import (
    InvalidScenario, LengthMismatch, NonFiniteEstimate, NonFiniteInput, PermrowError, cut, shown
)
from .estimators import (
    EstimatorMethod,
    _direct_sorting,
    _spectral_estimate,
    irep_extremes,
    order_statistic_extremes,
)
from .matrix import _one_blas_thread, _pow2_scaled

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

TARGETS = ("thetaR", "thetaL", "range")
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
    """Linear growth signal theta_ij = a_i * eta_j + b_i, or
    log(1 + a_i * eta_j + b_i) with ``log`` (the S2 regime)."""

    a: np.ndarray
    eta: np.ndarray
    b: np.ndarray
    log: bool = False


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


def _member(enum: type[Enum], value, name: str) -> Enum:
    """The member of ``enum`` that is ``value`` or has ``value`` as its JSON value."""
    for member in enum:
        if value is member or (isinstance(value, str) and value == member.value):
            return member
    names = ", ".join(m.value for m in enum)
    raise InvalidScenario(f"{name} must be one of {names}, got {shown(value)}")


def _integer(value, name: str) -> int:
    """``value`` as an int when it is an integer; ``int()`` would truncate 10.7 to 10."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidScenario(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float when it is a real number; ``float()`` would read
    "3" as 3.0 and True as 1.0.  NaN and infinity pass, for the spec's own check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidScenario(f"{name} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidScenario(f"malformed scenario config: {name} is too large for a float") from None


def _vector(entry, noun: str, value, name: str) -> tuple | None:
    """None for None, else ``value`` as a tuple of ``entry``-checked items
    when it is a list or tuple; a string or a scalar is rejected."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise InvalidScenario(f"{name} must be a list of {noun}, got {shown(value)}")
    return tuple(entry(x, f"{name} entry") for x in value)


_reals = partial(_vector, _real, "numbers")
# the scenario config format: JSON key -> (ScenarioSpec field, its check), in
# the order that to_json_dict writes and __post_init__ checks them
_JSON_FIELDS = {
    "kind": ("kind", partial(_member, ScenarioKind)),
    "n": ("n", _integer),
    "p": ("p", _integer),
    "alpha": ("alpha", _real),
    "sigma": ("sigma", _real),
    "permutation": ("permutation", partial(_member, PermutationKind)),
    "seed": ("seed", _integer),
    "givenPermutation": ("given_permutation", partial(_vector, _integer, "integers")),
    "a": ("a", _reals),
    "eta": ("eta", _reals),
    "b": ("b", _reals),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration of one simulation cell; JSON round-trippable.

    Every field is checked here, for a JSON config and a Python caller alike:
    ``kind`` and ``permutation`` may be given as their JSON values, ``n``,
    ``p``, ``seed`` and the permutation entries must be integers, and the
    other numbers real (stored as floats); a vector must be a list or tuple,
    and is stored as a tuple.  A wrong type raises ``InvalidScenario``.
    """

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
        for key, (name, check) in _JSON_FIELDS.items():
            object.__setattr__(self, name, check(getattr(self, name), key))
        if self.n < 2 or self.p < 3:
            raise InvalidScenario("scenario requires n >= 2 and p >= 3")
        if not np.isfinite([self.alpha, self.sigma]).all():
            raise NonFiniteInput("alpha and sigma must be finite")
        if self.alpha <= 0:
            raise InvalidScenario("alpha must be positive")
        if self.sigma < 0:
            raise InvalidScenario("sigma must be nonnegative")
        # a vector that the run would not read is an error, not silently dropped
        given = self.permutation is PermutationKind.GIVEN
        if given != (self.given_permutation is not None):
            raise InvalidScenario("given_permutation goes with, and only with, permutation 'Given'")
        if given and sorted(self.given_permutation) != list(range(self.p)):
            raise InvalidScenario(f"given_permutation is not a permutation of 0..{self.p - 1}")
        custom = self.kind is ScenarioKind.CUSTOM_LINEAR
        if [x is not None for x in (self.a, self.eta, self.b)] != [custom] * 3:
            raise InvalidScenario("a, eta and b go with, and only with, kind 'CustomLinear'")
        if custom and (len(self.a), len(self.eta), len(self.b)) != (self.n, self.p, self.n):
            raise LengthMismatch("CustomLinear a and b need length n, eta length p")
        if custom and not np.isfinite(np.concatenate([self.a, self.eta, self.b])).all():
            raise NonFiniteInput("CustomLinear a, eta and b must be finite")

    def to_json_dict(self) -> dict:
        doc = {}
        for key, (name, _) in _JSON_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, Enum):
                doc[key] = value.value
            elif value is not None:
                doc[key] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_json_dict(cls, doc) -> "ScenarioSpec":
        if not isinstance(doc, dict):
            raise InvalidScenario("scenario config must be a JSON object")
        unknown = sorted(doc.keys() - _JSON_FIELDS.keys())
        if unknown:
            raise InvalidScenario(f"unknown scenario config keys: {cut(', '.join(unknown))}")
        for key in ("kind", "n", "p"):
            if key not in doc:
                raise InvalidScenario(f"scenario config lacks the key {key!r}")
        return cls(**{_JSON_FIELDS[key][0]: value for key, value in doc.items()})


def _draw_signal(
    kind: ScenarioKind, n: int, p: int, alpha: float, rng: np.random.Generator
) -> LinearGrowthSignal:
    """S1 or S2: slopes a_i ~ U(0, alpha) and then intercepts b_i ~ U(0, 6)
    from ``rng``; eta = (-1, 0, ..., 0, 1) for S1, 1..p for S2."""
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
    return LinearGrowthSignal(a=a, eta=eta, b=b, log=kind is ScenarioKind.S2)


def generate_s1(n: int, p: int, alpha: float, rng: np.random.Generator) -> LinearGrowthSignal:
    """S1 regime: a_i ~ U(0, alpha), b_i ~ U(0, 6), eta = (-1, 0, ..., 0, 1)."""
    return _draw_signal(ScenarioKind.S1, n, p, alpha, rng)


def generate_s2(n: int, p: int, alpha: float, rng: np.random.Generator) -> LinearGrowthSignal:
    """S2 regime: theta_ij = log(1 + a_i * j + b_i), j = 1..p; not rank-one."""
    return _draw_signal(ScenarioKind.S2, n, p, alpha, rng)


def synthesize_observation(
    signal: LinearGrowthSignal,
    sigma: float,
    pi,
    rng: np.random.Generator,
    buffers: _Buffers | None = None,
) -> np.ndarray:
    """Y with column j equal to signal column pi^{-1}(j) plus sigma * N(0, 1) noise.

    ``pi`` maps original to observed positions (0-based; ``None`` is the
    identity).  Y is built in ``buffers[0]`` and the noise drawn into
    ``buffers[1]`` when they are given, else in new arrays; sigma == 0 draws none.
    An entry that overflows is left inf or NaN, with no numpy warning: the
    estimators reject a non-finite Y.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    eta = signal.eta if pi is None else signal.eta[np.argsort(pi)]
    y_out, noise_out = (None, None) if buffers is None else buffers
    with np.errstate(all="ignore"):
        y = _growth_signal(signal.a, eta, signal.b, signal.log, out=y_out)
        if sigma > 0:
            z = rng.standard_normal(y.shape, out=noise_out)
            z *= sigma
            y += z
    return y


def empirical_risk(estimate, truth) -> float:
    """Normalized l2 distance ||estimate - truth||_2 / sqrt(n), n >= 1.

    The norm is taken on the difference d divided by 2**k (exact) where
    max |d| is far enough from 1 that the sum of squares would overflow or
    go subnormal; see ``matrix._pow2_scaled``.  A risk that overflows all
    the same raises NonFiniteEstimate, with no numpy warning."""
    e = np.asarray(estimate, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if e.size != t.size:
        raise LengthMismatch(f"length {e.size} vs {t.size}")
    if e.size == 0:
        raise ValueError("empirical_risk needs at least one entry")
    with np.errstate(all="ignore"):
        d = e - t
        scaled, k = _pow2_scaled(d, float(np.abs(d).max(initial=0.0)))
        risk = float(np.ldexp(np.linalg.norm(scaled) / np.sqrt(d.size), k))
    if not np.isfinite(risk):
        raise NonFiniteEstimate("a risk overflowed to a non-finite value")
    return risk


@dataclass(frozen=True)
class RiskSummary:
    """One (estimator, target) column of a run's risks and its statistics.

    ``risks`` is indexed by replicate, NaN marking a failed replicate; the
    record keeps a read-only copy of the column it is given.  ``mean``,
    ``std`` (ddof 1), ``q1``, ``median`` and ``q3`` of the surviving risks
    are computed together on first read: std is 0.0 for one survivor, and
    all five are NaN when every replicate failed.
    """

    estimator: str
    target: str
    risks: np.ndarray

    def __post_init__(self):
        risks = np.array(self.risks, dtype=float)
        risks.flags.writeable = False  # so that a computed statistic cannot go stale
        object.__setattr__(self, "risks", risks)

    def __reduce__(self):
        # pickle and copy rebuild through __post_init__, which a plain
        # restore of the instance dict would skip, leaving the risks writable
        return RiskSummary, (self.estimator, self.target, self.risks)

    @cached_property
    def _stats(self) -> tuple[float, float, float, float, float]:
        """(mean, std, q1, median, q3), on the risks divided by 2**e (exact),
        so that the sums cannot overflow."""
        ok = self.risks[~np.isnan(self.risks)]
        if not ok.size:
            return (float("nan"),) * 5
        scaled, e = _pow2_scaled(ok, float(ok.max()))
        q1, median, q3 = np.ldexp(np.percentile(scaled, [25.0, 50.0, 75.0]), e)
        std = float(np.ldexp(scaled.std(ddof=1), e)) if ok.size > 1 else 0.0
        return float(np.ldexp(scaled.mean(), e)), std, float(q1), float(median), float(q3)

    mean = property(lambda self: self._stats[0])
    std = property(lambda self: self._stats[1])
    q1 = property(lambda self: self._stats[2])
    median = property(lambda self: self._stats[3])
    q3 = property(lambda self: self._stats[4])


def _json_number(value: float) -> float | None:
    """``value``, or None (JSON null) for NaN: the risk of a failed replicate,
    or a statistic of a column whose every replicate failed."""
    return None if np.isnan(value) else value


@dataclass(frozen=True)
class RiskReport:
    spec: ScenarioSpec
    reps: int
    estimators: tuple[str, ...]
    summaries: tuple[RiskSummary, ...] = field(repr=False)
    # (replicate, exception class name, message) of each failed replicate
    failures: tuple[tuple[int, str, str], ...] = ()

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
            "masterSeed": self.spec.seed,
            "estimators": list(self.estimators),
            "failedReplicates": list(self.failed_replicates),
            "summaries": [
                {
                    "estimator": s.estimator,
                    "target": s.target,
                    "mean": _json_number(s.mean),
                    "std": _json_number(s.std),
                    "q1": _json_number(s.q1),
                    "median": _json_number(s.median),
                    "q3": _json_number(s.q3),
                    "risks": [_json_number(r) for r in s.risks],
                }
                for s in self.summaries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def write_csv(self, path) -> None:
        """Tidy CSV: estimator, target, replicate, risk (failed rows omitted)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("estimator,target,replicate,risk\n")
            for s in self.summaries:
                fh.writelines(
                    f"{s.estimator},{s.target},{r},{risk:.17g}\n"
                    for r, risk in enumerate(s.risks.tolist()) if not np.isnan(risk)
                )


def _generate_replicate(
    spec: ScenarioSpec, rng: np.random.Generator, buffers: _Buffers | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(Y, (theta_r, theta_l, range)) of one replicate, the truth read off
    the unpermuted signal's end columns; Y is built in ``buffers[0]`` and the
    noise drawn into ``buffers[1]`` when they are given.  The generators are
    looked up as module globals at each call, so a re-binding takes effect."""
    if spec.kind is ScenarioKind.CUSTOM_LINEAR:
        signal = LinearGrowthSignal(*(np.array(x, float) for x in (spec.a, spec.eta, spec.b)))
    else:
        generate = generate_s1 if spec.kind is ScenarioKind.S1 else generate_s2
        signal = generate(spec.n, spec.p, spec.alpha, rng)
    if spec.permutation is PermutationKind.IDENTITY:
        pi = None
    elif spec.permutation is PermutationKind.UNIFORM_RANDOM:
        pi = rng.permutation(spec.p)
    else:
        pi = np.asarray(spec.given_permutation, dtype=np.int64)
    y = synthesize_observation(signal, spec.sigma, pi, rng, buffers)
    theta_l, theta_r = _growth_signal(signal.a, signal.eta[[0, -1]], signal.b, signal.log).T.copy()
    return y, (theta_r, theta_l, theta_r - theta_l)


def _replicate_risks(
    spec: ScenarioSpec, r: int, estimators: Sequence[str], buffers: _Buffers | None = None
) -> list[float]:
    """Replicate r's risks, in the pair order of ``run_monte_carlo``; the
    spectral and DS risks are read off one spectral estimate.  With
    ``buffers``, Y is built in ``buffers[0]`` and centered into
    ``buffers[1]`` once the noise drawn there has been added."""
    y, truths = _generate_replicate(spec, rng_stream(trial_seed(spec.seed, r)), buffers)
    spectral = None
    risks = []
    for name in estimators:
        if name == "os":
            est = order_statistic_extremes(y)
        elif name == "irep":
            est = irep_extremes(y)
        else:
            if spectral is None:
                spectral = _spectral_estimate(y, out=None if buffers is None else buffers[1])
            est = _direct_sorting(y, spectral) if name == "ds" else spectral
        for got, want in zip((est.theta_r, est.theta_l, est.range), truths):
            if got is not None:  # irep estimates the range only
                risks.append(empirical_risk(got, want))
    return risks


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
    column.  The estimators are the ones ``permrow estimate`` runs, and take
    no settings: the spectral family orients v by the row-majority sign of
    ``leading_singular_triple``, and irep trims ``IREP_TRIM`` (5%) of each end.

    The report depends only on (spec, estimators, reps); ``threads`` changes
    wall-clock time, never the result (see the module docstring for the BLAS
    thread pin that makes this hold).  A replicate that raises a package
    error (e.g. a zero centered matrix under alpha -> 0), or whose risk
    overflows, leaves its row NaN, is recorded in ``failures`` with its
    exception class and message, and is excluded from the summaries.
    An empty, unknown or repeated estimator name raises ``ValueError``, and
    so does a worker thread that the system cannot start.
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
        raise ValueError(f"unknown estimators: {shown(unknown)}")
    repeated = sorted({e for e in estimators if estimators.count(e) > 1})
    if repeated:
        raise ValueError(f"repeated estimators: {shown(repeated)}")

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
            # imported here, not at the top: with the logging it loads, it
            # would add a few ms to every import of the package
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                try:  # each submit starts a pool thread until there are ``workers``
                    futures = [pool.submit(job, r) for r in range(reps)]
                except RuntimeError as exc:
                    pool.shutdown(cancel_futures=True)
                    raise ValueError(f"cannot start {workers} worker threads: {exc}") from None
                for future in futures:
                    future.result()
        else:
            for r in range(reps):
                job(r)

    return RiskReport(
        spec=spec,
        reps=reps,
        estimators=estimators,
        summaries=tuple(RiskSummary(e, t, risks[:, k]) for k, (e, t) in enumerate(pairs)),
        failures=tuple(sorted(failures)),
    )
