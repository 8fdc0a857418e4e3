"""The ``permrow`` command line interface.

Subcommands: estimate (CSV in, CSV out), simulate (Monte Carlo risk report),
rates (rate calculator, JSON to stdout), compare (F / t tests on grouped
values, JSON to stdout).

Exit codes: 0 success, 2 parse/validation error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys

import numpy as np

from .errors import InputError, InvalidScenario, NonFiniteEstimate, NumericalDegeneracyError
from .errors import cut, shown
from .estimators import (
    EstimatorMethod,
    _finite,
    direct_sorting_extremes,
    irep_extremes,
    order_statistic_extremes,
    regression_extremes,
    spectral_extremes,
)
from .io import load_coverage_csv, load_grouped_csv, write_estimates_csv
from .simulation import DEFAULT_ESTIMATORS, ScenarioSpec, run_monte_carlo
from .stats import TTestVariant, f_test_oneway, t_test_two_sample
from .theory import SignalIndices, classify_snr, minimax_rate_extreme, rate_psi


def _cmd_estimate(args) -> int:
    table = load_coverage_csv(args.input)
    # built per call, so that a name re-bound in this module (as a tracer does) is the one run
    estimate = {
        EstimatorMethod.SPECTRAL: spectral_extremes,
        EstimatorMethod.REGRESSION: regression_extremes,
        EstimatorMethod.DIRECT_SORTING: direct_sorting_extremes,
        EstimatorMethod.ORDER_STATISTIC: order_statistic_extremes,
        EstimatorMethod.IREP: irep_extremes,
    }[EstimatorMethod(args.method)]
    est = estimate(table.values)
    if args.exp:
        est = _finite(lambda: dataclasses.replace(
            est,
            theta_r=None if est.theta_r is None else np.exp(est.theta_r),
            theta_l=None if est.theta_l is None else np.exp(est.theta_l),
            range=np.exp(est.range),
        ))
    write_estimates_csv(args.output, est, table.sample_ids)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise InvalidScenario("scenario config is nested too deeply") from None
    spec = dataclasses.replace(ScenarioSpec.from_json_dict(doc), seed=args.seed)
    report = run_monte_carlo(
        spec,
        estimators=tuple(args.estimators.split(",")),
        reps=args.reps,
        threads=args.threads,
    )
    if report.failures:
        _, name, message = report.failures[0]
        if len(report.failures) == report.reps:
            raise NumericalDegeneracyError(
                f"all {report.reps} replicates failed, the first with {name}: {message}"
            )
        print(
            f"permrow: warning: {len(report.failures)} of {report.reps} replicates "
            f"failed, the first with {name}; the risk CSV leaves them out",
            file=sys.stderr,
        )
    report.write_csv(args.output)
    return 0


def _cmd_rates(args) -> int:
    beta_l = args.beta_l if args.beta_l is not None else args.beta_r
    idx = SignalIndices(t=args.t, beta_r=args.beta_r, beta_l=beta_l, sigma=args.sigma)
    out = {
        "psi": rate_psi(args.n, args.p),
        "rate": minimax_rate_extreme(idx, args.n, args.p, target="right"),
        "regime": classify_snr(args.t, args.sigma, args.n, args.p).value,
    }
    if args.beta_l is not None:
        out["rateRange"] = minimax_rate_extreme(idx, args.n, args.p, target="range")
    _print_json(out)
    return 0


def _cmd_compare(args) -> int:
    groups = load_grouped_csv(args.input)
    if args.test == "f":
        result = f_test_oneway([values for _, values in groups])
        out = {
            "test": "f",
            "groups": [label for label, _ in groups],
            "F": result.statistic,
            "df1": result.df1,
            "df2": result.df2,
            "pValue": result.p_value,
        }
    else:
        variant = TTestVariant(args.variant)
        comparisons = []
        for (la, va), (lb, vb) in itertools.combinations(groups, 2):
            result = t_test_two_sample(va, vb, variant)
            comparisons.append(
                {
                    "groups": [la, lb],
                    "t": result.statistic,
                    "df": result.df,
                    "pValue": result.p_value,
                }
            )
        out = {"test": "t", "variant": variant.value, "comparisons": comparisons}
    _print_json(out)
    return 0


def _print_json(doc: dict) -> None:
    """Print ``doc`` as JSON; a NaN or infinity in it raises NonFiniteEstimate."""
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        raise NonFiniteEstimate("a result overflowed to a non-finite value") from None
    print(text)


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one line, cut to 200 bytes: argparse's
    own wording is shorter, so only a long echoed value is cut.  The
    subparsers are of this class."""

    def error(self, message):
        self.exit(2, f"permrow: error: {cut(message, 200)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permrow",
        description="Extreme-column and log peak-to-trough ratio estimation "
        "for column-permuted monotone matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate extremes from a coverage CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--output", required=True)
    est.add_argument(
        "--method",
        default=EstimatorMethod.SPECTRAL.value,
        choices=[m.value for m in EstimatorMethod],
    )
    est.add_argument("--exp", action="store_true", help="emit exp-scale values (ePTR)")
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="run a Monte Carlo risk study")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True, help="master seed (overrides config)")
    sim.add_argument("--output", required=True, help="tidy risk CSV path")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument(
        "--estimators",
        default=",".join(DEFAULT_ESTIMATORS),
        help="comma-separated subset of " + ",".join(m.value for m in EstimatorMethod),
    )
    sim.set_defaults(func=_cmd_simulate)

    rates = sub.add_parser("rates", help="evaluate the minimax rate calculator")
    rates.add_argument("--t", type=float, required=True)
    rates.add_argument("--beta-r", dest="beta_r", type=float, required=True)
    rates.add_argument("--beta-l", dest="beta_l", type=float, default=None)
    rates.add_argument("--sigma", type=float, required=True)
    rates.add_argument("--n", type=int, required=True)
    rates.add_argument("--p", type=int, required=True)
    rates.set_defaults(func=_cmd_rates)

    cmp_ = sub.add_parser("compare", help="group comparison tests on estimated values")
    cmp_.add_argument("--input", required=True, help="CSV with sampleId,group,value")
    cmp_.add_argument("--test", default="f", choices=["f", "t"])
    cmp_.add_argument("--variant", default="welch", choices=["welch", "pooled"])
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        path = getattr(exc, "filename", None)  # an OSError's, which str(exc) echoes whole
        message = exc if path is None else f"[Errno {exc.errno}] {exc.strerror}: {shown(path)}"
        print(f"permrow: error: {message}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"permrow: error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"permrow: numerical degeneracy: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
