"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` re-binds the attributes named in its ``TARGETS``
and reads counters off the results of two of them.  A renamed or deleted
name would otherwise show only in the benchmark's own traced run.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from permrow import cli, simulation
from permrow import (
    PermutationKind,
    ScenarioKind,
    ScenarioSpec,
    center_rows,
    leading_singular_triple,
    run_monte_carlo,
)

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr", [t[:2] for t in tracing.TARGETS], ids=[f"{m}.{a}" for m, a, _ in tracing.TARGETS]
)
def test_every_target_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_triple_counters_read_a_real_singular_triple():
    y = np.random.default_rng(3).normal(size=(6, 9))
    triple = leading_singular_triple(center_rows(y))
    assert tracing._count_result("matrix.triple", (y,), triple) == {
        "matrix.triple_calls": 1,
        "matrix.triple_iterations": triple.iterations,
        "matrix.triple_nonconverged": int(not triple.converged),
    }


def test_cell_counter_reads_a_real_risk_report():
    # alpha = 5e-324 and sigma = 0 leave most replicates a zero centred matrix
    spec = ScenarioSpec(
        kind=ScenarioKind.S1, n=2, p=5, alpha=5e-324, sigma=0.0,
        permutation=PermutationKind.IDENTITY, seed=0,
    )
    report = run_monte_carlo(spec, reps=6)
    assert report.failed_replicates
    assert tracing._count_result("simulation.cell", (spec,), report) == {
        "simulation.failed_replicates": len(report.failed_replicates)
    }


def test_runs_call_the_names_the_tracer_rebinds(tmp_path, monkeypatch):
    """``estimate`` and ``simulate`` look their estimators up by these names
    at each call, so a re-binding (the tracer's spans) sees every call.  A
    table bound at import time would still resolve, and leave the spans empty."""
    calls = []

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(cli, "spectral_extremes", counting("spectral", cli.spectral_extremes))
    monkeypatch.setattr(
        simulation, "order_statistic_extremes",
        counting("os", simulation.order_statistic_extremes),
    )
    table = tmp_path / "in.csv"
    table.write_text("sample,c1,c2,c3\ns1,-1,0,1\ns2,-2,0,3\n", encoding="utf-8")
    out = str(tmp_path / "out.csv")
    assert cli.main(["estimate", "--input", str(table), "--output", out]) == 0
    assert calls == ["spectral"]
    config = tmp_path / "s1.json"
    config.write_text('{"kind": "S1", "n": 4, "p": 12, "alpha": 3.0, "sigma": 1.0}', encoding="utf-8")
    argv = ["simulate", "--config", str(config), "--reps", "3", "--seed", "5",
            "--estimators", "os", "--output", out]
    assert cli.main(argv) == 0
    assert calls == ["spectral", "os", "os", "os"]
