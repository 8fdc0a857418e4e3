"""permrow benchmark: seeded workloads, correctness checks, one JSON result line.

Usage:

    python3 perfbench/run.py --workload estimate-wide --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Human-readable
lines come first; the last line of standard output is the JSON result.  The
exit code is 0 only when every correctness check passed.  See README.md in
this directory for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
from checks import check_estimate_csv, check_risk_csvs, spectral_oracle

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 8
GRID_REPS = 20  # replicates per grid cell and call

# name -> (kind, parameters); BENCHMARK.json records why each was chosen.
WORKLOADS = {
    "estimate-wide": ("estimate", {"n": 200, "p": 20000}),
    "estimate-tall": ("estimate", {"n": 2000, "p": 500}),
    "simulate-grid": ("simulate", {}),
}
# Every per-layer metric of a traced run, with its unit.  Layers a workload
# does not call report 0.
LAYER_UNITS = {
    "io.load_s": "s",
    "io.load_mb_per_s": "MB/s",
    "io.write_s": "s",
    "matrix.triple_s": "s",
    "matrix.triple_calls": "count",
    "matrix.triple_iterations": "count",
    "matrix.triple_nonconverged": "count",
    "matrix.center_s": "s",
    "matrix.rank_s": "s",
    "estimators.spectral_self_s": "s",
    "estimators.os_s": "s",
    "simulation.generate_s": "s",
    "simulation.noise_s": "s",
    "simulation.risk_s": "s",
    "simulation.cell_self_s": "s",
    "simulation.failed_replicates": "count",
    "simulation.busy_frac_t2": "ratio",
    "simulation.scaling_eff": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Core count, interpreter, numpy and BLAS, and BLAS/OMP thread variables as found."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_vars": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env: dict, probes: int) -> list[float]:
    """Fresh interpreter until ``import permrow.cli`` returns."""
    argv = [sys.executable, "-c", "import permrow.cli"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def high_percentile(values: list[float]):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99, 95, 90, 75, 50):
        k = int(np.ceil(q / 100.0 * len(ordered))) - 1
        if k >= 0 and len(ordered) - 1 - k >= 10:
            return q, ordered[k]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<20} median {statistics.median(values):.6g} {unit}"
    pct = high_percentile(values)
    if pct:
        line += f"  p{pct[0]} {pct[1]:.6g} {unit}"
    else:
        line += "  (no percentile has ten samples beyond it)"
    return line + f"  n={len(values)}"


def prepare_estimate(work: str, seed: int, n: int, p: int) -> dict:
    y = inputs.coverage_matrix(seed, n, p)
    path = os.path.join(work, "coverage.csv")
    inputs.write_coverage_csv(path, y)
    output = os.path.join(work, "estimates.csv")
    return {
        "kind": "estimate",
        "argv": ["estimate", "--input", path, "--output", output, "--method", "spectral"],
        "output": output,
        "oracle": spectral_oracle(y),
        "ids": inputs.sample_ids(n),
    }


def prepare_simulate(work: str, seed: int) -> dict:
    configs = inputs.write_grid_configs(work)
    return {
        "kind": "simulate",
        "configs": configs,
        "stems": [c[: -len(".json")] for c in configs],
        "reps": GRID_REPS,
        "seed": seed,
    }


def read_output(path) -> bytes:
    """A program output, or b"" when the program wrote none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def check_estimate(spec: dict) -> list[str]:
    text = read_output(spec["output"]).decode("utf-8")
    problems = check_estimate_csv(text, spec["ids"], spec["oracle"])
    if problems:
        return problems
    # The check must reject a slightly perturbed copy of the same output.
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-4 * (1.0 + abs(float(fields[1]))))
    lines[1] = ",".join(fields)
    if not check_estimate_csv("\n".join(lines), spec["ids"], spec["oracle"]):
        return ["oracle check accepted a perturbed estimate"]
    return []


def check_simulate(spec: dict) -> list[str]:
    problems = []
    for cell, stem in zip(inputs.grid_cells(), spec["stems"]):
        problems += check_risk_csvs(
            read_output(f"{stem}_t1.csv"),
            read_output(f"{stem}_t2.csv"),
            spec["reps"],
            f"{cell['kind']} n={cell['n']}",
        )
    return problems


def run(args) -> int:
    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "permrow", "cli.py")):
        print(f"perfbench: no permrow sources under {src}", file=sys.stderr)
        return 2
    kind, params = WORKLOADS[args.workload]
    env = child_env(src)
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    out_dir = os.path.join(base, "out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Byte-compile the package first: users pay that once per install,
        # and the probes then read the same cache whether or not the
        # environment sets PYTHONDONTWRITEBYTECODE.  The timed probes are
        # split around the measured loop, so they sample the machine over
        # the whole run.
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(src, "permrow")],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        setup = setup_times(env, SETUP_PROBES // 2)
        if kind == "estimate":
            spec = prepare_estimate(work, args.seed, **params)
        else:
            spec = prepare_simulate(work, args.seed, **params)
        worker_spec = {k: v for k, v in spec.items() if k not in ("oracle", "ids")}
        worker_spec.update(seconds=args.seconds, trace=args.trace,
                           spans_path=os.path.join(out_dir, tag + ".spans.jsonl"))
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(worker_spec, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            env=env, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        setup += setup_times(env, SETUP_PROBES - SETUP_PROBES // 2)
        problems = (check_estimate if kind == "estimate" else check_simulate)(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    runs = samples + result.get("traced_samples", [])
    first = runs[0]["digest"]
    if any(s["digest"] != first for s in runs):
        problems.append("outputs differ between repeated calls on the same input")
    if kind == "simulate" and any(s["t1"]["digest"] != s["t2"]["digest"] for s in runs):
        problems.append("a pass at --threads 2 wrote other bytes than at --threads 1")
    if args.trace and not result["counts_repeat"]:
        problems.append("per-pass counts differ between repeated passes on the same input")
    attempted = sum(s["work"] for s in runs)
    failed = sum(s["failed"] for s in runs)

    op_s = [s["seconds"] / s["work"] for s in samples]
    env_record = environment()
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
             "env " + json.dumps(env_record),
             describe("setup_s", setup, "s")]
    if kind == "estimate":
        lines.append(describe("estimate_s", op_s, "s"))
    else:
        rates = {t: [s[t]["work"] / s[t]["seconds"] for s in samples] for t in ("t1", "t2")}
        lines.append(describe("sim_reps_per_s", rates["t1"], "1/s"))
        lines.append(describe("sim_reps_per_s_t2", rates["t2"], "1/s"))
    lines.append(f"{'peak_rss_mb':<20} {result['peak_rss_mb']:.6g} MB")
    lines.append(f"{'failed_frac':<20} {failed / attempted:.6g} ({failed}/{attempted})")
    lines += [f"check failed: {p}" for p in problems] or ["checks passed"]

    if args.trace:
        layers = dict(result["layers"])
        traced = [s["seconds"] / s["work"] for s in result["traced_samples"]]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(op_s)
        layers["simulation.scaling_eff"] = (
            statistics.median(rates["t2"]) / (2.0 * statistics.median(rates["t1"]))
            if kind == "simulate" else 0.0
        )
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        lines.append(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    record = {"env": env_record, "setup_s": setup, "result": result,
              "problems": problems, "metrics": metrics}
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
