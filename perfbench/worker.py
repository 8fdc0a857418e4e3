"""Measured loop of one benchmark run, in a process of its own.

Usage: python3 worker.py SPEC.json RESULT.json

``run.py`` writes SPEC.json and starts this script with ``src`` on
PYTHONPATH, so its peak RSS is the program's plus the interpreter's and
nothing of the input generation or the oracle.  The program is driven only
through ``permrow.cli.main``, looked up on the module at every call so that
the tracer's re-binding takes effect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import threading
import time

import permrow.cli

from checks import missing_replicates
from tracing import Tracer, busy_seconds_off_main, self_times

# Per-layer times, from the self time of spans with these names.
LAYER_TIMES = {
    "io.load_s": "io.load",
    "io.write_s": "io.write",
    "matrix.triple_s": "matrix.triple",
    "matrix.center_s": "matrix.center",
    "matrix.rank_s": "matrix.rank",
    "estimators.spectral_self_s": "estimators.spectral",
    "estimators.os_s": "estimators.os",
    "simulation.generate_s": "simulation.generate",
    "simulation.noise_s": "simulation.noise",
    "simulation.risk_s": "simulation.risk",
    "simulation.cell_self_s": "simulation.cell",
    "cli.self_s": "cli",
}
UNIT_COUNTS = (
    "matrix.triple_calls",
    "matrix.triple_iterations",
    "matrix.triple_nonconverged",
    "simulation.failed_replicates",
)


def _read(path, code: int) -> str:
    """The output of a call, or "" when the call failed."""
    if code != 0:
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def estimate_unit(spec, tracer):
    """One ``permrow estimate`` call."""
    start = time.perf_counter()
    code = permrow.cli.main(spec["argv"])
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "work": 1, "failed": int(code != 0),
            "digest": [_digest(_read(spec["output"], code))]}


def grid_pass(spec, threads: int):
    """One ``permrow simulate`` call per grid cell at ``threads``."""
    reps = spec["reps"]
    elapsed = 0.0
    failed = 0
    digests = []
    for config, stem in zip(spec["configs"], spec["stems"]):
        output = f"{stem}_t{threads}.csv"
        argv = ["simulate", "--config", config, "--reps", str(reps),
                "--seed", str(spec["seed"]), "--output", output,
                "--threads", str(threads), "--estimators", "spectral,ds,os"]
        start = time.perf_counter()
        code = permrow.cli.main(argv)
        elapsed += time.perf_counter() - start
        text = _read(output, code)
        failed += missing_replicates(text, reps)
        digests.append(_digest(text))
    work = reps * len(spec["configs"])
    return {"seconds": elapsed, "work": work, "failed": failed, "digest": digests}


def grid_unit(spec, tracer):
    """The grid at --threads 1, then at --threads 2.  Each part keeps the
    index range of the spans that ended during it."""
    sample = {"seconds": 0.0, "work": 0, "failed": 0, "digest": []}
    for threads in (1, 2):
        first = len(tracer.spans) if tracer else 0
        part = grid_pass(spec, threads)
        part["spans"] = [first, len(tracer.spans) if tracer else 0]
        sample[f"t{threads}"] = part
        for key in ("seconds", "work", "failed", "digest"):
            sample[key] += part[key]
    return sample


def measure(unit, seconds: float, tracer=None):
    """Run whole units until ``seconds`` have passed (at least one unit)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        before = dict(tracer.counts) if tracer else {}
        sample = unit(tracer)
        if tracer:
            sample["counts"] = {k: tracer.counts.get(k, 0) - before.get(k, 0)
                                for k in UNIT_COUNTS}
        samples.append(sample)
        if time.perf_counter() >= deadline:
            return samples


def layer_metrics(tracer: Tracer, samples, main_thread: int) -> dict:
    spans = tracer.spans
    if "t1" in samples[0]:
        # Layer times come from the grid at --threads 1, where a cell's
        # children run on its own thread; pool busy time from --threads 2.
        timed = [sp for s in samples for sp in spans[slice(*s["t1"]["spans"])]]
        work = sum(s["t1"]["work"] for s in samples)
        pooled = [sp for s in samples for sp in spans[slice(*s["t2"]["spans"])]]
    else:
        timed, work, pooled = spans, sum(s["work"] for s in samples), []
    own = self_times(timed)
    per_name: dict[str, float] = {}
    for span_id, name, *_ in timed:
        per_name[name] = per_name.get(name, 0.0) + own[span_id]
    out = {metric: per_name.get(name, 0.0) / work for metric, name in LAYER_TIMES.items()}
    load_s = sum(end - start for _, name, start, end, _, _ in timed if name == "io.load")
    out["io.load_mb_per_s"] = tracer.counts.get("io.load_bytes", 0) / 1e6 / load_s if load_s else 0.0
    out.update(samples[0]["counts"])
    cell_s = sum(end - start for _, name, start, end, _, _ in pooled if name == "simulation.cell")
    out["simulation.busy_frac_t2"] = (
        busy_seconds_off_main(pooled, main_thread) / (cell_s * 2) if cell_s else 0.0
    )
    return out


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    unit = functools.partial(estimate_unit if spec["kind"] == "estimate" else grid_unit, spec)
    seconds = spec["seconds"]
    if spec["trace"]:
        result["samples"] = measure(unit, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_samples"] = measure(unit, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, result["traced_samples"], threading.get_ident())
        result["counts_repeat"] = all(
            s["counts"] == result["traced_samples"][0]["counts"] for s in result["traced_samples"]
        )
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "thread"), span))) + "\n")
    else:
        result["samples"] = measure(unit, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
