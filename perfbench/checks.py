"""Correctness checks on the program's outputs.

Each check returns a list of human-readable problems; an empty list means
the output passed.  The checks use numpy only, never permrow, so that a
defect in the program cannot hide itself.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Estimates are written with 12 significant digits and the power iteration
# stops at a 1e-10 residual, so a correct output sits orders of magnitude
# inside this bound, while a wrong direction or a dropped mean misses it.
ESTIMATE_RTOL = 1e-6

RISK_PAIRS = 9  # 3 estimators (spectral, ds, os) x 3 targets (thetaR, thetaL, range)


def spectral_oracle(y: np.ndarray) -> dict[str, np.ndarray]:
    """Spectral estimates from a full SVD of the row-centred matrix.

    The joint sign of (u, v) is fixed by the row-majority convention:
    sum_i (Xv)_i >= 0.
    """
    row_means = y.mean(axis=1)
    x = y - row_means[:, None]
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    v = vt[0]
    xv = x @ v
    if xv.sum() < 0.0:
        v, xv = -v, -xv
    theta_r = v.max() * xv + row_means
    theta_l = v.min() * xv + row_means
    return {"thetaR": theta_r, "thetaL": theta_l, "range": theta_r - theta_l}


def check_estimate_csv(text: str, ids: list[str], oracle: dict[str, np.ndarray]) -> list[str]:
    """Compare a ``permrow estimate --method spectral`` CSV against the oracle."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["sampleId", "thetaR", "thetaL", "range", "method"]:
        return [f"unexpected header {rows[:1]}"]
    body = rows[1:]
    if [r[0] for r in body] != ids:
        return [f"sample ids differ from the input ({len(body)} rows for {len(ids)} samples)"]
    if any(r[4] != "spectral" for r in body):
        return ["method column is not 'spectral' on every row"]
    problems = []
    for k, name in enumerate(("thetaR", "thetaL", "range"), start=1):
        got = np.array([float(r[k]) for r in body])
        want = oracle[name]
        err = np.abs(got - want)
        limit = ESTIMATE_RTOL * (1.0 + np.abs(want))
        bad = int(np.count_nonzero(~(err <= limit)))
        if bad:
            problems.append(
                f"{name}: {bad} of {len(want)} rows outside rtol {ESTIMATE_RTOL} "
                f"(max abs error {float(np.nanmax(err)):.3g})"
            )
    return problems


def missing_replicates(text: str, reps: int) -> int:
    """Replicates absent from a tidy risk CSV.

    A replicate counts as present only when all nine (estimator, target)
    rows carry it, so a silently dropped replicate is counted as failed.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["estimator", "target", "replicate", "risk"]:
        return reps
    seen: dict[int, int] = {}
    for row in rows[1:]:
        r = int(row[2])
        risk = float(row[3])
        if 0 <= r < reps and np.isfinite(risk) and risk >= 0.0:
            seen[r] = seen.get(r, 0) + 1
    complete = sum(1 for count in seen.values() if count == RISK_PAIRS)
    return reps - complete


def check_risk_csvs(measured: bytes, reference: bytes, reps: int, cell: str) -> list[str]:
    """The simulate CSVs of one cell at the measured and the reference thread
    count (1 and 2, either way round): identical and complete."""
    problems = []
    if measured != reference:
        problems.append(f"{cell}: CSV at --threads 1 and --threads 2 differ")
    rows = measured.count(b"\n") - 1
    if rows != reps * RISK_PAIRS:
        problems.append(f"{cell}: {rows} risk rows, expected {reps} x {RISK_PAIRS}")
    missing = missing_replicates(measured.decode("utf-8"), reps)
    if missing:
        problems.append(f"{cell}: {missing} of {reps} replicates missing")
    return problems
