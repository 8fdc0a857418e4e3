"""Seeded inputs for the permrow benchmark.

Everything here is a pure function of the seed, so two runs with the same
``--seed`` hand the program byte-identical files.  The program sees only
these files; it never sees the seed or the generating parameters.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Criterion-5 grid: both signal designs at three sample sizes.
GRID_KINDS = ("S1", "S2")
GRID_NS = (50, 100, 150)
GRID_P = 1000
# Written precision of the coverage CSVs; the oracle uses the rounded values.
CSV_DECIMALS = 6


def coverage_matrix(seed: int, n: int, p: int) -> np.ndarray:
    """Rank-one growth signal a_i * eta_j + b_i plus N(0, 1) noise, columns permuted.

    ``eta`` is a centred linear ramp over the replication axis, so the
    leading singular value sits far above the noise bulk and the spectral
    estimate is well defined.  Values are rounded to the written precision.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, n, p])
    a = rng.uniform(0.5, 3.0, n)
    b = rng.uniform(0.0, 6.0, n)
    eta = np.linspace(-1.0, 1.0, p)
    y = a[:, None] * eta[None, :] + b[:, None] + rng.standard_normal((n, p))
    y = y[:, rng.permutation(p)]
    return np.round(y, CSV_DECIMALS)


def sample_ids(n: int) -> list[str]:
    return [f"sample{i:05d}" for i in range(n)]


def write_coverage_csv(path, y: np.ndarray) -> None:
    """Header row, then one row per sample: id followed by the p values."""
    n, p = y.shape
    fmt = f"%.{CSV_DECIMALS}f"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sampleId," + ",".join(f"pos{j}" for j in range(p)) + "\n")
        for sid, row in zip(sample_ids(n), y):
            fh.write(sid + ",")
            fh.flush()
            row.tofile(fh, sep=",", format=fmt)
            fh.write("\n")


def grid_cells() -> list[dict]:
    """Scenario configs of the criterion-5 cells (the master seed comes from --seed)."""
    return [
        {
            "kind": kind,
            "n": n,
            "p": GRID_P,
            "alpha": 3.0,
            "sigma": 1.0,
            "permutation": "UniformRandom",
        }
        for kind in GRID_KINDS
        for n in GRID_NS
    ]


def write_grid_configs(directory) -> list[str]:
    """One scenario JSON per grid cell; returns the paths in grid order."""
    paths = []
    for cell in grid_cells():
        path = os.path.join(directory, f"{cell['kind']}_n{cell['n']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cell, fh)
        paths.append(path)
    return paths
