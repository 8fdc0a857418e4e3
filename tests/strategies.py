"""Hypothesis inputs shared by the estimator property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from permrow import center_rows


def gapped_matrix(n: int, p: int, seed: int, noise: float, exponent: int) -> np.ndarray:
    """Rank-one growth signal plus noise, times 2**exponent; its top singular
    value is kept apart from the second so that the direction is defined."""
    rng = np.random.default_rng(seed)
    y = np.outer(rng.uniform(0.5, 3.0, n), rng.normal(size=p)) + rng.uniform(0.0, 6.0, n)[:, None]
    y = np.ldexp(y + noise * rng.normal(size=(n, p)), exponent)
    s = np.linalg.svd(center_rows(y).values, compute_uv=False)
    assume(s[1] <= 0.9 * s[0])
    return y


SHAPES = dict(
    n=st.integers(2, 40),
    p=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    exponent=st.sampled_from([0, 500, -500]),
)
