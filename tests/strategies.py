"""Hypothesis inputs shared by the estimator and scenario property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from permrow import PermutationKind, ScenarioKind, ScenarioSpec, center_rows


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# CSV cells: moderate floats, and values whose sums, differences, squares or
# exponentials overflow
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["1e308", "-1e308", "1.7e308", "-1.7e308", "800", "-800", "0"]),
)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Valid specs of every kind and permutation, kind and permutation given
    as the enum member or its JSON value, with integers and floats over
    their whole JSON range."""
    kind = draw(st.sampled_from(ScenarioKind))
    permutation = draw(st.sampled_from(PermutationKind))
    n, p = draw(st.integers(2, 6)), draw(st.integers(3, 8))
    fields = dict(
        kind=draw(st.sampled_from([kind, kind.value])),
        n=n,
        p=p,
        alpha=draw(st.floats(min_value=5e-324, allow_infinity=False)),
        sigma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        permutation=draw(st.sampled_from([permutation, permutation.value])),
        seed=draw(st.integers(-(2**70), 2**70)),
    )
    if permutation is PermutationKind.GIVEN:
        fields["given_permutation"] = tuple(draw(st.permutations(range(p))))
    if kind is ScenarioKind.CUSTOM_LINEAR:
        for name, length in (("a", n), ("eta", p), ("b", n)):
            fields[name] = tuple(draw(st.lists(FINITE, min_size=length, max_size=length)))
    return ScenarioSpec(**fields)
