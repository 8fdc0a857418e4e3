"""Tests of the benchmark's own correctness checks.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import inputs
from checks import RISK_PAIRS, check_estimate_csv, check_risk_csvs, spectral_oracle


def _estimate_csv(ids, est) -> str:
    rows = ["sampleId,thetaR,thetaL,range,method"]
    for i, sid in enumerate(ids):
        rows.append(f"{sid},{est['thetaR'][i]:.12g},{est['thetaL'][i]:.12g},"
                    f"{est['range'][i]:.12g},spectral")
    return "\n".join(rows) + "\n"


def test_estimate_check_accepts_oracle_and_rejects_perturbation():
    y = inputs.coverage_matrix(seed=3, n=20, p=300)
    ids = inputs.sample_ids(20)
    oracle = spectral_oracle(y)
    assert check_estimate_csv(_estimate_csv(ids, oracle), ids, oracle) == []

    perturbed = {k: v.copy() for k, v in oracle.items()}
    perturbed["thetaL"][7] += 1e-4 * (1.0 + abs(perturbed["thetaL"][7]))
    assert check_estimate_csv(_estimate_csv(ids, perturbed), ids, oracle)

    flipped = {"thetaR": oracle["thetaL"], "thetaL": oracle["thetaR"], "range": -oracle["range"]}
    assert check_estimate_csv(_estimate_csv(ids, flipped), ids, oracle)


def _risk_csv(reps, drop=None) -> bytes:
    rows = ["estimator,target,replicate,risk"]
    for est in ("spectral", "ds", "os"):
        for target in ("thetaR", "thetaL", "range"):
            rows += [f"{est},{target},{r},{0.5 + r / 100}" for r in range(reps) if r != drop]
    return ("\n".join(rows) + "\n").encode()


def test_risk_check_flags_thread_difference_and_dropped_replicate():
    reps = 5
    good = _risk_csv(reps)
    assert good.count(b"\n") - 1 == reps * RISK_PAIRS
    assert check_risk_csvs(good, good, reps, "cell") == []
    assert check_risk_csvs(good, good.replace(b"0.51", b"0.52"), reps, "cell")
    dropped = _risk_csv(reps, drop=2)
    problems = check_risk_csvs(dropped, dropped, reps, "cell")
    assert any("1 of 5 replicates missing" in p for p in problems)

