import json
import math

import numpy as np
import pytest

from permrow import (
    DimensionMismatch,
    DuplicateSampleId,
    ParseError,
    load_coverage_csv,
    spectral_extremes,
    write_estimates_csv,
)
from permrow.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


COVERAGE = "sample,c1,c2,c3\ns1,-1,0,1\ns2,-2,0,2\n"


class TestLoadCoverage:
    def test_round_trip_shape(self, tmp_path):
        table = load_coverage_csv(write(tmp_path / "c.csv", COVERAGE))
        assert table.sample_ids == ("s1", "s2")
        assert table.values.shape == (2, 3)
        np.testing.assert_array_equal(table.values, [[-1, 0, 1], [-2, 0, 2]])

    def test_na_cell_named(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,NA\ns2,2,3\n"
        with pytest.raises(ParseError) as err:
            load_coverage_csv(write(tmp_path / "c.csv", bad))
        assert err.value.row == 2 and err.value.col == 3

    def test_duplicate_sample_id(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,2\ns1,3,4\n"
        with pytest.raises(DuplicateSampleId, match="at row 3"):
            load_coverage_csv(write(tmp_path / "c.csv", bad))

    def test_ragged_row(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,2\ns2,3\n"
        with pytest.raises(DimensionMismatch):
            load_coverage_csv(write(tmp_path / "c.csv", bad))

    def test_too_small(self, tmp_path):
        with pytest.raises(DimensionMismatch):
            load_coverage_csv(write(tmp_path / "c.csv", "sample,c1,c2\ns1,1,2\n"))


class TestWriteEstimates:
    def test_round_trip(self, tmp_path):
        table = load_coverage_csv(write(tmp_path / "in.csv", COVERAGE))
        est = spectral_extremes(table.values)
        out = tmp_path / "out.csv"
        write_estimates_csv(out, est, table.sample_ids)
        lines = out.read_text().splitlines()
        assert lines[0] == "sampleId,thetaR,thetaL,range,method"
        for i, line in enumerate(lines[1:]):
            sid, tr, tl, rg, method = line.split(",")
            assert sid == table.sample_ids[i]
            assert math.isclose(float(tr), est.theta_r[i], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(float(tl), est.theta_l[i], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(float(rg), est.range[i], rel_tol=1e-12, abs_tol=1e-12)
            assert method == "spectral"
            # internal consistency survives the round trip
            assert math.isclose(float(rg), float(tr) - float(tl), abs_tol=1e-10)


class TestCliEstimate:
    def run_estimate(self, tmp_path, *extra):
        inp = write(tmp_path / "in.csv", COVERAGE)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", inp, "--output", str(out), *extra])
        return code, out

    def test_spectral_default(self, tmp_path):
        code, out = self.run_estimate(tmp_path)
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = [row.split(",") for row in rows]
        assert float(values[0][1]) == pytest.approx(1.0, abs=1e-9)
        assert float(values[1][3]) == pytest.approx(4.0, abs=1e-9)

    def test_every_method_runs(self, tmp_path):
        for method in ("spectral", "regression", "ds", "os"):
            code, out = self.run_estimate(tmp_path, "--method", method)
            assert code == 0
        code, out = self.run_estimate(tmp_path, "--method", "irep", "--trim", "0")
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[1] == "" and row[2] == ""
        assert float(row[3]) == pytest.approx(2.0)

    def test_exp_scale(self, tmp_path):
        code, out = self.run_estimate(tmp_path, "--exp")
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(math.exp(2.0), rel=1e-9)

    def test_parse_error_exit_code(self, tmp_path):
        inp = write(tmp_path / "in.csv", "sample,c1,c2\ns1,1,NA\ns2,1,2\n")
        code = main(["estimate", "--input", inp, "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_degenerate_exit_code(self, tmp_path):
        inp = write(tmp_path / "in.csv", "sample,c1,c2\ns1,1,1\ns2,2,2\n")
        code = main(["estimate", "--input", inp, "--output", str(tmp_path / "o.csv")])
        assert code == 3

    def test_missing_file_exit_code(self, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--output", "o.csv"]
        )
        assert code == 2


class TestCliSimulate:
    CONFIG = {
        "kind": "S1",
        "n": 5,
        "p": 20,
        "alpha": 3.0,
        "sigma": 1.0,
        "permutation": "UniformRandom",
    }

    def test_byte_identical_across_threads(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        outputs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--reps",
                    "6",
                    "--seed",
                    "123",
                    "--output",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_output(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert (
                main(
                    ["simulate", "--config", cfg, "--reps", "3", "--seed", seed,
                     "--output", str(out)]
                )
                == 0
            )
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize(
        "extra",
        [{"sigmma": 5}, {"alpha": float("nan")}, {"n": float("inf")}],
        ids=["unknown-key", "nan-alpha", "infinite-n"],
    )
    def test_invalid_config_one_line_exit_2(self, tmp_path, capsys, extra):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.CONFIG, **extra}))
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("permrow: error:") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", "{not json")
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2


class TestCliRates:
    def test_json_output(self, capsys):
        code = main(
            ["rates", "--t", "70.7106781", "--beta-r", "0.5", "--sigma", "1",
             "--n", "100", "--p", "10000"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "intermediate"
        assert doc["psi"] == pytest.approx(math.sqrt(math.log(10000) / 100))
        assert doc["rate"] > doc["psi"]

    def test_range_rate_with_beta_l(self, capsys):
        code = main(
            ["rates", "--t", "200", "--beta-r", "0.5", "--beta-l", "0.25",
             "--sigma", "1", "--n", "100", "--p", "10000"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rateRange"] > doc["rate"]


class TestCliCompare:
    GROUPED = (
        "sampleId,group,value\n"
        "a1,A,1\na2,A,2\na3,A,3\n"
        "b1,B,2\nb2,B,3\nb3,B,4\n"
        "c1,C,3\nc2,C,4\nc3,C,5\n"
    )

    def test_f_test(self, tmp_path, capsys):
        inp = write(tmp_path / "g.csv", self.GROUPED)
        assert main(["compare", "--input", inp, "--test", "f"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["F"] == pytest.approx(3.0, abs=1e-12)
        assert (doc["df1"], doc["df2"]) == (2, 6)

    def test_pairwise_t(self, tmp_path, capsys):
        inp = write(tmp_path / "g.csv", self.GROUPED)
        code = main(
            ["compare", "--input", inp, "--test", "t", "--variant", "pooled"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["comparisons"]) == 3
        ab = doc["comparisons"][0]
        assert ab["groups"] == ["A", "B"]
        assert ab["t"] == pytest.approx(-math.sqrt(1.5), abs=1e-9)

    def test_degenerate_exit_code(self, tmp_path):
        inp = write(
            tmp_path / "g.csv",
            "sampleId,group,value\na1,A,1\na2,A,1\nb1,B,2\nb2,B,2\n",
        )
        assert main(["compare", "--input", inp, "--test", "f"]) == 3
