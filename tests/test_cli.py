from __future__ import annotations

import json

import pytest

from sequences import REF, rate_params, quality_params, synthetic_log
from starq.cli import main
from starq.fileio import ModelFile, write_model_file
from starq import QualityParams, ResolutionRef

CITY = rate_params("city")
CITY_Q = quality_params("city")


def write_log_csv(path, log):
    lines = ["q,width,height,fps,rate_kbps"]
    for sample in log.samples:
        star = sample.star
        # frame size is width*height; emit a 1-row-wide frame to keep it exact
        lines.append(f"{star.q!r},{star.s!r},1,{star.t!r},{sample.rate!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def city_log_csv(tmp_path):
    return write_log_csv(tmp_path / "city.csv", synthetic_log(CITY))


@pytest.fixture
def city_model_json(tmp_path):
    path = tmp_path / "city.json"
    write_model_file(path, ModelFile(ref=REF, scenario="city", rate=CITY, quality=CITY_Q))
    return path


def parse_table(stdout):
    values = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2:
            values[parts[0]] = parts[1]
    return values


class TestFit:
    def test_fit_recovers_table_values(self, city_log_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["fit", str(city_log_csv), "--out", str(out)]) == 0
        table = parse_table(capsys.readouterr().out)
        assert float(table["a"]) == pytest.approx(1.394, rel=1e-6)
        assert float(table["b"]) == pytest.approx(0.547, rel=1e-6)
        assert float(table["c"]) == pytest.approx(1.114, rel=1e-6)
        assert float(table["R_max"]) == pytest.approx(2379.0, rel=1e-6)
        assert float(table["PC"]) >= 0.999999
        doc = json.loads(out.read_text())
        assert doc["rate"]["a"] == pytest.approx(1.394, rel=1e-6)

    def test_empty_file_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty)]) == 2

    def test_missing_anchor_is_insufficient_data(self, tmp_path):
        # smallest stepsize appears only at the small frame size, so no sample
        # sits at the derived (q_min, s_max, t_max) corner
        log = tmp_path / "log.csv"
        log.write_text(
            "q,width,height,fps,rate_kbps\n"
            "16,176,144,30,90\n26,704,576,30,800\n64,704,576,30,300\n26,704,576,15,550\n"
        )
        assert main(["fit", str(log), "--mode", "protocol"]) == 3

    def test_deterministic_output(self, city_log_csv, capsys):
        assert main(["fit", str(city_log_csv)]) == 0
        first = capsys.readouterr().out
        assert main(["fit", str(city_log_csv)]) == 0
        assert capsys.readouterr().out == first


class TestPredictRate:
    def test_single_point_matches_table(self, city_model_json, capsys):
        assert main(["predict-rate", str(city_model_json), "--q", "16", "--s", "4cif", "--t", "30"]) == 0
        assert capsys.readouterr().out.strip() == "2379"

    def test_sweep_is_monotone_csv(self, city_model_json, capsys):
        rc = main(
            [
                "predict-rate", str(city_model_json),
                "--q", "16", "--s", "4cif",
                "--sweep", "t", "--sweep-from", "1.875", "--sweep-to", "30", "--points", "12",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,s,t,rate_kbps"
        rates = [float(line.split(",")[3]) for line in lines[1:]]
        assert len(rates) == 12
        assert all(x < y for x, y in zip(rates, rates[1:]))

    def test_measured_vs_predicted_with_log(self, city_model_json, city_log_csv, capsys):
        assert main(["predict-rate", str(city_model_json), "--log", str(city_log_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,s,t,measured_kbps,predicted_kbps"
        assert len(lines) == 61

    def test_malformed_model_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["predict-rate", str(bad), "--q", "16", "--s", "4cif", "--t", "30"]) == 2


class TestOptimize:
    def test_full_budget_returns_corner(self, city_model_json, capsys):
        assert main(["optimize", str(city_model_json), "--budget", "2379"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 16.0
        assert doc["s"] == float(REF.s_max)
        assert doc["t"] == 30.0
        assert doc["quality"] == 1.0
        assert doc["feasible"] is True

    def test_budget_sweep_quality_increases(self, city_model_json, capsys):
        assert main(["optimize", str(city_model_json), "--budget-sweep", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "budget_kbps,q,s,t,rate_kbps,quality"
        qualities = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(x < y for x, y in zip(qualities, qualities[1:]))

    def test_mismatched_references_is_input_error(self, city_model_json, tmp_path):
        other_ref = ResolutionRef(q_min=8.0, s_max=REF.s_max, t_max=REF.t_max)
        quality_doc = tmp_path / "quality.json"
        write_model_file(
            quality_doc,
            ModelFile(
                ref=other_ref,
                quality=QualityParams(alpha_q=7.25, alpha_s_tilde=3.52, alpha_t=4.10, ref=other_ref),
            ),
        )
        rc = main(
            ["optimize", str(city_model_json), "--quality-model", str(quality_doc), "--budget", "500"]
        )
        assert rc == 2

    def test_dyadic_requires_sets(self, city_model_json):
        assert main(["optimize", str(city_model_json), "--mode", "dyadic", "--budget", "500"]) == 2

    def test_dyadic_infeasible_budget(self, city_model_json, tmp_path):
        sets = tmp_path / "sets.json"
        sets.write_text(
            json.dumps(
                {"s_values": ["qcif", "cif", "4cif"], "t_values": [3.75, 7.5, 15, 30], "q_range": [16, 104]}
            )
        )
        rc = main(
            [
                "optimize", str(city_model_json),
                "--mode", "dyadic", "--sets", str(sets), "--budget", "0.5",
            ]
        )
        assert rc == 4


SWEEP_T = ["--q", "16", "--s", "4cif", "--sweep", "t", "--sweep-to", "30"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["predict-rate", *SWEEP_T, "--sweep-from", "0"], "--sweep-from and --sweep-to must"),
        (["predict-rate", *SWEEP_T, "--sweep-from", "-2"], "--sweep-from and --sweep-to must"),
        (["predict-rate", *SWEEP_T, "--sweep-from", "1.875", "--points", "0"], "--points must"),
        (["optimize", "--budget-sweep", "0"], "--budget-sweep must"),
    ],
    ids=["sweep-from-zero", "sweep-from-negative", "zero-points", "zero-budget-sweep"],
)
def test_bad_sweep_arguments_are_input_errors(city_model_json, capsys, extra, message):
    argv = [extra[0], str(city_model_json), *extra[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


class TestOrder:
    def write_levels(self, tmp_path, s_values):
        levels = tmp_path / "levels.json"
        levels.write_text(
            json.dumps({"s_values": s_values, "t_values": [3.75, 7.5, 15, 30], "q_levels": [64, 40, 26, 16]})
        )
        return levels

    def test_amplitude_only_path(self, city_model_json, tmp_path, capsys):
        levels = tmp_path / "levels.json"
        levels.write_text(json.dumps({"s_values": ["4cif"], "t_values": [30], "q_levels": [64, 40, 26, 16]}))
        assert main(["order", str(city_model_json), "--levels", str(levels)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [step["q"] for step in doc["steps"]] == [64.0, 40.0, 26.0, 16.0]
        assert all(step["s"] == float(REF.s_max) for step in doc["steps"])

    def test_backward_gap_not_worse(self, city_model_json, tmp_path, capsys):
        levels = self.write_levels(tmp_path, ["qcif", "cif", "4cif"])
        assert main(["order", str(city_model_json), "--levels", str(levels), "--direction", "forward"]) == 0
        forward = json.loads(capsys.readouterr().out)
        assert main(["order", str(city_model_json), "--levels", str(levels), "--direction", "backward"]) == 0
        backward = json.loads(capsys.readouterr().out)
        assert backward["max_rate_gap_fraction"] <= forward["max_rate_gap_fraction"] + 1e-12
        assert len(forward["steps"]) == 9

    def test_decreasing_size_list_is_input_error(self, city_model_json, tmp_path):
        levels = self.write_levels(tmp_path, ["4cif", "cif", "qcif"])
        assert main(["order", str(city_model_json), "--levels", str(levels)]) == 2

    def test_byte_identical_reruns(self, city_model_json, tmp_path, capsys):
        levels = self.write_levels(tmp_path, ["qcif", "cif", "4cif"])
        outputs = []
        for _ in range(2):
            assert main(["order", str(city_model_json), "--levels", str(levels)]) == 0
            assert main(["optimize", str(city_model_json), "--budget", "500"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestPredictParams:
    def test_zero_features_constant_column(self, tmp_path, capsys):
        out = tmp_path / "pred.json"
        rc = main(
            [
                "predict-params", "--scenario", "SVC1",
                "--mu-dfd", "0", "--sigma-mvm", "0", "--sigma-mda", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "clamped" in captured.err
        table = parse_table(captured.out)
        assert float(table["a"]) == 1.374
        assert float(table["b"]) == 0.226
        assert float(table["c"]) == 1.507
        assert float(table["R_max"]) == 1.0
        doc = json.loads(out.read_text())
        assert doc["rate"]["a"] == 1.374

    def test_unit_features_row_sums(self, capsys):
        rc = main(
            [
                "predict-params", "--scenario", "svc1",
                "--mu-dfd", "1", "--sigma-mvm", "1", "--sigma-mda", "1",
            ]
        )
        assert rc == 0
        table = parse_table(capsys.readouterr().out)
        assert float(table["a"]) == pytest.approx(1.131, abs=1e-9)
        assert float(table["R_max"]) == pytest.approx(1016.0, abs=1e-6)

    def test_features_from_json(self, tmp_path, capsys):
        features = tmp_path / "features.json"
        features.write_text(json.dumps({"mu_dfd": 1.0, "sigma_mvm": 1.0, "sigma_mda": 1.0}))
        assert main(["predict-params", "--scenario", "SL2", "--features", str(features)]) == 0
        table = parse_table(capsys.readouterr().out)
        assert float(table["a"]) == pytest.approx(1.538 + 0.040 - 0.025 - 0.474, abs=1e-9)

    def test_features_from_csv(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("mu_dfd,sigma_mvm,sigma_mda\n1,1,1\n")
        assert main(["predict-params", "--scenario", "SVC1", "--features", str(features)]) == 0
        table = parse_table(capsys.readouterr().out)
        assert float(table["a"]) == pytest.approx(1.131, abs=1e-9)

    def test_unknown_scenario_is_input_error(self):
        rc = main(
            [
                "predict-params", "--scenario", "SVC9",
                "--mu-dfd", "0", "--sigma-mvm", "0", "--sigma-mda", "0",
            ]
        )
        assert rc == 2


def test_infeasible_budget_sweep_prints_nothing(city_model_json, tmp_path, capsys):
    # Every budget of the sweep needs a stepsize above 20, so the first one
    # already fails; no CSV header may reach stdout before exit 4.
    sets = tmp_path / "sets.json"
    sets.write_text(
        json.dumps({"s_values": ["qcif", "cif", "4cif"], "t_values": [3.75, 7.5, 15, 30], "q_range": [16, 20]})
    )
    argv = ["optimize", str(city_model_json), "--mode", "dyadic", "--sets", str(sets), "--budget-sweep", "5"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_budget_below_quality_domain_is_infeasible(city_model_json, capsys):
    # At 0.05 kbps every cell needs a stepsize beyond QualityParams.q_limit,
    # where the quality model turns negative.
    assert main(["optimize", str(city_model_json), "--budget", "0.05"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit" in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--q", "1e-300", "--s", "cif", "--t", "30"],
        ["--q", "1e300", "--s", "cif", "--t", "30"],
        ["--s", "cif", "--t", "30", "--sweep", "q", "--sweep-from", "1e-300", "--sweep-to", "16"],
    ],
    ids=["overflow", "underflow", "sweep-overflow"],
)
def test_rate_outside_float_range_is_input_error(city_model_json, capsys, extra):
    assert main(["predict-rate", str(city_model_json), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rate must be a finite real > 0")


def test_huge_qp_in_log_is_input_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("qp,width,height,fps,rate_kbps\n1e10,352,288,30,100\n")
    assert main(["fit", str(log)]) == 2
    assert "Traceback" not in capsys.readouterr().err
