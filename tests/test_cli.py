import csv
import json

import numpy as np
import pytest
from conftest import kaplan_meier_reference

from hazstep import (
    CENSORED_STATE,
    FitConfig,
    IllnessDeathModel,
    StepFunction,
    TuningConfig,
    Window,
    breslow_fit,
    curves_from_csv,
    fit_hazard,
    flsa_solve,
    gen_scenario,
    kaplan_meier,
    named_scenario,
    parse_multistate_csv,
    parse_survival_csv,
    simulate_illness_death,
    sojourn_frame,
    write_multistate_csv,
    write_survival_csv,
)
from hazstep.cli import _fit_config_from_args, _tuning_from_args, build_parser, main
from hazstep.data import _floats, _read_columns


def numeric_columns(path):
    """The rows of a numeric CSV artifact below its header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def artifacts(out):
    """The names of the files a command wrote, sorted."""
    return sorted(path.name for path in out.iterdir())


def assert_json_files_canonical(out, count):
    """Each JSON artifact is json.dumps(..., sort_keys=True, indent=2) of its content."""
    paths = sorted(out.glob("*.json"))
    assert len(paths) == count
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name


@pytest.fixture
def survival_csv(tmp_path):
    frame = gen_scenario(named_scenario("A1", 300), 42)
    path = tmp_path / "data.csv"
    write_survival_csv(frame, path)
    return path


@pytest.fixture
def covariate_csv(tmp_path):
    frame = gen_scenario(named_scenario("B1", 300), 42)
    path = tmp_path / "data_cov.csv"
    write_survival_csv(frame, path)
    return path


@pytest.fixture
def multistate_csv(tmp_path):
    model = IllnessDeathModel(
        a01=StepFunction(Window(0, 1), [0.3], [2.0, 1.0]),
        a02=StepFunction(Window(0, 1), [], [0.75]),
        a12=StepFunction(Window(0, 1), [], [1.5]),
    )
    records = simulate_illness_death(model, 1500, 0.25, 7)
    path = tmp_path / "ms.csv"
    write_multistate_csv(records, path)
    return path


def test_default_flags_build_the_default_configs():
    # the flags' defaults are read from the records, so the CLI and the library agree
    parser, default = build_parser(), FitConfig(tuning=TuningConfig(seed=0))
    assert _fit_config_from_args(parser.parse_args(["fit", "in.csv"]), 0) == default
    ms = parser.parse_args(["multistate", "in.csv"])
    assert FitConfig(p_high=ms.p, tuning=_tuning_from_args(ms, 0)) == default


class TestFitCommand:
    def test_happy_path_writes_artifacts(self, survival_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["fit", str(survival_csv), "--q", "0.9", "--kmax", "20", "--L", "100",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert artifacts(out) == ["cumhaz.csv", "hazard.json", "tuning.json"]
        doc = json.loads((out / "hazard.json").read_text())
        hazard = StepFunction.from_dict(doc["hazard"])
        assert hazard.is_nonnegative()
        tuning = json.loads((out / "tuning.json").read_text())
        assert tuning["lambda"] == doc["lambda"]
        assert len(tuning["u_boot"]) == 100

    def test_missing_status_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event\n1.0,1\n")
        out = tmp_path / "o"
        code = main(["fit", str(bad), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "status" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fit", str(tmp_path / "nope.csv"), "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        # a directory, and a file that is not UTF-8: OSError and UnicodeDecodeError
        undecodable = tmp_path / "latin1.csv"
        undecodable.write_bytes(b"time,status\n1.0,1\n\xff\xfe,0\n")
        out = tmp_path / "o"
        for path in (tmp_path, undecodable):
            assert main(["fit", str(path), "--seed", "1", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    def test_out_naming_a_file_exits_2(self, survival_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["fit", str(survival_csv), "--L", "20", "--seed", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept\n"

    def test_malformed_window_exits_2(self, survival_csv, tmp_path):
        out = tmp_path / "w"
        code = main(["fit", str(survival_csv), "--window", "0.1", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_malformed_beta_exits_2(self, covariate_csv, tmp_path):
        out = tmp_path / "b"
        code = main(["fit", str(covariate_csv), "--beta", "a,b", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_supplied_beta_skips_cox(self, covariate_csv, tmp_path):
        out = tmp_path / "out_beta"
        code = main(
            ["fit", str(covariate_csv), "--beta", "0.25,1.0", "--L", "50",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "hazard.json").read_text())
        assert doc["beta"] == [0.25, 1.0]
        assert doc["beta_source"] == "supplied"

    def test_non_finite_time_exits_2(self, survival_csv, tmp_path, capsys):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(survival_csv.read_text() + "nan,0\ninf,0\n")
        out = tmp_path / "nf"
        code = main(["fit", str(bad), "--L", "20", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["2.0", "2.0,1,7,7"], ids=["short", "long"])
    def test_field_count_mismatch_exits_2(self, survival_csv, tmp_path, capsys, row):
        bad = tmp_path / "ragged.csv"
        bad.write_text(survival_csv.read_text() + row + "\n")
        out = tmp_path / "r"
        code = main(["fit", str(bad), "--L", "20", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "fields, but the header has" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    def test_grid_below_two_exits_2(self, survival_csv, tmp_path, capsys, grid):
        out = tmp_path / "g"
        code = main(["fit", str(survival_csv), "--grid", grid, "--L", "20", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert f"grid size must be >= 2, got {grid}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, survival_csv, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["fit", str(survival_csv), "--L", "20", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_report(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["simulate", "--scenario", "A1", "--n", "150", "--reps", "3", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert artifacts(out1) == ["study_report.csv", "study_runs.json"]
        assert (out1 / "study_report.csv").read_text() == (out2 / "study_report.csv").read_text()
        assert (out1 / "study_runs.json").read_text() == (out2 / "study_runs.json").read_text()

    def test_zero_reps_exits_2(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--scenario", "A1", "--n", "100", "--reps", "0",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_drawn_seed_is_printed_only_by_a_run_that_writes(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["simulate", "--scenario", "A1", "--n", "150", "--out", str(out)]
        assert main(args + ["--reps", "0"]) == 2
        assert "seed" not in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--reps", "1"]) == 0
        printed = capsys.readouterr().err.split("seed not supplied; using random seed ")
        assert len(printed) == 2
        assert json.loads((out / "study_runs.json").read_text())["seed"] == int(printed[1])

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", "A1", "--n", "150", "--reps", "2",
                     "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_sample_size_below_two_exits_2(self, tmp_path, capsys, n):
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", "A1", "--n", n, "--reps", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"sample size must be >= 2, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", "A1", "--n", "100", "--reps", "2",
                     "--threads", threads, "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_exits_2(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["simulate", "--scenario", "Z9", "--n", "100", "--reps", "1",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()


class TestMultistateCommand:
    def test_artifacts_written_and_monotone(self, multistate_csv, tmp_path):
        out = tmp_path / "ms_out"
        code = main(
            ["multistate", str(multistate_csv), "--L", "100", "--seed", "11",
             "--out", str(out)]
        )
        assert code == 0
        assert artifacts(out) == [
            "hazard_01.json",
            "hazard_02.json",
            "hazard_12.json",
            "km_os.csv",
            "km_pfs.csv",
            "model.json",
            "survival_curves.csv",
        ]
        rows = (out / "survival_curves.csv").read_text().strip().splitlines()[1:]
        vals = np.array([[float(x) for x in r.split(",")] for r in rows])
        assert np.all(np.diff(vals[:, 1]) <= 1e-12)  # S_PFS nonincreasing
        assert np.all(np.diff(vals[:, 2]) <= 1e-12)  # S_OS nonincreasing
        # artifacts are re-parseable by the library
        model = IllnessDeathModel.from_dict(json.loads((out / "model.json").read_text()))
        assert model.a01.is_nonnegative()

    def test_km_pfs_is_km_of_leaving_state_0(self, multistate_csv, tmp_path):
        # a direct death 0 -> 2 ends progression-free survival too
        out = tmp_path / "km"
        assert main(["multistate", str(multistate_csv), "--L", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        frame = parse_multistate_csv(multistate_csv)
        state0 = frame.from_state == 0
        assert np.any(frame.to_state[state0] == 2)
        grid, values = kaplan_meier_reference(
            frame.t_stop[state0], frame.to_state[state0] != CENSORED_STATE, frame.t_start[state0]
        )
        km = numeric_columns(out / "km_pfs.csv")
        assert np.array_equal(km[:, 0], grid)
        assert np.allclose(km[:, 1], values, rtol=1e-12, atol=0)

    def test_missing_transition_exits_2(self, tmp_path):
        # no subject ever enters state 1 -> no 1->2 data
        path = tmp_path / "no12.csv"
        path.write_text(
            "id,from,to,t_start,t_stop\n"
            "1,0,2,0,1.0\n2,0,2,0,1.5\n3,0,cens,0,2.0\n4,0,2,0,0.7\n"
        )
        out = tmp_path / "o"
        code = main(["multistate", str(path), "--L", "20", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("state", ["1.5", "nan"])
    def test_non_integer_state_exits_2(self, tmp_path, capsys, state):
        path = tmp_path / "bad_state.csv"
        path.write_text(f"id,from,to,t_start,t_stop\n1,0,1,0,1.0\n1,1,{state},1.0,2.0\n")
        out = tmp_path / "o"
        code = main(["multistate", str(path), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "row 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["1,1", "1,1,2,2.0,5.0,9"], ids=["short", "long"])
    def test_field_count_mismatch_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"id,from,to,t_start,t_stop\n1,0,1,0,1.0\n{row}\n")
        out = tmp_path / "o"
        code = main(["multistate", str(path), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "row 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_curve_points_below_two_exits_2(self, multistate_csv, tmp_path, capsys, points):
        out = tmp_path / "p"
        code = main(["multistate", str(multistate_csv), "--curve-points", points, "--L", "20",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"--curve-points must be >= 2, got {points}" in capsys.readouterr().err
        assert not out.exists()


class TestCurvesCommand:
    @pytest.fixture
    def model_json(self, tmp_path):
        model = IllnessDeathModel(
            a01=StepFunction(Window(0, 1), [0.3], [2.0, 1.0]),
            a02=StepFunction(Window(0, 1), [], [0.75]),
            a12=StepFunction(Window(0, 1), [], [1.5]),
        )
        path = tmp_path / "model.json"
        path.write_text(model.to_json())
        return path

    @pytest.mark.parametrize("points", ["-5", "0", "1"])
    def test_curve_points_below_two_exits_2(self, model_json, tmp_path, capsys, points):
        out = tmp_path / "c"
        code = main(["curves", str(model_json), "--curve-points", points, "--out", str(out)])
        assert code == 2
        assert f"--curve-points must be >= 2, got {points}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_horizon_exits_2(self, model_json, tmp_path, capsys, horizon):
        out = tmp_path / "h"
        code = main(["curves", str(model_json), "--horizon", horizon, "--out", str(out)])
        assert code == 2
        assert f"--horizon must be finite, got {horizon}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_not_positive_exits_2(self, model_json, tmp_path, capsys, horizon):
        out = tmp_path / "h"
        code = main(["curves", str(model_json), "--horizon", horizon, "--out", str(out)])
        assert code == 2
        assert f"--horizon must be > 0, got {float(horizon)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("breaks", [float("nan")], "breaks must be finite"),
            ("levels", ["x", 1.0], "levels must be a sequence of numbers"),
        ],
    )
    def test_bad_hazard_in_model_json_exits_2(self, model_json, tmp_path, capsys, field, value,
                                              message):
        model = json.loads(model_json.read_text())
        model["a01"][field] = value
        model_json.write_text(json.dumps(model))
        out = tmp_path / "bad"
        assert main(["curves", str(model_json), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    HAZARD = '{"domain": {"tau_min": 0, "tau_max": 1}, "breaks": [], "levels": [1.0]}'
    TEXT_BREAK = HAZARD.replace("[]", '["0.5"]')
    BOOLEAN_LEVEL = HAZARD.replace("[1.0]", "[false]")
    HUGE_TAU_MAX = HAZARD.replace('"tau_max": 1', '"tau_max": 1' + "0" * 400)  # no float holds it

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a01": {}}', "a01: missing field 'domain'"),
            ("[1, 2]", "expected a JSON object, got list"),
            (f'{{"a01": {HAZARD}, "a02": {HAZARD}}}', "missing field 'a12'"),
            ('{"a01": {"domain": {"tau_min": "x", "tau_max": 1}}}',
             "a01: domain: tau_min must be a number, got 'x'"),
            ('{"a01": {"domain": null}}', "a01: domain: expected a JSON object, got NoneType"),
            ('{"a01": {"domain": {"tau_min": 0, "tau_max": true}}}',
             "a01: domain: tau_max must be a number, got True"),
            (f'{{"a01": {TEXT_BREAK}}}',
             "a01: breaks must be a sequence of numbers, got ['0.5']"),
            (f'{{"a01": {BOOLEAN_LEVEL}}}',
             "a01: levels must be a sequence of numbers, got [False]"),
            (f'{{"a01": {HUGE_TAU_MAX}}}', "a01: domain: tau_max must be finite"),
        ],
        ids=["empty hazard", "list", "no a12", "text tau_min", "null domain", "boolean tau_max",
             "text break", "boolean level", "401-digit tau_max"],
    )
    def test_malformed_model_json_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        out = tmp_path / "m"
        assert main(["curves", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_model_path_naming_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["curves", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_roundtrip_from_model_json(self, multistate_csv, tmp_path):
        out = tmp_path / "ms_out2"
        assert main(
            ["multistate", str(multistate_csv), "--L", "50", "--seed", "2",
             "--out", str(out)]
        ) == 0
        out2 = tmp_path / "curves_out"
        code = main(["curves", str(out / "model.json"), "--out", str(out2)])
        assert code == 0
        assert artifacts(out2) == ["survival_curves.csv"]
        written = (out / "survival_curves.csv").read_bytes()
        assert (out2 / "survival_curves.csv").read_bytes() == written


class TestRoundTrip:
    def test_written_survival_csv_is_reparseable(self, survival_csv):
        frame = parse_survival_csv(survival_csv)
        assert frame.n == 300

    def test_every_fit_artifact_reparses(self, survival_csv, tmp_path):
        out = tmp_path / "rt"
        assert main(["fit", str(survival_csv), "--L", "60", "--seed", "8",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "hazard.json").read_text())
        # cumhaz.csv: a (0, 0) row, then (jump time, cumulative hazard after it)
        # per jump of the Breslow curve
        curve = breslow_fit(parse_survival_csv(survival_csv), doc["beta"])
        assert curve.jump_times.size > 0
        back = _read_columns(out / "cumhaz.csv", {"time": _floats, "cumhaz": _floats})
        assert back["time"].tobytes() == np.r_[0.0, curve.jump_times].tobytes()
        assert back["cumhaz"].tobytes() == np.r_[0.0, np.cumsum(curve.jump_sizes)].tobytes()
        tuning = json.loads((out / "tuning.json").read_text())
        assert tuning["lambda"] == doc["lambda"]
        assert_json_files_canonical(out, 2)

    def test_pilot_residuals_rebuild_from_the_artifacts(self, covariate_csv, tmp_path):
        # tuning.json does not hold the residuals: cumhaz.csv and hazard.json
        # give them again, bit for bit
        out = tmp_path / "res"
        assert main(["fit", str(covariate_csv), "--L", "60", "--seed", "8",
                     "--out", str(out)]) == 0
        tuning = json.loads((out / "tuning.json").read_text())
        assert tuning.keys() == {"lambda", "lambda0", "seed", "u_boot"}
        doc = json.loads((out / "hazard.json").read_text())
        curve = _read_columns(out / "cumhaz.csv", {"time": _floats, "cumhaz": _floats})
        window, m = Window.from_dict(doc["window"]), doc["grid_size"]
        at_grid = curve["cumhaz"][np.searchsorted(curve["time"][1:], window.grid(m), "right")]
        y = np.maximum(m * np.diff(at_grid), 0.0)
        residuals = y - flsa_solve(y, doc["lambda0"]).alpha
        fit = fit_hazard(parse_survival_csv(covariate_csv),
                         FitConfig(tuning=TuningConfig(l_boot=60, seed=8)))
        assert fit.cox is not None
        assert residuals.tobytes() == fit.tuning.residuals.tobytes()

    def test_multistate_and_simulate_artifacts_reparse(self, multistate_csv, tmp_path):
        out = tmp_path / "rt_ms"
        assert main(["multistate", str(multistate_csv), "--L", "50", "--seed", "2",
                     "--p", "0.8", "--q", "0.5", "--out", str(out)]) == 0
        pfs, os_ = curves_from_csv(out / "survival_curves.csv")
        assert pfs.values[0] == 1.0
        km = kaplan_meier(sojourn_frame(parse_multistate_csv(multistate_csv), 0))
        assert np.array_equal(numeric_columns(out / "km_pfs.csv"), np.column_stack((km.grid, km.values)))
        assert_json_files_canonical(out, 4)

        out2 = tmp_path / "rt_sim"
        assert main(["simulate", "--scenario", "A2", "--n", "120", "--reps", "2",
                     "--seed", "3", "--out", str(out2)]) == 0
        with open(out2 / "study_report.csv", newline="") as fh:
            header, row = csv.reader(fh)
        cells = dict(zip(header, row))
        l2 = json.loads((out2 / "study_runs.json").read_text())["aggregates"]["l2_sq"]
        assert (cells["scenario"], cells["n"], cells["replications"]) == ("A2", "120", "2")
        assert cells["l2_sq"] == f"{l2['mean']:.3f} ({l2['sd']:.3f})"
        assert_json_files_canonical(out2, 1)
