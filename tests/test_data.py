import csv

import numpy as np
import pytest

from hazstep import (
    CENSORED_STATE,
    MultiStateFrame,
    ParseError,
    SchemaError,
    SurvivalFrame,
    ValidationError,
    absorption_frame,
    parse_multistate_csv,
    parse_survival_csv,
    risk_set_sums,
    split_transitions,
    write_multistate_csv,
    write_survival_csv,
)
from hazstep.multistate import IllnessDeathModel
from hazstep.simulate import simulate_illness_death
from hazstep.stepfun import StepFunction, Window

HEADER = "id,from,to,t_start,t_stop\n"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def multistate(rows):
    """Frame from (id, from, to, t_start, t_stop) tuples; to=None is censored."""
    ids, src, dst, start, stop = zip(*rows)
    dst = [CENSORED_STATE if d is None else d for d in dst]
    return MultiStateFrame(id=ids, from_state=src, to_state=dst, t_start=start, t_stop=stop)


def split_reference(path, transition):
    """Dict walk over CSV rows: each subject's first sojourn in the source state."""
    src, dst = transition
    by_subject = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_subject.setdefault(row["id"], []).append(row)
    time, status, entry = [], [], []
    for rows in by_subject.values():
        for row in sorted(rows, key=lambda r: float(r["t_start"])):
            if int(row["from"]) == src:
                time.append(float(row["t_stop"]))
                status.append(int(row["to"] == str(dst)))
                entry.append(float(row["t_start"]))
                break
    return time, status, entry


class TestParseSurvival:
    def test_minimal(self, tmp_path):
        frame = parse_survival_csv(write(tmp_path, "time,status\n1.0,1\n2.0,0\n"))
        assert frame.n == 2
        assert frame.d == 0
        assert frame.time.tolist() == [1.0, 2.0]
        assert frame.status.tolist() == [1, 0]

    def test_entry_after_time_rejected(self, tmp_path):
        path = write(tmp_path, "entry,time,status\n0.5,0.4,1\n")
        with pytest.raises(ValidationError):
            parse_survival_csv(path)

    def test_covariates(self, tmp_path):
        frame = parse_survival_csv(write(tmp_path, "time,status,w1,w2\n1.2,1,-1,0.3\n"))
        assert frame.d == 2
        assert frame.covariates.tolist() == [[-1.0, 0.3]]

    def test_missing_column(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_survival_csv(write(tmp_path, "time\n1.0\n"))

    def test_malformed_number_reports_row(self, tmp_path):
        path = write(tmp_path, "time,status\n1.0,1\nbroken,0\n")
        with pytest.raises(ParseError, match="row 1"):
            parse_survival_csv(path)

    @pytest.mark.parametrize("row, got", [("2.0", 1), ("2.0,1,7", 3)], ids=["short", "long"])
    def test_field_count_mismatch_reports_row(self, tmp_path, row, got):
        path = write(tmp_path, f"time,status\n1.0,1\n{row}\n")
        with pytest.raises(ParseError, match=f"row 1: {got} fields, but the header has 2"):
            parse_survival_csv(path)

    def test_row_order_preserved(self, tmp_path):
        frame = parse_survival_csv(write(tmp_path, "time,status\n3,1\n1,0\n2,1\n"))
        assert frame.time.tolist() == [3.0, 1.0, 2.0]

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        n = 60
        time = rng.exponential(2.0, n) + 0.5
        entry = time * rng.uniform(0, 0.9, n)
        frame = SurvivalFrame(
            time=time,
            status=rng.integers(0, 2, n),
            entry=entry,
            covariates=rng.normal(size=(n, 3)),
        )
        path = tmp_path / "round.csv"
        write_survival_csv(frame, path)
        back = parse_survival_csv(path)
        assert np.array_equal(back.time, frame.time)
        assert np.array_equal(back.entry, frame.entry)
        assert np.array_equal(back.status, frame.status)
        assert np.array_equal(back.covariates, frame.covariates)


class TestRecordInvariants:
    def test_record_validation(self):
        one = dict(time=[1.0], status=[1], entry=[0.0], covariates=[[0.5]])
        for bad in (
            dict(time=[-1.0]),
            dict(status=[2]),
            dict(entry=[1.0]),
            dict(entry=[-0.5]),
            dict(time=[np.nan]),
            dict(time=[np.inf]),
            dict(entry=[np.nan]),
            dict(covariates=[[np.inf]]),
            dict(covariates=[[np.nan]]),
        ):
            with pytest.raises(ValidationError):
                SurvivalFrame(**{**one, **bad})


class TestParseMultistate:
    def test_valid_trajectory(self, tmp_path):
        text = HEADER + "1,0,1,0,2.0\n1,1,2,2.0,5.0\n"
        frame = parse_multistate_csv(write(tmp_path, text))
        assert len(frame) == 2
        assert frame.to_state.tolist() == [1, 2]
        assert frame.from_state.tolist() == [0, 1]

    def test_state_mismatch_names_subject(self, tmp_path):
        text = HEADER + "1,0,1,0,2.0\n1,0,2,2.0,5.0\n"
        with pytest.raises(ValidationError, match="subject 1"):
            parse_multistate_csv(write(tmp_path, text))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,0,1,0,2.0\n1,1,2,2.5,5.0\n", "subject 1: time gap between t=2.0 and t=2.5"),
            ("1,1,2,2.0,5.0\n1,0,cens,0,2.0\n", "subject 1: row after censoring at t=2.0"),
            ("1,0,1,0,2.0\n2,0,2,1.0,1.0\n", "subject 2: t_start 1.0 must be < t_stop 1.0"),
            ("1,0,0,0,2.0\n", "subject 1: from and to states equal"),
        ],
    )
    def test_broken_trajectory_named(self, tmp_path, rows, message):
        with pytest.raises(ValidationError, match=message):
            parse_multistate_csv(write(tmp_path, HEADER + rows))

    @pytest.mark.parametrize(
        "rows",
        [
            "1,0,1,0,2.0\n1,1.5,2,2.0,5.0\n",
            "1,0,1,0,2.0\n1,1,nan,2.0,5.0\n",
            "1,0,1,0,2.0\n1,1,-2,2.0,5.0\n",
        ],
    )
    def test_non_integer_state_reports_row(self, tmp_path, rows):
        with pytest.raises(ParseError, match="row 1"):
            parse_multistate_csv(write(tmp_path, HEADER + rows))

    @pytest.mark.parametrize(
        "row, got", [("1,1", 2), ("1,1,2,2.0,5.0,9", 6)], ids=["short", "long"]
    )
    def test_field_count_mismatch_reports_row(self, tmp_path, row, got):
        path = write(tmp_path, HEADER + f"1,0,1,0,2.0\n{row}\n")
        with pytest.raises(ParseError, match=f"row 1: {got} fields, but the header has 5"):
            parse_multistate_csv(path)

    def test_censored_token(self, tmp_path):
        text = HEADER + "1,0,cens,0,3.0\n"
        frame = parse_multistate_csv(write(tmp_path, text))
        assert frame.to_state.tolist() == [CENSORED_STATE]
        assert frame.t_stop.tolist() == [3.0]

    def test_custom_censor_token(self, tmp_path):
        text = HEADER + "1,0,LOST,0,3.0\n"
        frame = parse_multistate_csv(write(tmp_path, text), censor_token="LOST")
        assert frame.to_state.tolist() == [CENSORED_STATE]

    def test_roundtrip(self, tmp_path):
        frame = multistate(
            [("a", 0, 1, 0.0, 1.25), ("a", 1, None, 1.25, 3.5), ("b", 0, 2, 0.0, 0.75)]
        )
        path = tmp_path / "ms.csv"
        write_multistate_csv(frame, path)
        back = parse_multistate_csv(path)
        for col in ("id", "from_state", "to_state", "t_start", "t_stop"):
            assert np.array_equal(getattr(back, col), getattr(frame, col))

    def test_rows_grouped_by_first_appearance(self):
        frame = multistate(
            [("b", 1, 2, 1.0, 2.0), ("a", 0, None, 0.0, 3.0), ("b", 0, 1, 0.0, 1.0)]
        )
        assert frame.id.tolist() == ["b", "b", "a"]
        assert frame.subject.tolist() == [0, 0, 1]
        assert frame.t_start.tolist() == [0.0, 1.0, 0.0]


class TestSplitTransitions:
    @pytest.fixture
    def trajectory(self):
        return multistate([(1, 0, 1, 0.0, 2.0), (1, 1, 2, 2.0, 5.0)])

    def test_01(self, trajectory):
        frame = split_transitions(trajectory, (0, 1))
        assert frame.time.tolist() == [2.0]
        assert frame.status.tolist() == [1]

    def test_02(self, trajectory):
        frame = split_transitions(trajectory, (0, 2))
        assert frame.time.tolist() == [2.0]
        assert frame.status.tolist() == [0]

    def test_12_left_truncated(self, trajectory):
        frame = split_transitions(trajectory, (1, 2))
        assert frame.entry.tolist() == [2.0]
        assert frame.time.tolist() == [5.0]
        assert frame.status.tolist() == [1]

    def test_bad_transition(self, trajectory):
        with pytest.raises(ValidationError):
            split_transitions(trajectory, (1, 1))

    def test_event_count_identity(self, rng):
        # events of (0,1) plus (0,2) = observed exits from state 0
        n = 200
        exit_t = rng.exponential(size=n) + 0.1
        dest = rng.choice([1, 2, CENSORED_STATE], p=[0.4, 0.3, 0.3], size=n)
        ill = dest == 1
        frame = MultiStateFrame(
            id=np.concatenate((np.arange(n), np.flatnonzero(ill))),
            from_state=np.repeat([0, 1], [n, ill.sum()]),
            to_state=np.concatenate((dest, np.full(ill.sum(), 2))),
            t_start=np.concatenate((np.zeros(n), exit_t[ill])),
            t_stop=np.concatenate((exit_t, exit_t[ill] + 1.0)),
        )
        f01 = split_transitions(frame, (0, 1))
        f02 = split_transitions(frame, (0, 2))
        assert int(f01.status.sum() + f02.status.sum()) == np.sum(dest != CENSORED_STATE)
        f12 = split_transitions(frame, (1, 2))
        assert np.all(f12.entry < f12.time)

    @pytest.fixture
    def shuffled_csv(self, tmp_path, rng):
        model = IllnessDeathModel(
            a01=StepFunction(Window(0, 1), [0.3], [2.0, 1.0]),
            a02=StepFunction(Window(0, 1), [], [0.75]),
            a12=StepFunction(Window(0, 1), [], [1.5]),
        )
        ordered = tmp_path / "ordered.csv"
        write_multistate_csv(simulate_illness_death(model, 400, 0.3, 4), ordered)
        header, *rows = ordered.read_text().splitlines(keepends=True)
        return write(tmp_path, header + "".join(rng.permutation(rows)), "shuffled.csv")

    def test_matches_dict_walk_on_shuffled_rows(self, shuffled_csv):
        frame = parse_multistate_csv(shuffled_csv)
        for tr in ((0, 1), (0, 2), (1, 2)):
            time, status, entry = split_reference(shuffled_csv, tr)
            got = split_transitions(frame, tr)
            assert got.time.tolist() == time
            assert got.status.tolist() == status
            assert got.entry.tolist() == entry

    def test_absorption_frame_takes_last_rows(self, shuffled_csv):
        last = {}
        with open(shuffled_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["id"] not in last or float(row["t_stop"]) > last[row["id"]][0]:
                    last[row["id"]] = (float(row["t_stop"]), int(row["to"] == "2"))
        frame = absorption_frame(parse_multistate_csv(shuffled_csv), 2)
        assert frame.time.tolist() == [t for t, _ in last.values()]
        assert frame.status.tolist() == [s for _, s in last.values()]
        assert not np.any(frame.entry)


class TestRiskProfile:
    """The at-risk process Y(t) computed by risk_set_sums."""

    def test_counts(self):
        frame = SurvivalFrame(
            time=[1.0, 2.0], status=[1, 0], entry=[0.0, 0.0], covariates=np.empty((2, 0))
        )
        assert risk_set_sums(frame, np.ones(2), [1.5, 0.5]).tolist() == [1.0, 2.0]

    def test_covariate_weighting(self):
        frame = SurvivalFrame(
            time=[1.0], status=[1], entry=[0.0], covariates=[[1.0]]
        )
        weights = np.exp(frame.covariates @ [np.log(2.0)])
        assert risk_set_sums(frame, weights, 0.5) == pytest.approx(2.0, abs=1e-14)
        # vector weights sum coordinatewise
        both = risk_set_sums(frame, np.column_stack((weights, np.ones(1))), [0.5, 2.0])
        assert both.tolist() == [[pytest.approx(2.0, abs=1e-14), 1.0], [0.0, 0.0]]

    def test_dimension_mismatch(self):
        frame = SurvivalFrame(
            time=[1.0], status=[1], entry=[0.0], covariates=[[1.0]]
        )
        with pytest.raises(ValidationError):
            risk_set_sums(frame, np.ones(2), [0.5])

    def test_left_open_interval_convention(self):
        # at-risk iff entry < t <= time
        frame = SurvivalFrame(
            time=[2.0], status=[1], entry=[1.0], covariates=np.empty((1, 0))
        )
        counts = risk_set_sums(frame, np.ones(1), [1.0, 1.5, 2.0, 2.5])
        assert counts.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_nonincreasing_between_entries(self, rng):
        frame = SurvivalFrame(
            time=rng.exponential(1.0, 100) + 1.0,
            status=rng.integers(0, 2, 100),
            entry=np.full(100, 0.5),
            covariates=np.empty((100, 0)),
        )
        # no entry times inside (0.5, inf): risk is nonincreasing there
        ts = np.linspace(0.6, 5.0, 50)
        risks = risk_set_sums(frame, np.ones(100), ts)
        assert np.all(np.diff(risks) <= 0)
