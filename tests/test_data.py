import csv
import inspect
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    breslow_to_csv_rows,
    curves_to_csv_rows,
    km_to_csv_rows,
    report_table_csv_rows,
    traced_peak,
    write_multistate_csv_rows,
    write_survival_csv_rows,
)

from hazstep import (
    CENSORED_STATE,
    BreslowCurve,
    MultiStateFrame,
    StudyReport,
    SurvivalCurve,
    SurvivalFrame,
    ValidationError,
    absorption_frame,
    bootstrap_lambda,
    cox_fit,
    flsa_solve,
    parse_multistate_csv,
    parse_survival_csv,
    risk_set_sums,
    split_transitions,
    write_multistate_csv,
    write_survival_csv,
)
import hazstep.data
import hazstep.multistate
from hazstep.data import (
    _ROWS,
    _cells,
    _counts,
    _floats,
    _freeze,
    _json_text,
    _read_columns,
    _text,
    _write_columns,
    sojourn_frame,
)
from hazstep.multistate import (
    IllnessDeathModel,
    curves_from_csv,
    curves_to_csv,
    fit_illness_death_detailed,
    km_to_csv,
    survival_curves,
)
from hazstep.pipeline import FitConfig, fit_hazard
from hazstep.simulate import (
    Scenario,
    gen_scenario,
    named_scenario,
    report_table_csv,
    run_study,
    simulate_illness_death,
    two_level_hazard,
)
from hazstep.stepfun import StepFunction, Window
from hazstep.tuning import TuningConfig

HEADER = "id,from,to,t_start,t_stop\n"
BAD_TIMES = "times must be finite and >= 0, got"


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
        with pytest.raises(ValidationError):
            parse_survival_csv(write(tmp_path, "time\n1.0\n"))

    def test_malformed_number_reports_row(self, tmp_path):
        path = write(tmp_path, "time,status\n1.0,1\nbroken,0\n")
        with pytest.raises(ValidationError, match="row 1"):
            parse_survival_csv(path)

    @pytest.mark.parametrize("row, got", [("2.0", 1), ("2.0,1,7", 3)], ids=["short", "long"])
    def test_field_count_mismatch_reports_row(self, tmp_path, row, got):
        path = write(tmp_path, f"time,status\n1.0,1\n{row}\n")
        with pytest.raises(ValidationError, match=f"row 1: {got} fields, but the header has 2"):
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


class TestBlockReader:
    """The survival parser reads in blocks of _ROWS rows; row indices stay absolute."""

    @staticmethod
    def lines(n):
        return [f"{i + 1}.5,{i % 2}" for i in range(n)]

    def test_non_numeric_cell_in_second_block(self, tmp_path):
        lines = self.lines(_ROWS + 10)
        lines[_ROWS + 3] = "x1,0"
        path = write(tmp_path, "time,status\n" + "\n".join(lines) + "\n")
        with pytest.raises(
            ValidationError, match=f"row {_ROWS + 3}: column 'time': cannot parse number from 'x1'"
        ):
            parse_survival_csv(path)

    def test_short_row_in_second_block(self, tmp_path):
        lines = self.lines(_ROWS + 10)
        lines[_ROWS + 5] = "2.0"
        path = write(tmp_path, "time,status\n" + "\n".join(lines) + "\n")
        with pytest.raises(
            ValidationError, match=f"row {_ROWS + 5}: 1 fields, but the header has 2"
        ):
            parse_survival_csv(path)

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        lines = self.lines(_ROWS + 10)
        good = "\n".join(line + ("\n" if i % 1000 == 0 else "") for i, line in enumerate(lines))
        frame = parse_survival_csv(write(tmp_path, "time,status\n" + good + "\n\n"))
        assert frame.time.tolist() == [float(line.split(",")[0]) for line in lines]
        lines[_ROWS + 3] = "4.0,2"
        bad = "\n".join(line + ("\n" if i % 1000 == 0 else "") for i, line in enumerate(lines))
        with pytest.raises(
            ValidationError, match=f"row {_ROWS + 3}: status must be 0 or 1, got 2.0"
        ):
            parse_survival_csv(write(tmp_path, "time,status\n" + bad + "\n"))

    def test_whitespace_accepted_as_float_does(self, tmp_path):
        frame = parse_survival_csv(write(tmp_path, "time,status,w1\n 1.5 ,1, -2e0\n"))
        assert frame.time.tolist() == [1.5]
        assert frame.covariates.tolist() == [[-2.0]]

    def test_entry_after_time_names_first_row(self, tmp_path):
        lines = [f"0.1,{i + 1}.0,1" for i in range(_ROWS + 10)]
        lines[_ROWS + 7] = "9.5,9.0,0"
        lines[_ROWS + 8] = "9.5,9.5,0"
        path = write(tmp_path, "entry,time,status\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"row {_ROWS + 7}: entry 9.5 must be < time 9.0"):
            parse_survival_csv(path)

    def test_multi_block_roundtrip_bit_exact(self, tmp_path, rng):
        n = 2 * _ROWS + 17
        time = rng.exponential(2.0, n) + 0.5
        frame = SurvivalFrame(
            time=time,
            status=rng.integers(0, 2, n),
            entry=time * rng.uniform(0, 0.9, n),
            covariates=rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2)),
        )
        path = tmp_path / "blocks.csv"
        write_survival_csv(frame, path)
        back = parse_survival_csv(path)
        for col in ("time", "status", "entry", "covariates"):
            assert np.array_equal(getattr(back, col), getattr(frame, col))

    def test_memory_bounded_by_columns(self, tmp_path, rng):
        # the file is ~4.6 MB of text; holding its rows at once peaks at ~25 MB
        n = 100_000
        frame = SurvivalFrame(
            time=rng.exponential(size=n) + 0.01,
            status=rng.integers(0, 2, n),
            entry=np.zeros(n),
            covariates=rng.normal(size=(n, 2)),
        )
        path = tmp_path / "big.csv"
        write_survival_csv(frame, path)
        _, peak = traced_peak(parse_survival_csv, path)
        assert peak < 12e6


ODD_FLOATS = [5e-324, -0.0, 1e308, 0.1 + 0.2, 3.0, 1e16, -7.0, 1 / 3]

# odd cells mixed into valid tables: cells that numpy's C reader or a column
# check rejects, non-finite values, and (the last two) floats that only
# Python's float() reads
ODD_CELLS = ["", "#", "1#2", "x1", "2", '"1,5"', "nan", "Infinity", "1e400", "1_0", "\uff11"]


def _spellings(value):
    """Ways to write ``value`` that Python's float reads back to its bits."""
    text = repr(value)
    return [text, f" {text} ", f'"{text}"'] + ([] if text.startswith("-") else ["+" + text])


@st.composite
def odd_csv_texts(draw, header, values):
    """A CSV text under ``header``: rows of ``values(column, i)`` spelled in
    several ways, with odd cells, ragged rows, blank and whitespace-only
    lines, mixed line ends and a possibly missing final newline."""
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 5))):
        # about one cell in twenty is odd
        cells = [[t for v in values(col, i) for t in _spellings(v)] for col in header]
        row = [draw(st.sampled_from(c * (200 // len(c)) + ODD_CELLS)) for c in cells]
        width = draw(st.sampled_from([0] * 18 + [-1, 1]))
        row = row[:width] if width < 0 else row + ["1"] * width
        lines += draw(st.sampled_from([[]] * 18 + [[""], [" \t"]])) + [",".join(row)]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _survival_values(col, i):
    return {
        "time": [i + 0.5, 0.1 + 0.2, 1e308],
        "status": [0.0, 1.0],
        "entry": [0.0, -0.0, 5e-324],
    }.get(col, ODD_FLOATS)


def _curve_values(col, i):
    return [i + 0.5, i + 0.1 + 0.2] if col == "t" else [2.0**-i, 0.5**i]


def _survival_arrays(path):
    frame = parse_survival_csv(path)
    return frame.time, frame.status, frame.entry, frame.covariates


def _curve_arrays(path):
    pfs, os_ = curves_from_csv(path)
    return pfs.grid, pfs.values, os_.grid, os_.values


def _outcome(read, path):
    """The bytes of what ``read`` returns, or the type and text of what it
    raises, and the text of every warning it lets out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [(a.dtype, a.shape, a.tobytes()) for a in read(path)]
        except Exception as exc:
            result = type(exc), str(exc)
    return result, [str(w.message) for w in caught]


def _csv_path_outcome(read, path):
    """``_outcome`` with every column read by the csv path alone."""
    csv_path = hazstep.data._read_csv_columns
    with mock.patch.object(hazstep.data, "_read_columns", csv_path), mock.patch.object(
        hazstep.multistate, "_read_columns", csv_path
    ):
        return _outcome(read, path)


class TestFloatTableReader:
    """All-float tables go through numpy's C reader; the csv path is the oracle."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("odd") / "odd.csv"

    @pytest.mark.parametrize(
        "read, header, values",
        [
            (_survival_arrays, ["entry", "time", "status", "w1"], _survival_values),
            # a quoted header cell holding a line end
            (_survival_arrays, ["status", '"w\r\n1"', "time", "w2"], _survival_values),
            (_curve_arrays, ["t", "S_PFS", "S_OS"], _curve_values),
        ],
        ids=["entry-w1", "reordered", "curves"],
    )
    @settings(derandomize=True, max_examples=100)
    @given(data=st.data())
    def test_same_outcome_as_csv_path(self, path, read, header, values, data):
        path.write_bytes(data.draw(odd_csv_texts(header, values)).encode())
        assert _outcome(read, path) == _csv_path_outcome(read, path)

    @staticmethod
    def count_csv_path_calls(monkeypatch):
        calls = []
        csv_path = hazstep.data._read_csv_columns

        def counting(path, converters):
            calls.append(path)
            return csv_path(path, converters)

        monkeypatch.setattr(hazstep.data, "_read_csv_columns", counting)
        return calls

    def test_valid_table_skips_csv_path(self, tmp_path, monkeypatch):
        calls = self.count_csv_path_calls(monkeypatch)
        lines = [f"{i + 1}.5,{i % 2}" for i in range(2 * _ROWS + 17)]
        frame = parse_survival_csv(write(tmp_path, "time,status\n" + "\n".join(lines) + "\n"))
        assert frame.n == 2 * _ROWS + 17
        assert calls == []

    def test_bad_cell_reaches_csv_path_and_names_row(self, tmp_path, monkeypatch):
        calls = self.count_csv_path_calls(monkeypatch)
        lines = [f"{i + 1}.5,{i % 2}" for i in range(2 * _ROWS + 17)]
        lines[_ROWS + 3] = "x1,0"
        path = write(tmp_path, "time,status\n" + "\n".join(lines) + "\n")
        with pytest.raises(
            ValidationError, match=f"row {_ROWS + 3}: column 'time': cannot parse number from 'x1'"
        ):
            parse_survival_csv(path)
        assert calls == [path]

    def test_bad_status_named_by_frame_after_one_pass(self, tmp_path, monkeypatch):
        calls = self.count_csv_path_calls(monkeypatch)
        lines = [f"{i + 1}.5,{i % 2}" for i in range(2 * _ROWS + 17)]
        lines[_ROWS + 3] = "4.0,2"
        path = write(tmp_path, "time,status\n" + "\n".join(lines) + "\n")
        with pytest.raises(
            ValidationError, match=f"row {_ROWS + 3}: status must be 0 or 1, got 2.0"
        ):
            parse_survival_csv(path)
        assert calls == []

    def test_multistate_reaches_csv_path(self, tmp_path, monkeypatch):
        calls = self.count_csv_path_calls(monkeypatch)
        path = write(tmp_path, HEADER + "1,0,1,0,2.0\n1,1,cens,2.0,5.0\n")
        assert len(parse_multistate_csv(path)) == 2
        assert calls == [path]



class TestWritersMatchRowOracles:
    """Every column writer writes the bytes of the row-by-row writer it replaced."""

    @staticmethod
    def same_bytes(tmp_path, write_new, write_rows):
        new, rows = tmp_path / "new.csv", tmp_path / "rows.csv"
        write_new(new)
        write_rows(rows)
        assert new.read_bytes() == rows.read_bytes()
        return new.read_bytes()

    @pytest.mark.parametrize("with_entry", [False, True])
    def test_survival(self, tmp_path, with_entry):
        time = np.array([5e-324, 0.1 + 0.2, 1e308, 3.0, 1e16, 2.5])
        entry = np.array([0.0, 0.1, 1.0, 2.0, 0.0, 5e-324]) if with_entry else np.zeros(6)
        cov = np.array(ODD_FLOATS[:6] + ODD_FLOATS[2:8]).reshape(6, 2)
        frame = SurvivalFrame(time=time, status=[1, 0, 1, 1, 0, 0], entry=entry, covariates=cov)
        text = self.same_bytes(
            tmp_path,
            lambda p: write_survival_csv(frame, p),
            lambda p: write_survival_csv_rows(frame, p),
        )
        assert text.startswith(b"entry,time" if with_entry else b"time,status,w1,w2\r\n")

    def test_multistate(self, tmp_path):
        frame = MultiStateFrame(
            id=["a,b", 'say "hi"', "a,b", "cens", "7"],
            from_state=[0, 0, 1, 0, 0],
            to_state=[1, CENSORED_STATE, CENSORED_STATE, 2, 1],
            t_start=[0.0, 0.0, 0.1 + 0.2, -0.0, 0.0],
            t_stop=[0.1 + 0.2, 5e-324, 1e308, 3.0, 1e16],
        )
        text = self.same_bytes(
            tmp_path,
            lambda p: write_multistate_csv(frame, p),
            lambda p: write_multistate_csv_rows(frame, p),
        )
        assert b'"a,b",0,1,0.0,0.30000000000000004\r\n' in text
        assert b'"say ""hi""",0,cens,0.0,5e-324\r\n' in text
        back = parse_multistate_csv(tmp_path / "new.csv")
        assert back.id.tolist() == frame.id.tolist()

    def test_breslow_odd_values(self, tmp_path):
        curve = BreslowCurve(
            jump_times=[5e-324, 0.1 + 0.2, 3.0, 1e16],
            jump_sizes=[5e-324, 0.1, 0.2, 1e308],
            tau=1e308,
        )
        self.same_bytes(tmp_path, curve.to_csv, lambda p: breslow_to_csv_rows(curve, p))
        empty = BreslowCurve(jump_times=[], jump_sizes=[], tau=2.0)
        text = self.same_bytes(tmp_path, empty.to_csv, lambda p: breslow_to_csv_rows(empty, p))
        assert text == b"time,cumhaz\r\n0.0,0.0\r\n"

    def test_breslow_cumsum_equals_running_sum(self, tmp_path, rng):
        n = 100_000
        curve = BreslowCurve(
            jump_times=np.cumsum(rng.exponential(size=n)),
            jump_sizes=rng.exponential(size=n) * 10.0 ** rng.integers(-8, 3, n),
            tau=float(n) * 3,
        )
        self.same_bytes(tmp_path, curve.to_csv, lambda p: breslow_to_csv_rows(curve, p))

    def test_curves_and_km(self, tmp_path):
        grid = [0.0, 5e-324, 0.1 + 0.2, 3.0, 1e16, 1e308]
        pfs = SurvivalCurve(grid, [1.0, 1.0, 0.1 + 0.2, 1 / 3 - 0.1, 5e-324, -0.0])
        os_ = SurvivalCurve(grid, [1.0, 1.0, 0.5, 1 / 3, 1e-300, 0.0])
        self.same_bytes(
            tmp_path,
            lambda p: curves_to_csv(pfs, os_, p),
            lambda p: curves_to_csv_rows(pfs, os_, p),
        )
        self.same_bytes(tmp_path, lambda p: km_to_csv(pfs, p), lambda p: km_to_csv_rows(pfs, p))

    def test_report_table(self, tmp_path):
        def report(name, values):
            rows = [
                dict(l2_sq=v, d_asym=v / 3, snr=-v, censored_fraction=0.1 + 0.2,
                     n_changepoints=1)
                for v in values
            ]
            return StudyReport(name, 1000, len(rows), 1, rows, [])

        reports = [report('B2,"x"', [0.5, 1e100, 3.0]), report("cens", [5e-324])]
        text = self.same_bytes(
            tmp_path,
            lambda p: report_table_csv(reports, p),
            lambda p: report_table_csv_rows(reports, p),
        )
        assert b"cens,1000,1,0.000,0.000,-0.000,0.300\r\n" in text
        with open(tmp_path / "new.csv", newline="") as fh:
            scenarios = [row[0] for row in csv.reader(fh)]
        assert scenarios == ["scenario", 'B2,"x"', "cens"]


class TestColumnWriter:
    """Cells the column writer formats itself, against csv.writer on the same rows."""

    def test_text_cells_quoted_as_csv_writer_does(self, tmp_path):
        texts = ["", " x ", "a,b", 'say "hi"', '"', "a\rb", "a\nb", "\r\n", "é", "cens", "7"]
        numbers = np.arange(len(texts))
        path = tmp_path / "text.csv"
        _write_columns(path, ["id", "k"], [texts, numbers])
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["id", "k"], *zip(texts, numbers.tolist())])
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == texts

    def test_float_runs_keep_every_repr(self):
        # each cell is its own repr, so -0.0 stays apart from 0.0 and NaN is written
        values = np.array([0.0, -0.0, -0.0, 0.0, 1.5, 1.5, np.nan, np.nan, np.inf, -np.inf, 5e-324])
        for column in (values, np.repeat(values, 3), np.column_stack((values, values)).T[1]):
            assert _cells(column) == list(map(repr, column.tolist()))


class TestJsonText:
    """``_json_text`` against ``json.dumps(obj, sort_keys=True, indent=...)``."""

    CASES = {
        "nested dicts": {"b": {"z": 1, "a": [1, 2]}, "a": {"c": {"d": [3.5]}}, "c": "x, y"},
        "empty containers": {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
        "mixed scalars": [1, 2.5, True, False, None, 0, -3],
        "odd floats": [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, 0.1 + 0.2],
        "odd floats as values": {"nan": float("nan"), "inf": float("inf"), "zero": -0.0},
        "strings in lists": ["a, b", "é", "line\nbreak", 1.0, None],
        "lists of lists": [[1.0, 2.0], [3.0], [], [[4.0, [5]]]],
        "records in lists": [{"b": 1, "a": [0.5, -0.5]}, {"x": None}],
        "tuples and non-string keys": {2: (1.0, 2.0), 10: "ten", 1.5: [True]},
        "top-level list": [0.25] * 5,
        "top-level scalar": 1e-300,
        "empty list": [],
        "empty dict": {},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_equals_json_dumps(self, case, indent):
        obj = self.CASES[case]
        assert _json_text(obj, indent) == json.dumps(obj, sort_keys=True, indent=indent)

    @pytest.mark.parametrize("size", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3])
    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_arrays_encode_as_their_lists(self, rng, size, indent):
        # empty, one value and some thousand values; a reversed view is strided
        values = rng.normal(size=size)
        values[:4] = [-0.0, 5e-324, 1e300, 1 / 3][:size]
        obj = {"b": values, "a": [values[::-1], {"c": values}], "n": 3}
        as_lists = {"b": values.tolist(), "a": [values[::-1].tolist(), {"c": values.tolist()}], "n": 3}
        assert _json_text(obj, indent) == json.dumps(as_lists, sort_keys=True, indent=indent)
        assert _json_text(values, indent) == json.dumps(values.tolist(), indent=indent)

    @pytest.fixture(scope="class")
    def cli_records(self):
        """Every record the CLI writes, from small seeded runs."""
        config = FitConfig(tuning=TuningConfig(l_boot=30, seed=4))
        fit = fit_hazard(gen_scenario(named_scenario("B1", 300), 4), config)
        truth = IllnessDeathModel(
            a01=StepFunction(Window(0, 1), [0.3], [2.0, 1.0]),
            a02=StepFunction(Window(0, 1), [], [0.75]),
            a12=StepFunction(Window(0, 1), [], [1.5]),
        )
        fits = fit_illness_death_detailed(simulate_illness_death(truth, 400, 0.25, 4), config)
        model = IllnessDeathModel(
            a01=fits[(0, 1)].hazard, a02=fits[(0, 2)].hazard, a12=fits[(1, 2)].hazard
        )
        # one replication: the aggregates' standard deviations are NaN
        study = run_study(named_scenario("A1", 150), 1, 4)
        return {
            "hazard": fit,
            "tuning": fit.tuning,
            "hazard_01": fits[(0, 1)],
            "model": model,
            "study_runs": study,
        }

    @pytest.mark.parametrize("name", ["hazard", "tuning", "hazard_01", "model", "study_runs"])
    def test_cli_records(self, cli_records, name):
        record = cli_records[name]
        obj = record.to_dict()
        text = _json_text(obj, indent=2)
        assert text == json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist)
        assert record.to_json(indent=2) == text
        assert record.to_json() == json.dumps(obj, sort_keys=True, default=np.ndarray.tolist)


def _columns_reader(converters):
    """The column reader every CSV file goes through, given one artifact's columns."""
    return lambda path: _read_columns(path, converters)


ARTIFACT_READERS = {
    "cumhaz": (
        _columns_reader({"time": _floats, "cumhaz": _floats}),
        "time,cumhaz",
        "0.0,0.0",
        "0.5,abc",
    ),
    "curves": (curves_from_csv, "t,S_PFS,S_OS", "0.0,1.0,1.0", "0.5,0.9,x"),
    "km": (_columns_reader({"t": _floats, "survival": _floats}), "t,survival", "0.0,1.0", "x,0.5"),
    "report": (
        _columns_reader(
            {"scenario": _text, "n": _counts, "replications": _counts}
            | dict.fromkeys(("l2_sq", "d_asym", "snr", "censored_fraction"), _text)
        ),
        "scenario,n,replications,l2_sq,d_asym,snr,censored_fraction",
        "A1,1000,5,0.010 (0.002),0.1,2.0,0.3",
        "A1,1000,many,0.010 (0.002),0.1,2.0,0.3",
    ),
}


class TestHostileArtifactFiles:
    @pytest.mark.parametrize("reader", sorted(ARTIFACT_READERS))
    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty", "empty file, header row required"),
            ("header only", "no data rows"),
            ("short row", "row 1: 1 fields, but the header has"),
            ("non-numeric", "row 1: column '"),
        ],
    )
    def test_rejected_with_validation_error(self, tmp_path, reader, case, message):
        read, header, good, bad = ARTIFACT_READERS[reader]
        text = {
            "empty": "",
            "header only": header + "\r\n",
            "short row": f"{header}\r\n{good}\r\n0.5\r\n",
            "non-numeric": f"{header}\r\n{good}\r\n{bad}\r\n",
        }[case]
        with pytest.raises(ValidationError, match=message):
            read(write(tmp_path, text))


def _fit_with_supplied_beta(beta):
    config = FitConfig(beta=beta, window=Window(0, 1), tuning=TuningConfig(seed=0, l_boot=10))
    frame = gen_scenario(Scenario(two_level_hazard(), n=100, with_covariates=True), 0)
    return [(config, ("beta",)), (fit_hazard(frame, config), ("beta",))]


def _fitted_records(_):
    """The records of a fit whose beta comes from cox_fit (a frame copies its columns)."""
    frame = gen_scenario(Scenario(two_level_hazard(), n=100, with_covariates=True), 0)
    fit = fit_hazard(frame, FitConfig(window=Window(0, 1), tuning=TuningConfig(l_boot=10)))
    assert fit.cox is not None and fit.beta is fit.cox.beta
    return [
        (fit, ("raw_levels", "beta")),
        (fit.cox, ("beta",)),
        (fit.flsa, ("alpha", "y")),
        (fit.tuning, ("u_boot", "residuals")),
    ]


# each builds records from views into a base array of six floats (a fit's
# records from a frame, which copies its columns), and names the array fields
# it expects to be private, read-only copies
RECORDS_FROM_VIEWS = {
    "StepFunction": lambda b: [(StepFunction(Window(0, 1), b[1:3], b[3:]), ("breaks", "levels"))],
    "BreslowCurve": lambda b: [(BreslowCurve(b[1:3], b[4:], tau=1.0), ("jump_times", "jump_sizes"))],
    "SurvivalCurve": lambda b: [(SurvivalCurve(b[:3], b[3:]), ("grid", "values"))],
    "Scenario": lambda b: [(Scenario(two_level_hazard(), n=10, beta=b[1:3]), ("beta",))],
    "FitConfig.beta": lambda b: _fit_with_supplied_beta(b[1:3]),
    "flsa_solve": lambda b: [(flsa_solve(b[1:], 0.01), ("alpha", "y"))],
    "bootstrap_lambda": lambda b: [
        (bootstrap_lambda(b[1:], TuningConfig(k_max=1, l_boot=10)), ("u_boot", "residuals"))
    ],
    "cox_fit": lambda b: [
        (cox_fit(SurvivalFrame([2, 1, 4, 3], [1, 1, 1, 1], [0] * 4, b[:4])), ("beta",))
    ],
    "fit_hazard": _fitted_records,
    "survival_curves grid": lambda b: [
        (curve, ("grid", "values"))
        for curve in survival_curves(
            IllnessDeathModel(*[StepFunction(Window(0.0, 1.0), [], [1.0])] * 3), b[:4]
        )
    ],
}

VALID_KWARGS = {
    StepFunction: lambda: dict(domain=Window(0.0, 1.0), breaks=[0.5], levels=[1.0, 2.0]),
    BreslowCurve: lambda: dict(jump_times=[0.5, 0.75], jump_sizes=[0.1, 0.2], tau=1.0),
    SurvivalCurve: lambda: dict(grid=[0.0, 0.5], values=[1.0, 0.5]),
    Scenario: lambda: dict(hazard=two_level_hazard(), n=10, beta=[0.25, 1.0], censoring_rate=0.5),
    FitConfig: lambda: dict(beta=[0.25, 1.0], p_low=0.0, p_high=0.975),
    Window: lambda: dict(tau_min=0.0, tau_max=1.0),
    TuningConfig: lambda: dict(q=0.9),
    SurvivalFrame: lambda: dict(time=[1.5, 2.0], status=[1, 0], entry=[0.0, 0.0],
                                covariates=[[0.5], [1.0]]),
    MultiStateFrame: lambda: dict(id=[1, 1], from_state=[0, 1], to_state=[1, 2],
                                  t_start=[0.0, 1.0], t_stop=[1.0, 2.0]),
}

# every float field of a record: the arrays, then the scalars
FLOAT_FIELDS = [
    (StepFunction, "breaks"),
    (StepFunction, "levels"),
    (BreslowCurve, "jump_times"),
    (BreslowCurve, "jump_sizes"),
    (SurvivalCurve, "grid"),
    (SurvivalCurve, "values"),
    (Scenario, "beta"),
    (FitConfig, "beta"),
    (BreslowCurve, "tau"),
    (Window, "tau_min"),
    (Window, "tau_max"),
    (Scenario, "censoring_rate"),
    (FitConfig, "p_low"),
    (FitConfig, "p_high"),
    (TuningConfig, "q"),
]
FLOAT_FIELD_IDS = [f"{make.__name__}.{field}" for make, field in FLOAT_FIELDS]
SCALAR_FLOAT_FIELDS = FLOAT_FIELDS[8:]  # after the eight arrays
# every float array field, the frames' columns included
ARRAY_FIELDS = FLOAT_FIELDS[:8] + [
    (SurvivalFrame, "time"),
    (SurvivalFrame, "entry"),
    (SurvivalFrame, "covariates"),
    (MultiStateFrame, "t_start"),
    (MultiStateFrame, "t_stop"),
]


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(time=[1.0, 2.0, np.nan, np.inf]), "non-finite time, entry or covariate"),
            (dict(covariates=[[0.5], [0.5], [np.inf], [np.nan]]), "non-finite time, entry or"),
            (dict(time=[1.0, 2.0, -3.0, -4.0]), "times must be >= 0"),
            (dict(entry=[0.0, 0.0, -0.5, -1.0]), "entry times must be >= 0"),
            (dict(status=[1, 0, 2, 3]), "status must be 0 or 1, got 2"),
            (dict(status=[1.0, 0.0, 0.5, 2.0]), "status must be 0 or 1, got 0.5"),
            (dict(entry=[0.0, 0.0, 3.0, 5.0]), "entry 3.0 must be < time 3.0"),
        ],
        ids=["time", "covariate", "time<0", "entry<0", "status-int", "status-float", "late"],
    )
    def test_each_rule_names_first_row(self, bad, message):
        four = dict(time=[1.0, 2.0, 3.0, 4.0], status=[1, 0, 1, 0], entry=[0.0] * 4,
                    covariates=[[0.5]] * 4)
        with pytest.raises(ValidationError, match=re.escape(f"row 2: {message}")):
            SurvivalFrame(**{**four, **bad})

    @pytest.mark.parametrize("src, dst", [([0, -1], [1, 2]), ([0, 0], [1, -2])], ids=["from", "to"])
    def test_negative_state_names_subject(self, src, dst):
        with pytest.raises(ValidationError, match="^subject b: states must be >= 0$"):
            MultiStateFrame(id=["a", "b"], from_state=src, to_state=dst, t_start=[0.0, 0.0],
                            t_stop=[1.0, 1.0])

    @pytest.mark.parametrize("status", [[0.5, 1.7], np.array([257, 256])], ids=["float", "wraps"])
    def test_non_binary_status_rejected(self, status):
        # checked before the int8 cast, which would truncate or wrap the values
        with pytest.raises(ValidationError, match="status must be 0 or 1"):
            SurvivalFrame(time=[1.0, 2.0], status=status, entry=[0.0, 0.0], covariates=[])

    def test_columns_do_not_alias_caller_arrays(self):
        base = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        status = np.ones(4, dtype=np.int8)
        frame = SurvivalFrame(time=base[0], status=status, entry=base[1], covariates=base[1:].T)
        ones = np.ones(4)
        assert risk_set_sums(frame, ones, [2.5]).tolist() == [2.0]  # caches the sort orders
        base[0, 3] = 0.5
        base[1, 0] = 0.25
        status[0] = 0
        assert frame.time.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert frame.entry.tolist() == [0.0] * 4
        assert frame.covariates.tolist() == [[0.0]] * 4
        assert frame.status.tolist() == [1] * 4
        assert risk_set_sums(frame, ones, [2.5]).tolist() == [2.0]

    @pytest.mark.parametrize("build", RECORDS_FROM_VIEWS.values(), ids=RECORDS_FROM_VIEWS.keys())
    def test_records_do_not_alias_caller_arrays(self, build):
        base = np.array([0.0, 0.25, 0.5, 1.0, 0.5, 0.25])
        records = build(base)
        before = [[getattr(r, f).copy() for f in fields] for r, fields in records]
        base *= 2.0
        for (record, fields), arrays in zip(records, before):
            for name, array in zip(fields, arrays):
                held = getattr(record, name)
                assert held.tobytes() == array.tobytes(), (type(record).__name__, name)
                assert not held.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    held[0] = 7.0

    def test_only_freeze_sets_flags_or_frozen_fields(self):
        # one helper makes arrays read-only and sets fields of frozen records
        freeze = inspect.getsource(_freeze)
        tokens = ("setflags(", "object.__setattr__")
        assert all(token in freeze for token in tokens)
        for path in sorted(Path(inspect.getfile(_freeze)).parent.glob("*.py")):
            text = path.read_text()
            if path.name == "data.py":
                text = text.replace(freeze, "", 1)
            assert [token for token in tokens if token in text] == [], path.name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make, field", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
    def test_non_finite_float_fields_rejected(self, make, field, bad):
        kwargs = VALID_KWARGS[make]()
        value = kwargs[field]
        kwargs[field] = bad if np.isscalar(value) else [bad, *value[1:]]
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            make(**kwargs)

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["huge-int", "huge-negative-int"])
    @pytest.mark.parametrize("make, field", SCALAR_FLOAT_FIELDS, ids=FLOAT_FIELD_IDS[8:])
    def test_int_beyond_the_float_range_is_not_finite(self, make, field, bad):
        # abs(10**400) < inf holds, so such an int used to pass and overflow later
        kwargs = VALID_KWARGS[make]()
        kwargs[field] = bad
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            make(**kwargs)

    @pytest.mark.parametrize("make, field", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
    def test_non_numeric_float_fields_rejected(self, make, field):
        # a scalar field used to take a string, or to fail on it with a TypeError
        kwargs = VALID_KWARGS[make]()
        value = kwargs[field]
        if np.isscalar(value):
            kwargs[field], rule = "0.5", "a number, got '0.5'"
        else:
            kwargs[field], rule = ["x", *value[1:]], "a sequence of numbers"
        with pytest.raises(ValidationError, match=f"^{field} must be {rule}"):
            make(**kwargs)

    @pytest.mark.parametrize("bad", [True, False])
    @pytest.mark.parametrize("make, field", SCALAR_FLOAT_FIELDS, ids=FLOAT_FIELD_IDS[8:])
    def test_boolean_float_fields_rejected(self, make, field, bad):
        # a bool is an int to Python, and used to pass as 1 or 0
        kwargs = VALID_KWARGS[make]()
        kwargs[field] = bad
        with pytest.raises(ValidationError, match=f"^{field} must be a number, got {bad}$"):
            make(**kwargs)


    @pytest.mark.parametrize("bad", ["0.5", True, np.True_], ids=["text", "bool", "numpy-bool"])
    @pytest.mark.parametrize(
        "make, field", ARRAY_FIELDS, ids=[f"{m.__name__}.{f}" for m, f in ARRAY_FIELDS]
    )
    def test_array_fields_take_only_numbers(self, make, field, bad):
        # np.array(..., dtype=float) used to read "0.5" as 0.5 and True as 1.0
        kwargs = VALID_KWARGS[make]()
        value = kwargs[field]
        kwargs[field] = [[bad], *value[1:]] if field == "covariates" else [bad, *value[1:]]
        with pytest.raises(ValidationError, match=f"^{field} must be a sequence of numbers, got "):
            make(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(time=["1.5", True]), "time"),
            (dict(entry=["0", 0]), "entry"),
            (dict(covariates=[["1"], [True]]), "covariates"),
            (dict(time=np.array([True, True])), "time"),
            (dict(entry=np.array(["0", "0"])), "entry"),
            (dict(time=[np.zeros((2, 2)), np.zeros((2, 3))]), "time"),
        ],
        ids=["time", "entry", "covariates", "bool-array", "text-array", "unstackable-arrays"],
    )
    def test_frame_columns_take_only_numbers(self, kwargs, field):
        two = dict(time=[1.5, 2.0], status=[1, 0], entry=[0, 0], covariates=np.empty((2, 0)))
        with pytest.raises(ValidationError, match=f"^{field} must be a sequence of numbers, got "):
            SurvivalFrame(**{**two, **kwargs})

    def test_step_function_takes_only_numbers(self):
        message = r"^breaks must be a sequence of numbers, got \['0.5'\]$"
        with pytest.raises(ValidationError, match=message):
            StepFunction(Window(0, 1), ["0.5"], [True, "2"])

    def test_numeric_arrays_are_checked_by_their_dtype(self, monkeypatch):
        # a numeric array keeps the fast path: no item of it is looked at in Python
        domain = Window(0.0, 1.0)
        monkeypatch.setattr(hazstep.data, "_is_number", None)
        frame = SurvivalFrame(time=np.array([1.5, 2.0]), status=np.array([1, 0]),
                              entry=np.zeros(2, dtype=np.int32),
                              covariates=np.ones((2, 1), dtype=np.float32))
        assert frame.entry.dtype == frame.covariates.dtype == np.float64
        levels = np.arange(2, dtype=np.uint8)
        assert StepFunction(domain, np.array([0.5]), levels).levels.tolist() == [0.0, 1.0]
        ms = MultiStateFrame(id=[1], from_state=[0], to_state=[1], t_start=np.zeros(1),
                             t_stop=np.ones(1, dtype=np.int64))
        assert ms.t_stop.tolist() == [1.0]

    def test_long_column_message_is_abridged(self):
        n = 100_000
        with pytest.raises(ValidationError, match=r"^time must be .*, \.\.\.\]$") as caught:
            SurvivalFrame(time=[1.0] * n + ["2"], status=[1] * (n + 1), entry=[0.0] * (n + 1),
                          covariates=[])
        assert len(str(caught.value)) < 100


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
            ("1,0,1,0,inf\n", f"subject 1: {BAD_TIMES} t_start 0.0, t_stop inf"),
            ("1,0,cens,0,inf\n", f"subject 1: {BAD_TIMES} t_start 0.0, t_stop inf"),
            ("1,0,1,0,2.0\n1,1,2,2.0,nan\n", f"subject 1: {BAD_TIMES} t_start 2.0, t_stop nan"),
            ("1,0,1,0,2.0\n2,0,2,-1,1.0\n", f"subject 2: {BAD_TIMES} t_start -1.0, t_stop 1.0"),
            ("1,0,1,-inf,2.0\n", f"subject 1: {BAD_TIMES} t_start -inf, t_stop 2.0"),
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
            # the frame allows -1, CENSORED_STATE, so only the reader rejects it
            "1,0,1,0,2.0\n1,1,-1,2.0,5.0\n",
        ],
    )
    def test_non_integer_state_reports_row(self, tmp_path, rows):
        with pytest.raises(ValidationError, match="row 1"):
            parse_multistate_csv(write(tmp_path, HEADER + rows))

    @pytest.mark.parametrize(
        "row, got", [("1,1", 2), ("1,1,2,2.0,5.0,9", 6)], ids=["short", "long"]
    )
    def test_field_count_mismatch_reports_row(self, tmp_path, row, got):
        path = write(tmp_path, HEADER + f"1,0,1,0,2.0\n{row}\n")
        with pytest.raises(ValidationError, match=f"row 1: {got} fields, but the header has 5"):
            parse_multistate_csv(path)

    def test_censored_token(self, tmp_path):
        text = HEADER + "1,0,cens,0,3.0\n"
        frame = parse_multistate_csv(write(tmp_path, text))
        assert frame.to_state.tolist() == [CENSORED_STATE]
        assert frame.t_stop.tolist() == [3.0]

    def test_other_censor_token_rejected(self, tmp_path):
        text = HEADER + "1,0,LOST,0,3.0\n"
        with pytest.raises(ValidationError, match="row 0: column 'to'"):
            parse_multistate_csv(write(tmp_path, text))

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

    def test_sojourn_frame_counts_any_exit(self):
        frame = multistate(
            [(1, 0, 1, 0.0, 2.0), (1, 1, 2, 2.0, 5.0), (2, 0, 2, 0.0, 1.5), (3, 0, None, 0.0, 3.0)]
        )
        state0 = sojourn_frame(frame, 0)
        assert state0.time.tolist() == [2.0, 1.5, 3.0]
        assert state0.status.tolist() == [1, 1, 0]
        assert state0.entry.tolist() == [0.0] * 3
        state1 = sojourn_frame(frame, 1)
        assert (state1.entry.tolist(), state1.time.tolist()) == ([2.0], [5.0])
        assert state1.status.tolist() == [1]

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
