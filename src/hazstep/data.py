"""Event-history data model: survival frames, multi-state frames, risk sets.

Survival data are stored column-wise in immutable frames.  Multi-state
trajectories are kept column-wise in long format (one row per sojourn) and
reduced to per-transition survival frames, treating the entry time into the
source state as a left-truncation time.  Every risk set of the package is
computed by :func:`risk_set_sums`.
"""

from __future__ import annotations

import csv
import json
import re
import reprlib
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ValidationError

__all__ = [
    "CENSORED",
    "CENSORED_STATE",
    "SurvivalFrame",
    "MultiStateFrame",
    "parse_survival_csv",
    "write_survival_csv",
    "parse_multistate_csv",
    "write_multistate_csv",
    "split_transitions",
    "sojourn_frame",
    "absorption_frame",
    "risk_set_sums",
]

# token used for the censoring pseudo-state in multi-state CSV files
CENSORED = "cens"
# code of the censoring pseudo-state in MultiStateFrame.to_state
CENSORED_STATE = -1


# A validated record owns private, read-only arrays, so no write through the
# caller's arrays or its own reaches it: _column copies a float column and
# rejects NaN and +-inf, _freeze stores the validated arrays read-only.  A
# result record (CoxFit, FusedLassoFit, TuningResult, HazardFit) freezes the
# arrays its function computed, with no second copy.


def _floats_of(values, name: str) -> np.ndarray:
    """A private float copy of ``values``: a numeric-dtype array or nested sequences of numbers."""
    try:
        a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        numbers = a.dtype.kind in "iuf" or (a.dtype == object and all(map(_is_number, a.flat)))
    except ValueError:  # arrays numpy cannot stack, such as of shapes (2, 2) and (2, 3)
        a, numbers = None, False
    if not numbers or a.ndim == 0:
        raise ValidationError(f"{name} must be a sequence of numbers, got {reprlib.repr(values)}")
    return a.astype(float)


def _column(values, name: str) -> np.ndarray:
    """A private 1-D float copy of ``values``, which must all be finite."""
    col = _floats_of(values, name).reshape(-1)
    if not np.all(np.isfinite(col)):
        raise ValidationError(f"{name} must be finite")
    return col


def _is_number(value) -> bool:
    """True for an int or a float, numpy's included; False for a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_integer(value, name: str, low: int) -> None:
    """Raise a ValidationError naming ``name`` unless ``value`` is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")


def _check_number(value, name: str) -> None:
    """Raise a ValidationError naming ``name`` unless ``value`` is a finite number."""
    if not _is_number(value):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf and ints beyond the float range
        raise ValidationError(f"{name} must be finite")


def _check_rows(label: str, rules, **columns) -> None:
    """Raise a ValidationError for the first of the (broken mask, rule) ``rules`` that
    any row breaks, at the first row i that breaks it: ``label + rule``, formatted with
    ``row=i`` and each column's value at i.  Values are never read as templates."""
    for broken, rule in rules:
        if np.any(broken):
            i = int(np.argmax(broken))
            values = {name: column[i] for name, column in columns.items()}
            raise ValidationError((label + rule).format(row=i, **values))


def _freeze(record, **arrays) -> None:
    """Make each validated array read-only and set it as a field of the frozen ``record``."""
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(record, name, a)


@dataclass(frozen=True)
class SurvivalFrame:
    """Column-wise survival sample (time, status, entry, covariates)."""

    time: np.ndarray
    status: np.ndarray
    entry: np.ndarray
    covariates: np.ndarray  # shape (n, d), d may be 0

    def __post_init__(self):
        time = _floats_of(self.time, "time").reshape(-1)
        # status is checked before its int8 copy, which would truncate 1.7 or wrap 257
        status = np.asarray(self.status).reshape(-1)
        entry = _floats_of(self.entry, "entry").reshape(-1)
        cov = _floats_of(self.covariates, "covariates")
        if cov.ndim == 1:
            cov = cov.reshape(len(time), -1) if cov.size else cov.reshape(len(time), 0)
        n = time.size
        if status.size != n or entry.size != n or cov.shape[0] != n:
            raise ValidationError("column lengths differ")
        finite = np.isfinite(time) & np.isfinite(entry) & np.all(np.isfinite(cov), axis=1)
        _check_rows("row {row}: ", [
            (~finite, "non-finite time, entry or covariate"),
            (time < 0, "times must be >= 0"),
            (entry < 0, "entry times must be >= 0"),
            ((status != 0) & (status != 1), "status must be 0 or 1, got {status}"),
            (entry >= time, "entry {entry} must be < time {time}"),
        ], status=status, entry=entry, time=time)
        _freeze(self, time=time, status=status.astype(np.int8), entry=entry, covariates=cov)

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def __len__(self) -> int:
        return self.n

    def event_times(self) -> np.ndarray:
        return self.time[self.status == 1]

    # the columns are read-only, so what is derived from them alone is kept

    @cached_property
    def _event_ties(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct event times, ascending, and the number of events at each."""
        ev_times, inverse = np.unique(self.event_times(), return_inverse=True)
        return ev_times, np.bincount(inverse, minlength=ev_times.size).astype(float)

    @cached_property
    def _risk_orders(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(sorted keys, stable order) of time, and of entry under left truncation."""
        keys = [self.time, self.entry] if np.any(self.entry > 0) else [self.time]
        orders = [np.argsort(k, kind="stable") for k in keys]
        return [(k[order], order) for k, order in zip(keys, orders)]

    @cached_property
    def _event_slots(self) -> list[np.ndarray]:
        """Where the distinct event times fall in each risk order's sorted keys."""
        return _slots(self._risk_orders, self._event_ties[0])


def _state_column(values) -> np.ndarray:
    col = np.asarray(values).reshape(-1)
    if col.size and col.dtype.kind not in "iu":
        raise ValidationError(f"states must be integers, got dtype {col.dtype}")
    return col.astype(np.int64)


@dataclass(frozen=True)
class MultiStateFrame:
    """Long-format multi-state sample, one row per sojourn, column-wise.

    Row i says that subject ``id[i]`` stayed in ``from_state[i]`` on
    (t_start[i], t_stop[i]] and then moved to ``to_state[i]``, or was
    censored there (``to_state[i] == CENSORED_STATE``).  Rows are stored
    grouped by subject, subjects in order of first appearance, and by
    t_start within a subject; ``subject`` holds the 0-based subject codes.
    The constructor checks that times are finite with t_start >= 0 and that
    each subject's rows chain into one trajectory: each row starts in the
    state and at the time the previous row ended, and nothing follows a
    censored row.
    """

    id: np.ndarray
    from_state: np.ndarray
    to_state: np.ndarray
    t_start: np.ndarray
    t_stop: np.ndarray
    subject: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.id).reshape(-1)
        src = _state_column(self.from_state)
        dst = _state_column(self.to_state)
        start = _floats_of(self.t_start, "t_start").reshape(-1)
        stop = _floats_of(self.t_stop, "t_stop").reshape(-1)
        n = ids.size
        if not src.size == dst.size == start.size == stop.size == n:
            raise ValidationError("column lengths differ")
        timed = np.isfinite(start) & np.isfinite(stop) & (start >= 0)
        _check_rows("subject {id}: ", [
            ((src < 0) | (dst < CENSORED_STATE), "states must be >= 0"),
            (~timed, "times must be finite and >= 0, got t_start {start}, t_stop {stop}"),
            (start >= stop, "t_start {start} must be < t_stop {stop}"),
            (src == dst, "from and to states equal"),
        ], id=ids, start=start, stop=stop)

        _, first, codes = np.unique(ids, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(first.size)
        subject = rank[codes.reshape(-1)]
        order = np.lexsort((start, subject))
        ids, src, dst, start, stop, subject = (
            a[order] for a in (ids, src, dst, start, stop, subject)
        )

        # adjacent rows k, k + 1 of one subject must chain
        same = subject[1:] == subject[:-1]
        _check_rows("subject {id}: ", [
            (same & (dst[:-1] == CENSORED_STATE), "row after censoring at t={t}"),
            (same & (src[1:] != dst[:-1]),
             "state mismatch at t={t} (arrived in {arrived}, next row starts in {next})"),
            (same & (start[1:] != stop[:-1]), "time gap between t={t} and t={next_start}"),
        ], id=ids[:-1], t=stop[:-1], arrived=dst[:-1], next=src[1:], next_start=start[1:])

        _freeze(self, id=ids, from_state=src, to_state=dst, t_start=start, t_stop=stop,
                subject=subject)

    def __len__(self) -> int:
        return self.id.size


# -- JSON and CSV I/O ----------------------------------------------------------


def _json_text(obj, indent=None) -> str:
    """``json.dumps(obj, sort_keys=True, indent=indent)``, arrays as lists."""
    return json.dumps(obj, sort_keys=True, indent=indent, default=np.ndarray.tolist)


def _write_json(path, obj) -> None:
    """Write ``_json_text(obj, indent=2)`` and a newline."""
    with open(path, "w") as fh:
        fh.write(_json_text(obj, 2) + "\n")


class _JsonRecord:
    """Records serialise ``to_dict()`` as JSON with sorted keys."""

    def to_json(self, indent=None) -> str:
        return _json_text(self.to_dict(), indent)


def _json_field(obj, name: str, read=lambda value: value):
    """``read(obj[name])`` of a decoded JSON object; a ValidationError names the field."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    if name not in obj:
        raise ValidationError(f"missing field '{name}'")
    try:
        return read(obj[name])
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


# Every CSV file is read by _read_columns and written by _write_columns.  The
# writer and the reader's csv path work _ROWS rows at a time.  The writer
# formats each number with repr (for a float, its shortest round trip) and
# quotes only text cells, as csv.writer does.  A block holds each of its cells
# as a str object, so blocks are kept to a few hundred KB: larger ones raise
# peak memory.  Each curve is written once: a step curve as one (time, value)
# row per jump after its starting row, a fitted step function only as JSON.

_ROWS = 1024


def _parse_float(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"row {row}: column '{col}': cannot parse number from {text!r}")


def _parse_count(text, row, col):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValidationError(f"row {row}: column '{col}': expected an integer >= 0, got {text!r}")
    return value


def _floats(cells, row0, col) -> np.ndarray:
    try:
        return np.array(list(map(float, cells)))
    except ValueError:
        for i, text in enumerate(cells):
            _parse_float(text, row0 + i, col)
        raise


def _counts(cells, row0, col) -> np.ndarray:
    return np.array([_parse_count(text, row0 + i, col) for i, text in enumerate(cells)])


def _text(cells, row0, col) -> np.ndarray:
    return np.array(cells)


def _read_header(reader, path) -> list[str]:
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file, header row required")
    return header


def _read_columns(path, converters: dict) -> dict:
    """Read named columns; ``converters[name](cells, row0, name)`` converts a block.

    Readers only turn text into values; the records they feed check them.  A
    table whose columns are all ``_floats`` is read by numpy's C reader,
    which parses each cell with the same correctly rounded routine as
    Python's ``float``, so the values are bit-identical.  Where that reader
    fails, the table is read again by :func:`_read_csv_columns`, which names
    the row of a cell that does not parse or accepts what only ``float``
    accepts (``1_0``, full-width digits).
    """
    if set(converters.values()) == {_floats}:
        columns = _load_float_columns(path, converters)
        if columns is not None:
            return columns
    return _read_csv_columns(path, converters)


def _load_float_columns(path, converters: dict) -> dict | None:
    """The columns as numpy's C reader reads them, or None if the csv path must decide.

    The reader takes the rows after csv's header record from the same handle.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        index = {name: j for j, name in enumerate(header)}
        if not converters.keys() <= index.keys():
            return None
        try:
            # a header-only file warns and returns an empty table
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, dtype=float, delimiter=",", quotechar='"', comments=None, ndmin=2
                )
        except (ValueError, UserWarning):
            return None
    # the reader accepts rows of one width other than the header's
    if table.shape[1] != len(header):
        return None
    return {name: table[:, index[name]] for name in converters}


def _read_csv_columns(path, converters: dict) -> dict:
    """Read named columns with the csv module, _ROWS rows at a time.

    ``cells`` holds the column's cells of data rows row0, row0 + 1, ...; blank
    lines are skipped and not counted.  A ragged row raises ``ValidationError``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        index = {name: j for j, name in enumerate(header)}
        for name in converters:
            if name not in index:
                raise ValidationError(f"{path}: missing mandatory column '{name}'")
        width = len(header)
        parts = {name: [] for name in converters}
        rows = filter(None, reader)
        row0 = 0
        while block := list(islice(rows, _ROWS)):
            if set(map(len, block)) != {width}:
                i = next(i for i, row in enumerate(block) if len(row) != width)
                raise ValidationError(
                    f"row {row0 + i}: {len(block[i])} fields, but the header has {width}"
                )
            cells = list(zip(*block))
            for name, convert in converters.items():
                parts[name].append(convert(cells[index[name]], row0, name))
            row0 += len(block)
    if not row0:
        raise ValidationError(f"{path}: no data rows")
    return {name: np.concatenate(blocks) for name, blocks in parts.items()}


# csv.writer's minimal quoting, for rows of two or more cells (a row of one
# empty cell would be quoted too).
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _text_cells(cells) -> list[str]:
    """Cells as str, quoted where csv.writer quotes them."""
    texts = list(map(str, cells))
    if _NEEDS_QUOTES("".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES(t) else t for t in texts]
    return texts


def _cells(cells) -> list[str]:
    """Cells of one column: numbers as repr, the rest as quoted text."""
    if isinstance(cells, np.ndarray):
        if cells.dtype.kind in "fiub":
            return list(map(repr, cells.tolist()))
        cells = cells.tolist()
    return _text_cells(cells)


def _write_columns(path, header, columns) -> None:
    """Write equal-length columns under ``header``, _ROWS rows at a time.

    The bytes are those of ``csv.writer(fh)`` writing the header and then
    each row of cells, so every row ends in "\r\n".  Columns are arrays or
    lists; numeric arrays never need quoting.
    """
    columns = list(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_text_cells(header)) + "\r\n")
        for lo in range(0, len(columns[0]), _ROWS):
            rows = zip(*(_cells(column[lo : lo + _ROWS]) for column in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def parse_survival_csv(path) -> SurvivalFrame:
    """Read a survival frame from CSV.

    The columns are ``time``, ``status`` and an optional ``entry``; every
    other column is a covariate.  Every column is float-valued, so a file of
    numbers is read in one pass of numpy's C reader; a file that fails it is
    read again by the csv path, which names the first cell that does not
    parse.  :class:`SurvivalFrame` names the first row that breaks a rule.
    """
    with open(path, newline="") as fh:
        cols = _read_header(csv.reader(fh), path)
    cov_cols = [c for c in cols if c not in ("time", "status", "entry")]
    names = ["time", *(["entry"] if "entry" in cols else []), *cov_cols, "status"]
    columns = _read_columns(path, dict.fromkeys(names, _floats))
    time = columns["time"]
    return SurvivalFrame(
        time=time,
        status=columns["status"],
        entry=columns.get("entry", np.zeros(time.size)),
        covariates=np.column_stack([np.empty((time.size, 0)), *(columns[c] for c in cov_cols)]),
    )


def write_survival_csv(frame: SurvivalFrame, path) -> None:
    """Write a frame back to CSV; floats use shortest round-trip formatting."""
    has_entry = bool(np.any(frame.entry > 0))
    cov_cols = [f"w{j + 1}" for j in range(frame.d)]
    header = (["entry"] if has_entry else []) + ["time", "status"] + cov_cols
    columns = ([frame.entry] if has_entry else []) + [frame.time, frame.status]
    _write_columns(path, header, columns + list(frame.covariates.T))


def parse_multistate_csv(path) -> MultiStateFrame:
    """Read long-format multi-state rows (id, from, to, t_start, t_stop).

    States are nonnegative integers; ``CENSORED`` in ``to`` marks a
    censored sojourn.  The rows are validated as trajectories by
    :class:`MultiStateFrame`.
    """

    def to_states(cells, row0, col):
        cells = [cell.strip() for cell in cells]
        return np.array(
            [CENSORED_STATE if t == CENSORED else _parse_count(t, row0 + i, col)
             for i, t in enumerate(cells)]
        )

    # the columns in the order of the MultiStateFrame fields
    columns = {"id": _text, "from": _counts, "to": to_states, "t_start": _floats, "t_stop": _floats}
    return MultiStateFrame(*_read_columns(path, columns).values())


def write_multistate_csv(frame: MultiStateFrame, path) -> None:
    """Write the rows of ``frame`` in its stored order."""
    to = frame.to_state.astype(object)
    to[frame.to_state == CENSORED_STATE] = CENSORED
    columns = [frame.id, frame.from_state, to, frame.t_start, frame.t_stop]
    _write_columns(path, ["id", "from", "to", "t_start", "t_stop"], columns)


# -- reductions to survival frames -------------------------------------------


def _event_frame(time, status, entry) -> SurvivalFrame:
    return SurvivalFrame(
        time=time, status=status, entry=entry, covariates=np.empty((time.size, 0))
    )


def _first_sojourns(frame: MultiStateFrame, state: int) -> np.ndarray:
    """Rows of each subject's first sojourn in ``state``."""
    rows = np.flatnonzero(frame.from_state == state)
    return rows[np.unique(frame.subject[rows], return_index=True)[1]]


def split_transitions(frame: MultiStateFrame, transition: tuple[int, int]) -> SurvivalFrame:
    """Reduce trajectories to the survival frame of one direct transition.

    For a transition (l, m) every subject observed entering state l
    contributes one record: entry = entry time into l (0 for the initial
    state), time = exit or censoring time, status = 1 iff the observed exit
    went directly to m.  A subject's first sojourn in l is used.
    """
    src, dst = transition
    if src == dst or src < 0 or dst < 0:
        raise ValidationError(f"transition ({src}, {dst}) not present in the state diagram")
    rows = _first_sojourns(frame, src)
    if not rows.size:
        raise ValidationError(f"transition ({src}, {dst}): no subjects at risk")
    return _event_frame(frame.t_stop[rows], frame.to_state[rows] == dst, frame.t_start[rows])


def sojourn_frame(frame: MultiStateFrame, state: int) -> SurvivalFrame:
    """Time in ``state`` until leaving it by any transition, or censoring.

    The rows of :func:`split_transitions` from ``state``.
    """
    rows = _first_sojourns(frame, state)
    left = frame.to_state[rows] != CENSORED_STATE
    return _event_frame(frame.t_stop[rows], left, frame.t_start[rows])


def absorption_frame(frame: MultiStateFrame, state: int) -> SurvivalFrame:
    """Time from 0 to entering the absorbing ``state``, or to censoring.

    One record per subject, taken from its last row: status 1 iff that row
    ends in ``state``.
    """
    last = np.flatnonzero(np.diff(frame.subject, append=frame.subject.size))
    time = frame.t_stop[last]
    return _event_frame(time, frame.to_state[last] == state, np.zeros(time.size))


# -- risk sets -----------------------------------------------------------------


def _slots(orders, times) -> list:
    """Index of the first key >= t, at each t of ``times``, in each order's sorted keys."""
    return [np.searchsorted(keys, times, side="left") for keys, _ in orders]


def _suffix_sums(order: np.ndarray, weights: np.ndarray, slots) -> np.ndarray:
    """Sum of weights[order[j]] over j >= slot at each of ``slots``."""
    # one array, sorted and then summed in place, above a row of zeros for a
    # slot past every key
    suffix = np.zeros((order.size + 1,) + weights.shape[1:])
    np.take(weights, order, axis=0, out=suffix[:-1], mode="clip")
    np.cumsum(suffix[-2::-1], axis=0, out=suffix[-2::-1])
    return suffix[slots]


def risk_set_sums(frame: SurvivalFrame, weights, times=None) -> np.ndarray:
    """Sums of ``weights`` over the risk sets {i: entry_i < t <= time_i}.

    This is the weighted at-risk process Y(t) = sum_i w_i 1{entry_i < t <=
    time_i} at each t of ``times``, or at the frame's distinct event times
    when ``times`` is None.  Weights may carry trailing dimensions; two
    suffix-sum passes, over the frame's stable sort orders (built once per
    frame), make left truncation cost the same as none.  Where the event
    times fall in those orders is looked up once per frame too.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[:1] != (frame.n,):
        raise ValidationError(f"weights of shape {weights.shape} for {frame.n} records")
    orders = frame._risk_orders
    slots = frame._event_slots if times is None else _slots(orders, times)
    at_time, *at_entry = (_suffix_sums(order, weights, at) for (_, order), at in zip(orders, slots))
    return at_time - at_entry[0] if at_entry else at_time
