"""Event-history data model: survival frames, multi-state frames, risk sets.

Survival data are stored column-wise in immutable frames.  Multi-state
trajectories are kept column-wise in long format (one row per sojourn) and
reduced to per-transition survival frames, treating the entry time into the
source state as a left-truncation time.  Every risk set of the package is
computed by :func:`risk_set_sums`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

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
    "absorption_frame",
    "risk_set_sums",
]

# token used for the censoring pseudo-state in multi-state CSV files
CENSORED = "cens"
# code of the censoring pseudo-state in MultiStateFrame.to_state
CENSORED_STATE = -1


@dataclass(frozen=True)
class SurvivalFrame:
    """Column-wise survival sample (time, status, entry, covariates)."""

    time: np.ndarray
    status: np.ndarray
    entry: np.ndarray
    covariates: np.ndarray  # shape (n, d), d may be 0

    def __post_init__(self):
        # private copies: a write through the caller's arrays must not reach
        # a validated frame or its cached sort orders
        time = np.array(self.time, dtype=float).reshape(-1)
        status = np.array(self.status, dtype=np.int8).reshape(-1)
        entry = np.array(self.entry, dtype=float).reshape(-1)
        cov = np.array(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(len(time), -1) if cov.size else cov.reshape(len(time), 0)
        n = time.size
        if status.size != n or entry.size != n or cov.shape[0] != n:
            raise ValidationError("column lengths differ")
        finite = np.isfinite(time) & np.isfinite(entry) & np.all(np.isfinite(cov), axis=1)
        if not np.all(finite):
            bad = int(np.argmin(finite))
            raise ValidationError(f"non-finite time, entry or covariate in record {bad}")
        if np.any(time < 0):
            raise ValidationError("times must be >= 0")
        if np.any(entry < 0):
            raise ValidationError("entry times must be >= 0")
        if np.any((status != 0) & (status != 1)):
            raise ValidationError("status must be 0 or 1")
        if np.any(entry >= time):
            bad = int(np.argmax(entry >= time))
            raise ValidationError(f"entry >= time for record {bad}")
        for a in (time, status, entry, cov):
            a.setflags(write=False)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "covariates", cov)

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
    The constructor checks that each subject's rows chain into one
    trajectory: each row starts in the state and at the time the previous
    row ended, and nothing follows a censored row.
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
        start = np.asarray(self.t_start, dtype=float).reshape(-1)
        stop = np.asarray(self.t_stop, dtype=float).reshape(-1)
        n = ids.size
        if not src.size == dst.size == start.size == stop.size == n:
            raise ValidationError("column lengths differ")
        if np.any(src < 0) or np.any(dst < CENSORED_STATE):
            raise ValidationError("states must be >= 0")
        bad = np.flatnonzero(~(start < stop) | (src == dst))
        if bad.size:
            i = bad[0]
            if not start[i] < stop[i]:
                raise ValidationError(
                    f"subject {ids[i]}: t_start {start[i]} must be < t_stop {stop[i]}"
                )
            raise ValidationError(f"subject {ids[i]}: from and to states equal")

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
        after_cens = dst[:-1] == CENSORED_STATE
        mismatch = src[1:] != dst[:-1]
        gap = start[1:] != stop[:-1]
        broken = np.flatnonzero(same & (after_cens | mismatch | gap))
        if broken.size:
            k = broken[0]
            sid, t = ids[k], stop[k]
            if after_cens[k]:
                raise ValidationError(f"subject {sid}: row after censoring at t={t}")
            if mismatch[k]:
                raise ValidationError(
                    f"subject {sid}: state mismatch at t={t} "
                    f"(arrived in {dst[k]}, next row starts in {src[k + 1]})"
                )
            raise ValidationError(f"subject {sid}: time gap between t={t} and t={start[k + 1]}")

        for name, a in zip(
            ("id", "from_state", "to_state", "t_start", "t_stop", "subject"),
            (ids, src, dst, start, stop, subject),
        ):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.id.size


# -- CSV I/O -----------------------------------------------------------------
# Every CSV file is read by _read_columns, _ROWS rows at a time, and written by
# _write_columns, which formats each float once with repr (shortest round trip).

_ROWS = 8192


def _parse_float(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"column '{col}': cannot parse number from {text!r}", row=row)


def _parse_count(text, row, col):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(f"column '{col}': expected an integer >= 0, got {text!r}", row=row)
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
        raise SchemaError(f"{path}: empty file, header row required")
    return header


def _read_columns(path, converters: dict) -> dict:
    """Read named columns; ``converters[name](cells, row0, name)`` converts a block.

    ``cells`` holds the column's cells of data rows row0, row0 + 1, ...; blank
    lines are skipped and not counted.  Ragged rows raise ``ParseError``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        index = {name: j for j, name in enumerate(header)}
        for name in converters:
            if name not in index:
                raise SchemaError(f"{path}: missing mandatory column '{name}'")
        width = len(header)
        parts = {name: [] for name in converters}
        rows = filter(None, reader)
        row0 = 0
        while block := list(islice(rows, _ROWS)):
            if set(map(len, block)) != {width}:
                i = next(i for i, row in enumerate(block) if len(row) != width)
                raise ParseError(f"{len(block[i])} fields, but the header has {width}", row=row0 + i)
            cells = list(zip(*block))
            for name, convert in converters.items():
                parts[name].append(convert(cells[index[name]], row0, name))
            row0 += len(block)
    if not row0:
        raise ValidationError(f"{path}: no data rows")
    return {name: np.concatenate(blocks) for name, blocks in parts.items()}


def _cells(column):
    """One column's cells, made _ROWS at a time: floats as repr strings."""
    if not isinstance(column, np.ndarray):
        return column
    cells = chain.from_iterable(column[i : i + _ROWS].tolist() for i in range(0, column.size, _ROWS))
    return map(repr, cells) if column.dtype.kind == "f" else cells


def _write_columns(path, header, columns, lineterminator="\r\n") -> None:
    """Write equal-length columns under ``header`` with one ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns)))


def _status(cells, row0, col) -> np.ndarray:
    status = _floats(cells, row0, col)
    bad = np.flatnonzero((status != 0.0) & (status != 1.0))
    if bad.size:
        raise ParseError(f"status must be 0 or 1, got {cells[bad[0]]!r}", row=row0 + bad[0])
    return status


def parse_survival_csv(path, schema: dict | None = None) -> SurvivalFrame:
    """Read a survival frame from CSV.

    The default schema takes columns named ``entry`` (optional), ``time`` and
    ``status``; every remaining column is a covariate.  ``schema`` may remap
    these: keys ``time``, ``status``, ``entry`` (column names) and
    ``covariates`` (list of column names).  Every named column must exist.
    """
    with open(path, newline="") as fh:
        cols = _read_header(csv.reader(fh), path)
    schema = dict(schema or {})
    time_col = schema.get("time", "time")
    status_col = schema.get("status", "status")
    entry_col = schema.get("entry", "entry" if "entry" in cols else None)
    cov_cols = schema.get("covariates")
    if cov_cols is None:
        cov_cols = [c for c in cols if c not in (time_col, status_col, entry_col)]
    floats = dict.fromkeys([time_col, *([entry_col] if entry_col else []), *cov_cols], _floats)
    columns = _read_columns(path, {**floats, status_col: _status})
    time = columns[time_col]
    entry = columns[entry_col] if entry_col else np.zeros(time.size)
    late = entry >= time
    if np.any(late):
        i = int(np.argmax(late))
        raise ValidationError(f"row {i}: entry {float(entry[i])} must be < time {float(time[i])}")
    return SurvivalFrame(
        time=time,
        status=columns[status_col],
        entry=entry,
        covariates=np.column_stack([np.empty((time.size, 0)), *(columns[c] for c in cov_cols)]),
    )


def write_survival_csv(frame: SurvivalFrame, path) -> None:
    """Write a frame back to CSV; floats use shortest round-trip formatting."""
    has_entry = bool(np.any(frame.entry > 0))
    cov_cols = [f"w{j + 1}" for j in range(frame.d)]
    header = (["entry"] if has_entry else []) + ["time", "status"] + cov_cols
    columns = ([frame.entry] if has_entry else []) + [frame.time, frame.status]
    _write_columns(path, header, columns + list(frame.covariates.T))


def parse_multistate_csv(path, censor_token: str = CENSORED) -> MultiStateFrame:
    """Read long-format multi-state rows (id, from, to, t_start, t_stop).

    States are nonnegative integers; ``censor_token`` in ``to`` marks a
    censored sojourn.  The rows are validated as trajectories by
    :class:`MultiStateFrame`.
    """

    def to_states(cells, row0, col):
        cells = [cell.strip() for cell in cells]
        return np.array(
            [CENSORED_STATE if t == censor_token else _parse_count(t, row0 + i, col)
             for i, t in enumerate(cells)]
        )

    # the columns in the order of the MultiStateFrame fields
    columns = {"id": _text, "from": _counts, "to": to_states, "t_start": _floats, "t_stop": _floats}
    return MultiStateFrame(*_read_columns(path, columns).values())


def write_multistate_csv(frame: MultiStateFrame, path, censor_token: str = CENSORED) -> None:
    """Write the rows of ``frame`` in its stored order."""
    to = frame.to_state.astype(object)
    to[frame.to_state == CENSORED_STATE] = censor_token
    columns = [frame.id, frame.from_state, to, frame.t_start, frame.t_stop]
    _write_columns(path, ["id", "from", "to", "t_start", "t_stop"], columns)


# -- reductions to survival frames -------------------------------------------


def _event_frame(time, status, entry) -> SurvivalFrame:
    return SurvivalFrame(
        time=time, status=status, entry=entry, covariates=np.empty((time.size, 0))
    )


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
    rows = np.flatnonzero(frame.from_state == src)
    rows = rows[np.unique(frame.subject[rows], return_index=True)[1]]
    if not rows.size:
        raise ValidationError(f"transition ({src}, {dst}): no subjects at risk")
    return _event_frame(frame.t_stop[rows], frame.to_state[rows] == dst, frame.t_start[rows])


def absorption_frame(frame: MultiStateFrame, state: int) -> SurvivalFrame:
    """Time from 0 to entering the absorbing ``state``, or to censoring.

    One record per subject, taken from its last row: status 1 iff that row
    ends in ``state``.
    """
    last = np.flatnonzero(np.diff(frame.subject, append=frame.subject.size))
    time = frame.t_stop[last]
    return _event_frame(time, frame.to_state[last] == state, np.zeros(time.size))


# -- risk sets -----------------------------------------------------------------


def _suffix_sums(sorted_keys: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """Sum of values over keys >= t at each t (keys ascending)."""
    suffix = np.concatenate((np.cumsum(values[::-1], axis=0)[::-1], np.zeros((1,) + values.shape[1:])))
    return suffix[np.searchsorted(sorted_keys, t, side="left")]


def risk_set_sums(frame: SurvivalFrame, weights, times) -> np.ndarray:
    """Sums of ``weights`` over the risk sets {i: entry_i < t <= time_i}.

    This is the weighted at-risk process Y(t) = sum_i w_i 1{entry_i < t <=
    time_i} at each t of ``times``.  Weights may carry trailing dimensions;
    two suffix-sum passes, over the frame's stable sort orders (built once
    per frame), make left truncation cost the same as none.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[:1] != (frame.n,):
        raise ValidationError(f"weights of shape {weights.shape} for {frame.n} records")
    (by_time, order_t), *truncated = frame._risk_orders
    total = _suffix_sums(by_time, weights[order_t], times)
    for by_entry, order_e in truncated:
        total = total - _suffix_sums(by_entry, weights[order_e], times)
    return total
