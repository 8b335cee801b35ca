"""Exact 1-D fused lasso: fixed-lambda solver, solution path, interpolation.

The solver minimizes

    (1/m) * sum_j (y_j - a_j)^2  +  lambda * sum_{j=2}^m |a_j - a_{j-1}|

exactly.  In one dimension fused sets only grow as lambda grows (Friedman,
Hastie, Hoefling & Tibshirani 2007), so read from large lambda downward the
solution path is a sequence of block splits (the dual path of Tibshirani &
Taylor 2011).  :func:`flsa_path` follows it top down and can stop after the
first few change points; :func:`flsa_solve` takes every split above a fixed
lambda in rounds, each splitting all blocks still above it at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .data import _freeze
from .errors import ValidationError
from .stepfun import StepFunction, Window

__all__ = [
    "FusedLassoFit",
    "PathBreakpoint",
    "flsa_solve",
    "flsa_path",
    "interpolate",
    "kkt_residual",
]


@dataclass(frozen=True)
class FusedLassoFit:
    """Solution of the fused-lasso problem at a fixed penalty level.

    Maximal runs of exactly equal values of ``alpha`` are the fused blocks;
    ``changepoints`` are the 0-based indices j such that
    ``alpha[j-1] != alpha[j]`` (i.e. the first index of each new block).
    """

    lam: float
    alpha: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _freeze(self, alpha=self.alpha, y=self.y)

    @property
    def m(self) -> int:
        return self.alpha.size

    @property
    def changepoints(self) -> np.ndarray:
        return _run_starts(self.alpha)


@dataclass(frozen=True)
class PathBreakpoint:
    """Change-point count valid on the lambda interval starting here."""

    lam: float
    changepoint_count: int


def _run_starts(values: np.ndarray) -> np.ndarray:
    """First index of every maximal run of exactly equal values but the first."""
    return np.flatnonzero(values[1:] != values[:-1]) + 1


def _split_lambdas(w, v, rel, off, lens, sl, sr, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each inner boundary of a batch of fused blocks reaches its bound as lambda falls.

    The blocks are consecutive segments of ``lens`` runs from ``off`` on, of
    values ``v`` and lengths ``w``; ``rel`` counts the points from a run's
    block start to its end, and ``sl``, ``sr`` are the blocks' boundary
    subgradients (+-1 at a change point, 0 at the ends of y).  The boundary
    after run i has subgradient a_i + 2 D_i / (m*lam), with
    D_i = sum_{k<=i} w_k (mean - v_k) and a_i = sl + rel_i (sr - sl) / |B|, and
    reaches sign(D_i) at lambda 2|D_i| / (m (1 - a_i sign D_i)).  Returns these
    lambdas (inf past the bound already, 0 where D_i is 0 and at block ends)
    and D, one cumulative sum over the batch that returns to about 0 at every
    block end.
    """
    last = off + lens - 1
    size = rel[last]
    mean = np.add.reduceat(w * v, off) / size  # pairwise sums: good to an ulp or so
    d = (w * (mean.repeat(lens) - v)).cumsum()
    d -= np.concatenate(([0.0], d[last[:-1]])).repeat(lens)
    a = np.repeat(sl, lens) + rel * np.repeat((sr - sl) / size, lens)
    with np.errstate(divide="ignore"):
        t = np.abs(d) / ((0.5 * m) * (1.0 - np.sign(d) * a))
    t[last] = 0.0
    return t, d


def flsa_solve(y, lam: float) -> FusedLassoFit:
    """Exact global minimizer of the fused-lasso objective.

    Parameters
    ----------
    y : array-like, length m
        Observations (the increment responses).
    lam : float
        Nonnegative total-variation penalty level, on the scale of the
        (1/m)-normalized quadratic loss.

    The fit is the top-down split path of :func:`flsa_path` stopped at
    ``lam``.  A block's splits depend only on its two boundary subgradients,
    so their order does not matter: each round splits, at its first largest
    split lambda of :func:`_split_lambdas`, every block whose largest one
    exceeds ``lam`` by more than 1e-12 (relative); the path's cap at the
    parent's split lambda never binds, as that exceeds ``lam`` too.  A block
    that does not split is final, at level mean + (m*lam / (2|B|)) *
    (s_r - s_l).  The path evaluates the same kernel, so a solve at a path
    breakpoint, such as the pilot penalty, sees the path's split lambdas up
    to the rounding of D's partial sums.

    A jump of 0 can come out of rounding as a few ulps: a tie of splits can
    leave two neighbours flat (level slope 0, the only way their slopes
    match) at equal means, and a split lambda can lie within rounding of
    ``lam``.  So a boundary whose jump is within 8 ulps of its blocks' mean
    absolute values plus tilts, or against its own sign, is fused.

    A round costs O(m) and some 60 numpy calls.  There are as many rounds as
    the split tree at ``lam`` is deep: 4-31 on noisy increments at the tuned
    penalties, but about 1000 for the ~1900 change points of a noise-free
    ramp j**2 at m = 2000, where the O(m * rounds) cost shows.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValidationError("y must be nonempty")
    if np.any(~np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    if not np.isfinite(lam) or lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    starts = _run_starts(y)
    if lam == 0 or starts.size == 0:
        return FusedLassoFit(lam=float(lam), alpha=y.copy(), y=y.copy())

    m = y.size
    v = y[np.r_[0, starts]]
    ends = np.r_[0, starts, m].astype(float)  # run boundary positions, exact integers
    w = np.diff(ends)
    b, e = np.array([0]), np.array([v.size])
    sl, sr = np.zeros(1), np.zeros(1)
    cut, cut_sign = [np.array([0, v.size])], [np.zeros(2)]  # boundaries taken, and their subgradients
    bar = lam * (1.0 + 1e-12)
    while True:
        lens = e - b
        off = lens.cumsum() - lens
        r = np.arange(off[-1] + lens[-1]) + (b - off).repeat(lens)  # the runs of the active blocks
        rel = ends[r + 1] - ends[b].repeat(lens)
        t, d = _split_lambdas(w[r], v[r], rel, off, lens, sl, sr, m)
        top = np.maximum.reduceat(t, off)
        go = top > bar
        if not go.any():
            break
        hits = np.flatnonzero(t == top.repeat(lens))
        j = hits[np.searchsorted(hits, off[go])]  # the first largest lambda of each block
        new, s = r[j] + 1, np.sign(d[j])
        cut.append(new)
        cut_sign.append(s)
        # a child of one run evaluates to no split in the next round
        b, e = np.concatenate((b[go], new)), np.concatenate((new, e[go]))
        sl, sr = np.concatenate((sl[go], s)), np.concatenate((s, sr[go]))

    def levels(cut, sign):
        size = np.diff(ends[cut])
        tilt = (sign[1:] - sign[:-1]) * lam * (0.5 * m / size)
        return size, tilt, np.add.reduceat(w * v, cut[:-1]) / size + tilt

    cut = np.concatenate(cut)
    order = np.argsort(cut)
    cut, sign = cut[order], np.concatenate(cut_sign)[order]
    size, tilt, level = levels(cut, sign)
    # a level is good to a few ulps of its block's mean absolute value plus tilt
    scale = np.add.reduceat(w * np.abs(v), cut[:-1]) / size + np.abs(tilt)
    jump = np.diff(level)
    zero = np.flatnonzero(
        (np.abs(jump) <= 8 * np.finfo(float).eps * (scale[:-1] + scale[1:]))
        | (np.sign(jump) != sign[1:-1])
    )
    if zero.size:
        cut, sign = np.delete(cut, zero + 1), np.delete(sign, zero + 1)
        size, tilt, level = levels(cut, sign)
    return FusedLassoFit(lam=float(lam), alpha=level.repeat(size.astype(np.intp)), y=y.copy())


def kkt_residual(fit: FusedLassoFit) -> float:
    """Worst violation of the optimality conditions, in gradient units.

    Summing the stationarity equations gives the implied boundary
    subgradients s_j = (2/(m*lam)) * sum_{i<j} (alpha_i - y_i); the solution
    is optimal iff every s_j lies in [-1, 1], s_j equals the jump sign at
    every change point, and the residuals sum to zero.
    """
    alpha, y, lam, m = fit.alpha, fit.y, fit.lam, fit.m
    resid_sum = np.cumsum(alpha - y)
    total = abs(resid_sum[-1]) * 2.0 / m
    if lam == 0:
        return float(np.max(np.abs(alpha - y)) * 2.0 / m)
    worst = total
    if m > 1:
        s = (2.0 / (m * lam)) * resid_sum[:-1]  # s_{j+1}, 0-based j = 0..m-2
        worst = max(worst, (float(np.max(np.abs(s))) - 1.0) * lam)
        jumps = np.diff(alpha)
        at_jump = jumps != 0
        if np.any(at_jump):
            worst = max(
                worst,
                float(np.max(np.abs(s[at_jump] - np.sign(jumps[at_jump])))) * lam,
            )
    return float(max(worst, 0.0))


def _block_split(v, w, ends, sl: float, sr: float, m: int) -> tuple[float, int, float]:
    """Where a fused block of runs first splits as lambda falls.

    The block holds runs of values ``v`` and lengths ``w``, ending at
    positions ``ends`` of y from the block's start on; ``sl`` and ``sr`` are
    its boundary subgradients.  Returns the largest lambda of
    :func:`_split_lambdas` (0 when every D_j is 0), its boundary j >= 1 and
    the new subgradient there.
    """
    t, d = _split_lambdas(w, v, ends[1:] - ends[0], np.zeros(1, np.intp), w.size, sl, sr, m)
    j = int(t.argmax())
    return float(t[j]), j + 1, float(np.sign(d[j]) or np.sign(v[j + 1] - v[j]))


def flsa_path(y, k_max: int | None = None) -> list[PathBreakpoint]:
    """The lambdas at which the change-point count of the exact fit changes.

    Returns breakpoints with strictly increasing lambda; the count attached
    to a breakpoint is the change-point count of the exact solution on
    [this breakpoint, next breakpoint), and the last count is 0.  With
    ``k_max`` given the list is cut below the first breakpoint whose count
    exceeds ``k_max``; otherwise, or when no count exceeds it, it starts at
    lambda = 0 with every run of y a block.

    The path is read top down, from one block at large lambda: each block
    splits at the lambda :func:`_block_split` gives, capped at its parent's
    split lambda.  A change point is a nonzero jump, not a split: a split's
    jump starts at 0 and grows at the difference of its two blocks' level
    slopes, so it counts from the first lambda interval on which those
    slopes differ, and a tied split whose blocks keep equal slopes does not
    count.  Splits within 1e-12 (relative) of the previous breakpoint are one
    tie.  Each split costs a few numpy passes over its block, so the cost
    grows with the number of change points asked for: ``k_max`` = 20 takes
    about 20 splits at any m, while the whole path is quadratic in the
    number of runs at worst.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValidationError("y must be nonempty")
    if np.any(~np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    m = y.size

    starts = _run_starts(y)
    nb = starts.size + 1
    if nb == 1:
        return [PathBreakpoint(0.0, 0)]

    # blocks are runs [b, e) of y; run boundaries are 0..nb, at positions ends
    v = y[np.r_[0, starts]]
    ends = np.r_[0, starts, m].astype(float)
    w = np.diff(ends)
    sign = np.zeros(nb + 1)  # subgradient at each boundary
    first = np.zeros(nb + 1, dtype=np.intp)  # b of the block ending at e
    slope = np.zeros(nb)  # d level / d lambda of the block starting at b
    heap: list = []

    def add(b, e, cap):
        first[e] = b
        slope[b] = m * (sign[e] - sign[b]) / (2.0 * (ends[e] - ends[b]))
        if e - b > 1:
            lam, j, s = _block_split(v[b:e], w[b:e], ends[b : e + 1], sign[b], sign[e], m)
            # a block of two or more runs splits even when every D_j underflows
            heapq.heappush(heap, (-(min(lam, cap) or 5e-324), b, e, b + j, s))

    add(0, nb, np.inf)
    out: list[PathBreakpoint] = []  # descending lambda
    count = 0
    zero_jumps: list[int] = []  # split boundaries whose jump is still 0
    while heap:
        neg_lam, b, e, j, s = heapq.heappop(heap)
        lam = -neg_lam
        if not out or lam < out[-1].lam * (1.0 - 1e-12):
            # the blocks fixed on (lam, previous breakpoint) give the count there
            still = [q for q in zero_jumps if slope[q] == slope[first[q]]]
            count += len(zero_jumps) - len(still)
            zero_jumps = still
            if out and count == out[-1].changepoint_count:
                out[-1] = PathBreakpoint(lam, count)
            elif k_max is not None and out and out[-1].changepoint_count > k_max:
                return out[::-1]
            else:
                out.append(PathBreakpoint(lam, count))
        sign[j] = s
        add(b, j, lam)
        add(j, e, lam)
        zero_jumps.append(j)
    if k_max is None or out[-1].changepoint_count <= k_max:
        out.append(PathBreakpoint(0.0, nb - 1))
    return out[::-1]


def interpolate(fit: FusedLassoFit, window: Window) -> StepFunction:
    """Constant interpolation of the solution vector onto the window.

    The j-th coefficient (1-based) is the level on the grid cell
    (t_{j-1}, t_j] with t_j = tau_min + j*(tau_max - tau_min)/m, the cell
    whose cumulative-hazard increment it estimates (see
    :func:`~hazstep.estimators.build_increments`).  Adjacent equal levels are
    merged, so a block starting at the 1-based coefficient j starts at
    t_{j-1}: the breaks are exactly the change points mapped to times
    tau_min + i*length/m for the 0-based change-point index i.
    """
    starts = fit.changepoints
    breaks = window.tau_min + starts * (window.length / fit.m)
    return StepFunction(window, breaks, fit.alpha[np.r_[0, starts]])
