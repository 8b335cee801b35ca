"""Exact 1-D fused lasso: fixed-lambda solver, solution path, interpolation.

The solver minimizes

    (1/m) * sum_j (y_j - a_j)^2  +  lambda * sum_{j=2}^m |a_j - a_{j-1}|

exactly.  In one dimension fused sets only grow as lambda grows (Friedman,
Hastie, Hoefling & Tibshirani 2007), so read from large lambda downward the
solution path is a sequence of block splits (the dual path of Tibshirani &
Taylor 2011).  :func:`flsa_solve` and :func:`flsa_path` both take them in the
level-synchronous rounds of the one :class:`_SplitRounds` per y of :func:`_split_tree`.
"""

from __future__ import annotations

import threading
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


class _SplitRounds:
    """The fused blocks of y's runs, split top down in level-synchronous rounds.

    A block, the runs [b, e) of y, is evaluated once, in the batch of the round
    that made it: it splits at the first largest lambda of
    :func:`_split_lambdas`, capped at its parent's and at least 5e-324 (D can
    underflow), with the sign of D there (0 only at that floor, below which
    no count is read).  ``pending`` holds a column (lam, b, e, j, sign) for
    each block of two or more runs not split yet, ``taken`` a column (lam, b,
    e, j) for each split, in the order taken, and ``sign`` the subgradient at
    each boundary.  A round costs O(size of its new blocks).  Its large
    arrays are ``held`` until the next round's are made, which reuse their
    pages instead of faulting in pages the allocator handed back (twice the
    time at m = 1e5).
    """

    def __init__(self, y: np.ndarray):
        starts = _run_starts(y)
        self.m = y.size
        self.v = y[np.concatenate(([0], starts))]
        self.ends = np.concatenate(([0], starts, [self.m])).astype(float)  # exact integers
        self.w = np.diff(self.ends)
        self.sign = np.zeros(self.v.size + 1)
        self.taken = np.zeros((4, 0))  # b, e, j exact integers
        self.pending = self._evaluate(np.array([0]), np.array([self.v.size]), np.array([np.inf]))

    def run(self, pick) -> None:
        """Split the pending blocks ``pick(lam)`` selects, round by round, until it selects none."""
        while (go := pick(self.pending[0])).any():
            split = self.pending[:, go]
            lam, (b, e, j) = split[0], split[1:4].astype(np.intp)
            self.sign[j] = split[4]
            # the left children of the round's splits first, then the right ones
            b, e = np.concatenate((b, j)), np.concatenate((j, e))
            new = self._evaluate(b, e, np.concatenate((lam, lam)))
            # taken once their children are pending, so an interrupted round leaves the tree whole
            self.pending = np.concatenate((self.pending[:, ~go], new), axis=1)
            self.taken = np.concatenate((self.taken, split[:4]), axis=1)

    def _evaluate(self, b, e, cap) -> np.ndarray:
        lens = e - b
        off = lens.cumsum() - lens
        r = np.arange(off[-1] + lens[-1]) + (b - off).repeat(lens)  # the runs of the blocks
        rel = self.ends[r + 1] - self.ends[b].repeat(lens)
        sl, sr = self.sign[b], self.sign[e]
        t, d = _split_lambdas(self.w[r], self.v[r], rel, off, lens, sl, sr, self.m)
        top = np.maximum.reduceat(t, off)
        hits = np.flatnonzero(t == top.repeat(lens))
        at = hits[np.searchsorted(hits, off)]  # the first largest lambda of each block
        lam = np.maximum(np.minimum(top, cap), 5e-324)
        self.held = (r, rel, t, d)
        return np.array([lam, b, e, r[at] + 1, np.sign(d[at])])[:, lens > 1]

    def breakpoints(self, k_max: int | None) -> tuple[list[PathBreakpoint], float]:
        """The path of the splits taken, in descending lambda, and the lambda of
        the split at which a count over ``k_max`` ends it (0 if none does)."""
        lam, (b, e, j) = self.taken[0], self.taken[1:].astype(np.intp)
        # d level / d lambda of the two blocks each split leaves
        left = self.m * (self.sign[j] - self.sign[b]) / (2.0 * (self.ends[j] - self.ends[b]))
        right = self.m * (self.sign[e] - self.sign[j]) / (2.0 * (self.ends[e] - self.ends[j]))
        order = np.lexsort((b, -lam))  # stable: a parent comes before its tied left child
        lo, hi = {}, {}  # level slopes of the blocks ending and starting at each boundary
        out: list[PathBreakpoint] = []
        count = 0
        zero_jumps: list[int] = []  # split boundaries whose jump is still 0
        splits = (x[order].tolist() for x in (lam, b, e, j, left, right))
        for lam_i, b_i, e_i, j_i, left_i, right_i in zip(*splits):
            if not out or lam_i < out[-1].lam * (1.0 - 1e-12):
                # the blocks fixed on (lam_i, previous breakpoint) give the count there
                still = [q for q in zero_jumps if lo[q] == hi[q]]
                count += len(zero_jumps) - len(still)
                zero_jumps = still
                if out and count == out[-1].changepoint_count:
                    out.pop()  # the interval of the previous breakpoint reaches down to lam_i
                elif k_max is not None and out and out[-1].changepoint_count > k_max:
                    return out, lam_i
                out.append(PathBreakpoint(lam_i, count))
            hi[b_i] = lo[j_i] = left_i
            hi[j_i] = lo[e_i] = right_i
            zero_jumps.append(j_i)
        if k_max is None or not out or out[-1].changepoint_count <= k_max:
            out.append(PathBreakpoint(0.0, self.v.size - 1))  # every run a block
        return out, 0.0


_last = threading.local()  # this thread's last split y, as bytes, and its tree


def _split_tree(y) -> tuple[np.ndarray, _SplitRounds]:
    """``y`` as a nonempty, finite 1-D float array, and its split tree with every split
    taken so far: each thread keeps the tree of its last y while y stays byte-equal."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValidationError("y must be nonempty")
    if np.any(~np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    key = y.tobytes()
    if getattr(_last, "key", None) != key:
        _last.key, _last.tree = key, _SplitRounds(y)
    return y, _last.tree


def flsa_solve(y, lam: float) -> FusedLassoFit:
    """Exact global minimizer of the fused-lasso objective.

    Parameters
    ----------
    y : array-like, length m
        Observations (the increment responses).
    lam : float
        Nonnegative total-variation penalty level, on the scale of the
        (1/m)-normalized quadratic loss.

    The blocks are those the splits of y's tree (:func:`_split_tree`) whose
    lambda exceeds ``lam`` by more than 1e-12 (relative) leave, at level
    mean + (m*lam / (2|B|)) * (s_r - s_l).  Rounds resume only for pending
    splits above that: none at or above the stop of a path of y, on a new y
    as many as the tree at ``lam`` is deep: 4-31 on noisy increments at the
    tuned penalties, about 1000 for a noise-free ramp j**2 at m = 2000.

    A jump of 0 can come out of rounding as a few ulps: a tie of splits can
    leave two neighbours flat (level slope 0, the only way their slopes
    match) at equal means, and a split lambda can lie within rounding of
    ``lam``.  So a boundary whose jump is within 8 ulps of its blocks' mean
    absolute values plus tilts, or against its own sign, is fused.
    """
    y, tree = _split_tree(y)
    if not np.isfinite(lam) or lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")
    if lam == 0 or tree.v.size == 1:
        return FusedLassoFit(lam=float(lam), alpha=y.copy(), y=y.copy())

    above = lam * (1.0 + 1e-12)
    tree.run(lambda pending: pending > above)
    w, v = tree.w, tree.v

    def levels(cut):
        sign, size = tree.sign[cut], np.diff(tree.ends[cut])
        tilt = (sign[1:] - sign[:-1]) * lam * (0.5 * tree.m / size)
        return sign, size, tilt, np.add.reduceat(w * v, cut[:-1]) / size + tilt

    cut = np.sort(np.r_[0, tree.taken[3, tree.taken[0] > above], v.size]).astype(np.intp)
    sign, size, tilt, level = levels(cut)
    # a level is good to a few ulps of its block's mean absolute value plus tilt
    scale = np.add.reduceat(w * np.abs(v), cut[:-1]) / size + np.abs(tilt)
    jump = np.diff(level)
    zero = np.flatnonzero(
        (np.abs(jump) <= 8 * np.finfo(float).eps * (scale[:-1] + scale[1:]))
        | (np.sign(jump) != sign[1:-1])
    )
    if zero.size:
        sign, size, tilt, level = levels(np.delete(cut, zero + 1))
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


def flsa_path(y, k_max: int | None = None) -> list[PathBreakpoint]:
    """The lambdas at which the change-point count of the exact fit changes.

    Returns breakpoints with strictly increasing lambda; the count attached
    to a breakpoint is the change-point count of the exact solution on
    [this breakpoint, next breakpoint), and the last count is 0.  With
    ``k_max`` given the list is cut below the first breakpoint whose count
    exceeds ``k_max``; otherwise, or when no count exceeds it, it starts at
    lambda = 0 with every run of y a block.

    The splits of :class:`_SplitRounds` are read in descending lambda, then b.
    A change point is a nonzero jump, not a split: a split's jump grows from
    0 at the difference of its two blocks' level slopes, so it counts from
    the first lambda interval on which they differ.  Splits within 1e-12
    (relative) of the previous breakpoint are one tie.  Rounds split the
    pending blocks at or above the rank-th largest split lambda known, rank =
    k_max + 2, as no block below, nor its children, is among the first rank
    splits; the count stands if no pending split lies above the one that
    ends it, else the rank goes up to that of the largest pending split.  The
    tree is kept for the solves of y; splits they took sort after the stop.
    """
    tree = _split_tree(y)[1]
    rank = np.inf if k_max is None else k_max + 2

    def pick(pending):
        known = np.concatenate((tree.taken[0], pending))
        return pending >= (np.partition(known, -rank)[-rank] if known.size >= rank else 0.0)

    while True:
        tree.run(pick)
        out, stop = tree.breakpoints(k_max)
        pending = tree.pending[0]
        if not (pending > stop).any():
            return out[::-1]
        rank = np.count_nonzero(np.concatenate((tree.taken[0], pending)) >= pending.max())


def interpolate(fit: FusedLassoFit, window: Window) -> StepFunction:
    """Constant interpolation of the solution vector onto the window.

    The j-th coefficient (1-based) is the level on the cell (t_{j-1}, t_j] of
    ``window.grid(m)``, the cell whose cumulative-hazard increment it
    estimates (see :func:`~hazstep.estimators.build_increments`).  Adjacent
    equal levels are merged, so a block starting at the 1-based coefficient j
    starts at t_{j-1}: the breaks are the grid points at the 0-based change
    points.
    """
    starts = fit.changepoints
    return StepFunction(window, window.grid(fit.m)[starts], fit.alpha[np.r_[0, starts]])
