"""Exact 1-D fused lasso: fixed-lambda solver, solution path, interpolation.

The solver minimizes

    (1/m) * sum_j (y_j - a_j)^2  +  lambda * sum_{j=2}^m |a_j - a_{j-1}|

exactly, by dynamic programming over clipped piecewise-linear derivative
messages (linear time in m).  In one dimension fused sets only grow as lambda
grows (Friedman, Hastie, Hoefling & Tibshirani 2007), so read from large
lambda downward the solution path is a sequence of block splits (the dual
path of Tibshirani & Taylor 2011); :func:`flsa_path` follows it top down and
can stop after the first few change points.
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
    return np.flatnonzero(np.diff(values) != 0) + 1


def _dp_fused(ys, gamma: float, snap: float) -> np.ndarray:
    """Exact minimizer of (1/2) sum (y_j - b_j)^2 + gamma sum |b_j - b_{j+1}|.

    Dynamic programming with clipped derivative messages; the derivative of
    each message is piecewise linear and stored as a deque of knots carrying
    (slope, intercept) increments.  ``snap`` treats a backward pass that lands
    within that distance of a clip bound as unclipped, so that mathematically
    fused blocks come out exactly equal instead of a few ulps apart.
    """
    y = list(ys)
    n = len(y)
    if n == 1 or gamma == 0.0:
        return np.asarray(ys, dtype=float).copy()

    x = [0.0] * (2 * n)
    a = [0.0] * (2 * n)
    b = [0.0] * (2 * n)
    tm = [0.0] * (n - 1)
    tp = [0.0] * (n - 1)

    tm[0] = y[0] - gamma
    tp[0] = y[0] + gamma
    l = n - 1
    r = n
    x[l] = tm[0]
    x[r] = tp[0]
    a[l] = 1.0
    b[l] = -y[0] + gamma
    a[r] = -1.0
    b[r] = y[0] + gamma
    afirst = 1.0
    bfirst = -gamma - y[1]
    alast = -1.0
    blast = -gamma + y[1]

    for k in range(1, n - 1):
        # walk up from the left until the derivative exceeds -gamma
        alo = afirst
        blo = bfirst
        lo = l
        while lo <= r and alo * x[lo] + blo <= -gamma:
            alo += a[lo]
            blo += b[lo]
            lo += 1
        tm[k] = (-gamma - blo) / alo
        l = lo - 1
        x[l] = tm[k]

        # walk down from the right until the derivative drops below gamma
        ahi = alast
        bhi = blast
        hi = r
        while hi >= l and -(ahi * x[hi] + bhi) >= gamma:
            ahi += a[hi]
            bhi += b[hi]
            hi -= 1
        tp[k] = (gamma + bhi) / (-ahi)
        r = hi + 1
        x[r] = tp[k]

        a[l] = alo
        b[l] = blo + gamma
        a[r] = ahi
        b[r] = bhi + gamma
        afirst = 1.0
        bfirst = -gamma - y[k + 1]
        alast = -1.0
        blast = -gamma + y[k + 1]

    # unconstrained minimum of the final message
    alo = afirst
    blo = bfirst
    lo = l
    while lo <= r and alo * x[lo] + blo <= 0:
        alo += a[lo]
        blo += b[lo]
        lo += 1
    beta = [0.0] * n
    beta[n - 1] = -blo / alo

    for k in range(n - 2, -1, -1):
        nxt = beta[k + 1]
        if nxt > tp[k] + snap:
            beta[k] = tp[k]
        elif nxt < tm[k] - snap:
            beta[k] = tm[k]
        else:
            beta[k] = nxt
    return np.array(beta)


def flsa_solve(y, lam: float) -> FusedLassoFit:
    """Exact global minimizer of the fused-lasso objective.

    Parameters
    ----------
    y : array-like, length m
        Observations (the increment responses).
    lam : float
        Nonnegative total-variation penalty level, on the scale of the
        (1/m)-normalized quadratic loss.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValidationError("y must be nonempty")
    if np.any(~np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    if not np.isfinite(lam) or lam < 0:
        raise ValidationError(f"lambda must be >= 0, got {lam}")

    # (1/m) loss with penalty lam == (1/2) loss with gamma = m*lam/2
    gamma = 0.5 * y.size * lam
    # scale-relative so the solver stays exactly scaling-equivariant
    snap = 1e-10 * float(np.max(np.abs(y)))
    alpha = _dp_fused(y.tolist(), gamma, snap)
    return FusedLassoFit(lam=float(lam), alpha=alpha, y=y.copy())


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

    The block holds runs of values ``v`` and lengths ``w``; ``ends`` are the
    run end positions in y (exact integers), from the block's start on, and
    ``sl``, ``sr`` its boundary subgradients (+-1 at a change point, 0 at the
    ends of y).  Its level is mean + (m*lam / (2|B|)) * (sr - sl), and the
    implied subgradient of its inner boundary j is a_j + 2 D_j / (m*lam),
    with D_j = sum_{i<j} w_i (mean - v_i) and a_j = sl + (|B_<j| / |B|)(sr - sl).
    Boundary j reaches sign(D_j) at lambda 2|D_j| / (m (1 - a_j sign D_j));
    returns the largest such lambda (inf for a boundary already past it, 0
    when every D_j is 0), its boundary j >= 1 and the new subgradient.
    """
    size = ends[-1] - ends[0]
    mean = (w * v).sum() / size
    d = (w[:-1] * (mean - v[:-1])).cumsum()
    a = sl + (ends[1:-1] - ends[0]) / size * (sr - sl) if sl != sr else sl
    with np.errstate(divide="ignore"):
        t = np.divide(
            2.0 * np.abs(d), m * (1.0 - np.sign(d) * a), out=np.zeros_like(d), where=d != 0
        )
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
