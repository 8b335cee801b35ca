"""Exact 1-D fused lasso: fixed-lambda solver, solution path, interpolation.

The solver minimizes

    (1/m) * sum_j (y_j - a_j)^2  +  lambda * sum_{j=2}^m |a_j - a_{j-1}|

exactly, by dynamic programming over clipped piecewise-linear derivative
messages (linear time in m).  The solution path in lambda is computed by
agglomerative block merging: in one dimension, fused blocks only merge and
never split as lambda grows, so all merge events can be enumerated exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
import numpy as np

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

    ``blocks`` lists maximal fused runs as (start, end, level) with 0-based
    inclusive indices; ``changepoints`` are the 0-based indices j such that
    ``alpha[j-1] != alpha[j]`` (i.e. the first index of each new block).
    """

    lam: float
    alpha: np.ndarray
    y: np.ndarray
    blocks: list = field(default_factory=list)
    changepoints: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def m(self) -> int:
        return self.alpha.size

    def residuals(self) -> np.ndarray:
        return self.y - self.alpha

    def objective(self) -> float:
        m = self.m
        fit = float(np.sum((self.y - self.alpha) ** 2)) / m
        tv = float(np.sum(np.abs(np.diff(self.alpha))))
        return fit + self.lam * tv


@dataclass(frozen=True)
class PathBreakpoint:
    """Change-point count valid on the lambda interval starting here."""

    lam: float
    changepoint_count: int


def _blocks_from_alpha(alpha: np.ndarray):
    """Maximal runs of exactly-equal adjacent values."""
    m = alpha.size
    starts = np.flatnonzero(np.diff(alpha) != 0) + 1
    bounds = np.concatenate(([0], starts, [m]))
    blocks = [
        (int(bounds[i]), int(bounds[i + 1] - 1), float(alpha[bounds[i]]))
        for i in range(bounds.size - 1)
    ]
    return blocks, starts


def _dp_fused(ys, gamma: float, snap: float = 0.0) -> np.ndarray:
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


def flsa_solve(y, lam: float, m: int | None = None) -> FusedLassoFit:
    """Exact global minimizer of the fused-lasso objective.

    Parameters
    ----------
    y : array-like, length m
        Observations (the increment responses).
    lam : float
        Nonnegative total-variation penalty level, on the scale of the
        (1/m)-normalized quadratic loss.
    m : int, optional
        Expected length of y, checked if given.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if m is not None and y.size != m:
        raise ValidationError(f"expected y of length {m}, got {y.size}")
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
    blocks, starts = _blocks_from_alpha(alpha)
    return FusedLassoFit(lam=float(lam), alpha=alpha, y=y.copy(), blocks=blocks, changepoints=starts)


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


def flsa_path(y) -> list[PathBreakpoint]:
    """All lambdas at which fused blocks merge, with change-point counts.

    Returns breakpoints with strictly increasing lambda, starting at 0; the
    count attached to a breakpoint is the change-point count of the exact
    solution on [this breakpoint, next breakpoint).
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValidationError("y must be nonempty")
    if np.any(~np.isfinite(y)):
        raise ValidationError("y contains non-finite values")
    m = y.size

    blocks, _ = _blocks_from_alpha(y)
    nb = len(blocks)
    if nb == 1:
        return [PathBreakpoint(0.0, 0)]

    # Block state.  Values evolve piecewise linearly in lambda and are tracked
    # lazily as value(lam) = base[i] + slope[i] * (lam - base_lam[i]).  The
    # sign of each inter-block gap is bookkept explicitly: a subgradient
    # argument shows adjacent blocks whose values meet must fuse and can never
    # cross or separate, so signs are fixed at initialization and only ever
    # deleted when a boundary fuses; they are never re-derived from (noisy)
    # float values.
    size = [e - s + 1 for s, e, _ in blocks]
    base = [lv for _, _, lv in blocks]
    base_lam = [0.0] * nb
    prev = list(range(-1, nb - 1))
    nxt = list(range(1, nb + 1))
    nxt[-1] = -1
    # sig[i]: sign of val(nxt[i]) - val(i), keyed by the left block
    sig = [0] * nb
    for i in range(nb - 1):
        sig[i] = 1 if base[i + 1] > base[i] else -1
    alive = [True] * nb
    version = [0] * nb

    def slope_of(i):
        sl = 0 if prev[i] == -1 else sig[prev[i]]
        sr = 0 if nxt[i] == -1 else sig[i]
        return (m / (2.0 * size[i])) * (sr - sl)

    slope = [slope_of(i) for i in range(nb)]

    def val(i, lam):
        return base[i] + slope[i] * (lam - base_lam[i])

    heap: list = []
    # mathematically simultaneous merges come out of the float bookkeeping a
    # few ulps apart; gaps below this (scale-relative) tolerance count as
    # touching
    vtol = 1e-9 * float(np.max(np.abs(y)))

    def push_merge(i, lam):
        # arm the merge event of block i with its right neighbour: the value
        # gap is linear in lambda and closes after t = dv/ds
        j = nxt[i]
        if j == -1:
            return
        dv = val(j, lam) - val(i, lam)
        ds = slope[i] - slope[j]
        if abs(dv) <= vtol:
            heapq.heappush(heap, (lam, i, j, version[i], version[j]))
            return
        if ds == 0.0:
            return
        t = dv / ds
        if t <= 0.0:
            return  # diverging pair; it can only merge after another event
        heapq.heappush(heap, (lam + t, i, j, version[i], version[j]))

    for i in range(nb):
        push_merge(i, 0.0)

    out = [PathBreakpoint(0.0, nb - 1)]
    count = nb - 1
    cur = 0.0
    while heap:
        lam_star, i, j, vi, vj = heapq.heappop(heap)
        if not (alive[i] and alive[j]) or version[i] != vi or version[j] != vj:
            continue
        cur = max(lam_star, cur)

        # merge j into i at lambda = cur
        merged = (size[i] * val(i, cur) + size[j] * val(j, cur)) / (size[i] + size[j])
        size[i] += size[j]
        base[i] = merged
        base_lam[i] = cur
        sig[i] = sig[j]  # i's right boundary is now j's old right boundary
        alive[j] = False
        version[j] += 1
        nxt[i] = nxt[j]
        if nxt[j] != -1:
            prev[nxt[j]] = i

        # outer boundary signs are untouched by a merge, so only the merged
        # block's slope changes; refresh it and re-arm its two candidate events
        version[i] += 1
        slope[i] = slope_of(i)
        push_merge(i, cur)
        if prev[i] != -1:
            push_merge(prev[i], cur)

        count -= 1
        # merges at (numerically) the same lambda collapse to one breakpoint
        if cur <= out[-1].lam * (1.0 + 1e-9):
            out[-1] = PathBreakpoint(out[-1].lam, count)
        else:
            out.append(PathBreakpoint(cur, count))
    return out


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
    step = window.length / fit.m
    levels = [lv for _, _, lv in fit.blocks]
    breaks = window.tau_min + fit.changepoints * step
    return StepFunction(window, breaks, levels)
