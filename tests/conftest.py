"""Shared independent oracles for the test suite.

These implementations deliberately avoid the package's own algorithms: the
fused-lasso solution is computed exactly by Condat's direct algorithm for
1-D total-variation denoising, by a linear-time dynamic program and, on
small problems, by coordinate descent on the standard-lasso
reparametrization; the elementwise error bound is
checked with dense O(m^2) partial sums; the cumulative-hazard and
product-limit references count risk sets by brute force, the
forward-equation reference integrates with a fixed-step RK4 scheme, and the
CSV writer references format and write one row at a time.  The
sort-per-call risk-set sums are the package's rule without the frame's
cached sort orders, the knot walk is the package's closed-form curve rule
one knot at a time in plain floats, and the bootstrap reference draws each
64-row group of normals from its own seeded stream in one call and writes
the statistic out for one row at a time, all for bit-for-bit comparisons.
``effective_noise`` is the statistic's defining formula on one vector, and
``record_reducers`` records which thread reduces each block of a bootstrap.
An autouse fixture checks that every test gives back the spare-CPU tokens it
took and leaves the bootstrap's worker no job.  The session hooks at the end
print a speed reference for the suite's wall time.
"""

import csv
import heapq
import importlib.util
import math
import os
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hazstep import PathBreakpoint, ValidationError, flsa, flsa_solve, tuning

# property tests draw the same examples on every run and keep no database
settings.register_profile("hazstep", derandomize=True, database=None, deadline=None, max_examples=500)
settings.load_profile("hazstep")


def fused_objective(y, a, lam):
    y = np.asarray(y, float)
    a = np.asarray(a, float)
    return float(np.sum((y - a) ** 2) / y.size + lam * np.sum(np.abs(np.diff(a))))


def tv_denoise_oracle(y, lam):
    """Exact 1-D total-variation denoising by Condat's direct algorithm.

    Solves min_a (1/m)||y-a||^2 + lam*TV(a), which is
    min_a (1/2)||y-a||^2 + gamma*TV(a) with gamma = m*lam/2.  The segment
    [k0, k] is grown left to right while the dual variable of its right end
    stays within the bounds (umin, umax) that its lowest and highest
    admissible values (vmin, vmax) allow; when it leaves them the segment is
    closed at vmin or vmax, restarting after the last index where that bound
    was attained (Condat 2013, "A direct algorithm for 1-D total variation
    denoising", IEEE Signal Processing Letters 20(11)).
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if m == 1 or lam == 0:
        return y.copy()
    gamma = 0.5 * m * lam
    y = y.tolist()  # scalar reads from a list are faster
    x = np.empty(m)
    k = k0 = kminus = kplus = 0
    vmin, vmax = y[0] - gamma, y[0] + gamma
    umin, umax = gamma, -gamma
    while True:
        while k == m - 1:  # the right boundary: the last segment's dual is 0
            if umin < 0.0:  # vmin too high: a negative jump after kminus
                x[k0 : kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin, umin = y[k], gamma
                umax = vmin + umin - vmax
            elif umax > 0.0:  # vmax too low: a positive jump after kplus
                x[k0 : kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax, umax = y[k], -gamma
                umin = vmax + umax - vmin
            else:
                vmin += umin / (k - k0 + 1)
                x[k0:] = vmin
                return x
        umin += y[k + 1] - vmin
        umax += y[k + 1] - vmax
        if umin < -gamma:  # a negative jump after kminus, where the dual is gamma
            x[k0 : kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin, vmax = y[k], y[k] + 2.0 * gamma
            umin, umax = gamma, -gamma
        elif umax > gamma:  # a positive jump after kplus, where the dual is -gamma
            x[k0 : kplus + 1] = vmax
            k = k0 = kminus = kplus = kplus + 1
            vmin, vmax = y[k] - 2.0 * gamma, y[k]
            umin, umax = gamma, -gamma
        else:  # no jump: extend the segment to k + 1
            k += 1
            if umin >= gamma:
                kminus = k
                vmin += (umin - gamma) / (k - k0 + 1)
                umin = gamma
            if umax <= -gamma:
                kplus = k
                vmax += (umax + gamma) / (k - k0 + 1)
                umax = -gamma


def dp_solve_oracle(y, lam):
    """The exact fused-lasso fit at ``lam`` by dynamic programming.

    Minimizes (1/2) sum (y_j - b_j)^2 + gamma sum |b_j - b_{j+1}| with
    gamma = m*lam/2, which is the (1/m)-normalized objective, with clipped
    derivative messages in linear time (Johnson 2013): the derivative of each
    message is piecewise linear and stored as a deque of knots carrying
    (slope, intercept) increments.  ``snap`` treats a backward pass that lands
    within 1e-10 * max|y| of a clip bound as unclipped, so that mathematically
    fused blocks come out exactly equal instead of a few ulps apart; jumps
    smaller than that are lost.
    """
    ys = np.asarray(y, dtype=float).reshape(-1)
    gamma = 0.5 * ys.size * lam
    snap = 1e-10 * float(np.max(np.abs(ys)))
    y = ys.tolist()
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


def reparametrized_check(y, lam):
    """Solve the fused lasso through its standard-lasso reparametrization.

    Writing a = X theta with X lower-triangular of ones, the problem becomes
    a lasso in the centered design for theta_2..theta_m with unpenalized
    intercept theta_1; this routine solves that lasso by cyclic coordinate
    descent (dense, O(m^2) per sweep) and returns cumsum(theta).
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    m = y.size
    if lam == 0 or m == 1:
        return y.copy()  # the unpenalized problem interpolates the data

    ybar = y.mean()
    yc = y - ybar
    # centered design columns X^c_j = 1(i >= j) - (m - j + 1)/m for j = 2..m
    cols = np.arange(2, m + 1)
    xbar = (m - cols + 1) / m
    X = (np.arange(1, m + 1)[:, None] >= cols[None, :]).astype(float) - xbar[None, :]
    norm2 = np.sum(X * X, axis=0)
    thresh = 0.5 * m * lam

    theta = np.diff(y)  # warm start at the unpenalized solution
    r = yc - X @ theta
    scale = max(1.0, float(np.max(np.abs(y))))
    for _ in range(100_000):
        delta = 0.0
        for j in range(m - 1):
            old = theta[j]
            z = X[:, j] @ r + norm2[j] * old
            new = np.sign(z) * max(abs(z) - thresh, 0.0) / norm2[j]
            if new != old:
                r += X[:, j] * (old - new)
                theta[j] = new
                delta = max(delta, abs(new - old))
        if delta <= 1e-13 * scale:
            break
    else:
        raise AssertionError("coordinate descent did not converge")

    theta1 = ybar - xbar @ theta
    return theta1 + np.concatenate(([0.0], np.cumsum(theta)))


def merge_path_oracle(y):
    """The fused-lasso solution path by bottom-up block merging.

    The counterpart of the package's top-down split path: in one dimension
    fused blocks only merge as lambda grows, so every merge event is
    enumerated exactly from lambda = 0 upward with a heap.  Returns the same
    ascending ``PathBreakpoint`` list.  Merges within 1e-9 (relative) of the
    previous breakpoint collapse into it, and after a merge, gaps below
    1e-9 * max|y| count as touching.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    m = y.size
    starts = np.flatnonzero(np.diff(y) != 0) + 1
    nb = starts.size + 1
    if nb == 1:
        return [PathBreakpoint(0.0, 0)]

    # Block values evolve piecewise linearly in lambda and are tracked lazily
    # as value(lam) = base[i] + slope[i] * (lam - base_lam[i]).  Adjacent
    # blocks whose values meet fuse and never cross, so the sign of each gap
    # is fixed at initialization and only deleted when the boundary fuses.
    size = np.diff(starts, prepend=0, append=m).tolist()
    base = y[np.r_[0, starts]].tolist()
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

    heap = []
    vtol = 1e-9 * float(np.max(np.abs(y)))

    def push_merge(i, lam):
        # the gap to the right neighbour is linear in lambda and closes after
        # t = gap / closing
        j = nxt[i]
        if j == -1:
            return
        s = sig[i]
        gap = (val(j, lam) - val(i, lam)) * s
        if lam > 0 and gap <= vtol:
            heapq.heappush(heap, (lam, i, j, version[i], version[j]))
            return
        closing = (slope[i] - slope[j]) * s
        if closing <= 0.0:
            return
        # a subnormal gap / closing can round to 0, yet the merge lies ahead
        t = gap / closing or 5e-324
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
        merged = (size[i] * val(i, cur) + size[j] * val(j, cur)) / (size[i] + size[j])
        size[i] += size[j]
        base[i] = merged
        base_lam[i] = cur
        sig[i] = sig[j]
        alive[j] = False
        version[j] += 1
        nxt[i] = nxt[j]
        if nxt[j] != -1:
            prev[nxt[j]] = i
        version[i] += 1
        slope[i] = slope_of(i)
        push_merge(i, cur)
        if prev[i] != -1:
            push_merge(prev[i], cur)
        count -= 1
        if cur <= out[-1].lam * (1.0 + 1e-9):
            out[-1] = PathBreakpoint(out[-1].lam, count)
        else:
            out.append(PathBreakpoint(cur, count))
    return out


def _jump_geometry(truth):
    """d_j and r_{k(j)} for the discretized step signal (see the bound)."""
    m = truth.size
    jump_idx = np.flatnonzero(np.diff(truth) != 0) + 2  # 1-based jump indices n_k
    bounds = np.concatenate(([1], jump_idx, [m + 1]))
    j = np.arange(1, m + 1)
    seg = np.searchsorted(bounds, j, side="right") - 1
    lo = bounds[seg]
    hi = bounds[seg + 1]
    d = np.minimum(j + 1 - lo, hi - j).astype(float)
    r = (hi - lo).astype(float)
    return d, r


def elementwise_bound_check(fit, truth):
    """Deterministic elementwise error bound for the exact fused lasso.

    With m = fit.m, lam = fit.lam, u = y - truth and kappa the maximal
    normalized partial sum max_{k<=l} |sum_{j=k}^{l} u_j| / sqrt(l-k+1),
    every coordinate must obey

        |alpha_j - truth_j| <= max{ kappa/sqrt(d_j),
                                    kappa^2/(4*m*lam),
                                    2*m*lam/r_{k(j)} + 2*kappa/sqrt(r_{k(j)}) }

    where d_j is the distance of j to the nearest jump index of the truth
    and r_{k(j)} the length of the surrounding constant segment.  A False
    return certifies that the fitted vector is not the exact minimizer.
    """
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if truth.size != fit.m:
        raise ValidationError("truth grid does not match the fitted grid")
    m, lam = fit.m, fit.lam
    if lam <= 0:
        raise ValidationError("the bound requires lambda > 0")

    u = fit.y - truth
    prefix = np.concatenate(([0.0], np.cumsum(u)))
    diff = prefix[None, :] - prefix[:, None]  # diff[k, l] = sum_{j=k+1}^{l} u_j
    lengths = np.arange(m + 1)[None, :] - np.arange(m + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(diff) / np.sqrt(np.where(lengths > 0, lengths, 1))
    kappa = float(np.max(np.where(lengths > 0, ratios, 0.0)))

    d, r = _jump_geometry(truth)
    rhs = np.maximum(
        kappa / np.sqrt(d),
        np.maximum(kappa**2 / (4.0 * m * lam), 2.0 * m * lam / r + 2.0 * kappa / np.sqrt(r)),
    )
    lhs = np.abs(fit.alpha - truth)
    slack = 1e-9 * max(1.0, float(np.max(np.abs(fit.y))))
    return bool(np.all(lhs <= rhs + slack))


def nelson_aalen_reference(time, status, entry=None):
    """Plain risk-set-counting Nelson-Aalen estimator (loop based)."""
    time = np.asarray(time, float)
    status = np.asarray(status)
    entry = np.zeros_like(time) if entry is None else np.asarray(entry, float)
    jump_times, jump_sizes = [], []
    for t in np.unique(time[status == 1]):
        at_risk = 0
        events = 0
        for i in range(time.size):
            if entry[i] < t <= time[i]:
                at_risk += 1
            if time[i] == t and status[i] == 1:
                events += 1
        if at_risk > 0:
            jump_times.append(t)
            jump_sizes.append(events / at_risk)
    return np.array(jump_times), np.array(jump_sizes)


def kaplan_meier_reference(time, status, entry):
    """Product-limit estimator with at-risk masks counted per event time."""
    time = np.asarray(time, float)
    status = np.asarray(status)
    entry = np.asarray(entry, float)
    ev_times = np.unique(time[status == 1])
    surv, values = 1.0, [1.0]
    for t in ev_times:
        at_risk = np.sum((entry < t) & (t <= time))
        surv *= 1.0 - np.sum((time == t) & (status == 1)) / at_risk
        values.append(surv)
    return np.concatenate(([0.0], ev_times)), np.array(values)


def rk4_state_probabilities(a01, a02, a12, t_end, steps_per_unit=4000):
    """Forward-equation reference: fixed-step RK4 for (P00, P01).

    The intensity functions are evaluated pointwise, so step boundaries are
    aligned with the hazards' breakpoints to keep the coefficients constant
    within each RK4 step.
    """
    knots = np.unique(
        np.concatenate(
            (
                np.asarray(a01.breaks, float),
                np.asarray(a02.breaks, float),
                np.asarray(a12.breaks, float),
                [0.0, t_end],
            )
        )
    )
    knots = knots[(knots >= 0) & (knots <= t_end)]
    if knots[-1] < t_end:
        knots = np.append(knots, t_end)
    p00, p01 = 1.0, 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        h01 = float(a01(lo))
        h02 = float(a02(lo))
        h12 = float(a12(lo))

        def deriv(state):
            q00, q01 = state
            return np.array([-(h01 + h02) * q00, h01 * q00 - h12 * q01])

        nsteps = max(int(np.ceil((hi - lo) * steps_per_unit)), 1)
        h = (hi - lo) / nsteps
        state = np.array([p00, p01])
        for _ in range(nsteps):
            k1 = deriv(state)
            k2 = deriv(state + 0.5 * h * k1)
            k3 = deriv(state + 0.5 * h * k2)
            k4 = deriv(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        p00, p01 = state
    return p00, p01


def state_probabilities_knot_walk(model, grid):
    """The closed-form (P00, P01) one knot at a time, in plain floats.

    The package's rule evaluated knot by knot: at each knot of the common
    refinement of the hazard breaks and the grid, the three levels are read
    one at a time and the segment's exact update is applied, so the
    whole-array evaluation can be compared with it bit for bit.  The grid
    must already be valid (finite, strictly increasing, >= 0).
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    knots = np.unique(
        np.concatenate((model.a01.breaks, model.a02.breaks, model.a12.breaks, grid, [0.0]))
    )
    p00 = {0.0: 1.0}
    p01 = {0.0: 0.0}
    cur00, cur01, prev = 1.0, 0.0, 0.0
    for t in knots[knots > 0]:
        h01 = float(model.a01(prev))
        h02 = float(model.a02(prev))
        h12 = float(model.a12(prev))
        delta = t - prev
        exit0 = h01 + h02
        rate = exit0 - h12
        phi = delta if abs(rate) < 1e-10 else -np.expm1(-rate * delta) / rate
        decay12 = np.exp(-h12 * delta)
        cur01 = cur01 * decay12 + h01 * cur00 * decay12 * phi
        cur00 = cur00 * np.exp(-exit0 * delta)
        prev = t
        p00[t] = cur00
        p01[t] = cur01
    return np.array([p00[t] for t in grid]), np.array([p01[t] for t in grid])


def risk_set_sums_sort_per_call(frame, weights, times=None):
    """Sum of weights over {i: entry_i < t <= time_i}, sorting on every call.

    The same suffix sums over the same stable orders as
    ``hazstep.data.risk_set_sums``, recomputed from the columns each time, at
    ``times`` or else at the frame's distinct event times.
    """
    weights = np.asarray(weights, dtype=float)
    if times is None:
        times = np.unique(frame.time[frame.status == 1])

    def not_before(keys):
        order = np.argsort(keys, kind="stable")
        values = weights[order]
        suffix = np.concatenate(
            (np.cumsum(values[::-1], axis=0)[::-1], np.zeros((1,) + values.shape[1:]))
        )
        return suffix[np.searchsorted(keys[order], times, side="left")]

    total = not_before(frame.time)
    if np.any(frame.entry > 0):
        total = total - not_before(frame.entry)
    return total


def cox_information_oracle(frame, beta):
    """Breslow Cox information from the full d x d risk-set sums s2.

    sum_k d_k (s2_k / s0_k - mean_k mean_k') at the distinct event times,
    with s0, s1 and s2 = sum w_i W_i W_i' over each risk set summed by
    ``risk_set_sums_sort_per_call`` on the uncentred covariates.
    """
    W = frame.covariates
    w = np.exp(W @ beta)
    times, d_k = np.unique(frame.time[frame.status == 1], return_counts=True)
    s0 = risk_set_sums_sort_per_call(frame, w, times)
    mean = risk_set_sums_sort_per_call(frame, W * w[:, None], times) / s0[:, None]
    s2 = risk_set_sums_sort_per_call(frame, (W[:, :, None] * W[:, None, :]) * w[:, None, None], times)
    return np.einsum("k,kij->ij", d_k, s2 / s0[:, None, None]) - np.einsum(
        "k,ki,kj->ij", d_k, mean, mean
    )


def group_normals(seed, l_boot, m):
    """The bootstrap's (l_boot, m) normals: rows 64g ... 64g + 63 are one draw from
    ``default_rng(SeedSequence(seed).spawn(G)[g])``, the last group shorter."""
    groups = np.random.SeedSequence(seed).spawn(-(-l_boot // 64))
    return np.concatenate(
        [np.random.default_rng(s).standard_normal((min(64, l_boot - 64 * g), m))
         for g, s in enumerate(groups)]
    )


def bootstrap_stats_serial(residuals, seed, l_boot):
    """Bootstrap statistics of ``group_normals``, one row at a time.

    Each row v = residuals * eps gives (2/n) max_{k<n} |cumsum(v - mean v)_k|,
    written out in the order of operations the package's seeded results rely on.
    """
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    out = np.empty(l_boot)
    for row, eps in enumerate(group_normals(seed, l_boot, n)):
        v = residuals * eps
        sums = np.cumsum(v - v.mean())
        out[row] = 2.0 / n * np.max(np.abs(sums[:-1]))
    return out


def effective_noise(u):
    """2 * max_{2<=j<=n} |-s_{j-1}/n + (j-1) s_n/n^2| of one vector u (n >= 2), s its
    partial sums: the effective noise 2 * ||(X^c)' u^c||_inf / n of the centered design."""
    u = np.asarray(u, dtype=float).reshape(-1)
    n = u.size
    s = np.cumsum(u)
    return float(2.0 * np.max(np.abs(-s[:-1] / n + np.arange(1, n) * s[-1] / n**2)))


def spare_tokens(budget):
    """The free tokens of a semaphore, counted by taking them and giving them back."""
    taken = 0
    while budget.acquire(blocking=False):
        taken += 1
    if taken:
        budget.release(taken)
    return taken


@pytest.fixture(autouse=True)
def spare_cpus_given_back():
    """After every test the spare-CPU budget is back at its count and the worker has no job."""
    budget = tuning._SPARE_CPUS
    start = spare_tokens(budget)
    yield
    assert tuning._SPARE_CPUS is budget and spare_tokens(budget) == start
    assert tuning._WORKER is None or tuning._WORKER.empty()


# -- row-by-row CSV writers ----------------------------------------------------
#
# Each writes the same file as the package writer of the same name, one
# ``writerow`` per row with every float formatted on its own.


def write_survival_csv_rows(frame, path):
    has_entry = bool(np.any(frame.entry > 0))
    cov_cols = [f"w{j + 1}" for j in range(frame.d)]
    header = (["entry"] if has_entry else []) + ["time", "status"] + cov_cols
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(frame.n):
            row = []
            if has_entry:
                row.append(repr(float(frame.entry[i])))
            row.append(repr(float(frame.time[i])))
            row.append(int(frame.status[i]))
            row.extend(repr(float(v)) for v in frame.covariates[i])
            writer.writerow(row)


def write_multistate_csv_rows(frame, path, censor_token="cens"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "from", "to", "t_start", "t_stop"])
        for i in range(len(frame)):
            to = int(frame.to_state[i])
            writer.writerow(
                [
                    frame.id[i].item(),
                    int(frame.from_state[i]),
                    censor_token if to == -1 else to,
                    repr(float(frame.t_start[i])),
                    repr(float(frame.t_stop[i])),
                ]
            )


def breslow_to_csv_rows(curve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "cumhaz"])
        writer.writerow([0.0, 0.0])
        total = 0.0
        for t, s in zip(curve.jump_times, curve.jump_sizes):
            total += float(s)
            writer.writerow([repr(float(t)), repr(float(total))])


def curves_to_csv_rows(pfs, os_, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "S_PFS", "S_OS"])
        for t, a, b in zip(pfs.grid, pfs.values, os_.values):
            writer.writerow([repr(float(t)), repr(float(a)), repr(float(b))])


def km_to_csv_rows(curve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "survival"])
        for t, v in zip(curve.grid, curve.values):
            writer.writerow([repr(float(t)), repr(float(v))])


def report_table_csv_rows(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "n", "replications", "l2_sq", "d_asym", "snr", "censored_fraction"]
        )
        for rep in reports:
            agg = rep.aggregates()

            def fmt(key):
                a = agg[key]
                if math.isnan(a["sd"]):
                    return f"{a['mean']:.3f}"
                return f"{a['mean']:.3f} ({a['sd']:.3f})"

            writer.writerow(
                [rep.scenario, rep.n, rep.replications]
                + [fmt(k) for k in ("l2_sq", "d_asym", "snr", "censored_fraction")]
            )


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_reducers(monkeypatch, wait_for_worker=False):
    """A list that gets (thread, usable CPUs, u_boot) of each block the bootstrap reduces
    from here on.  With ``wait_for_worker`` the calling thread reduces no block of a
    bootstrap until another thread has reduced one of it (or 10 s have passed), so a
    worker that shares the bootstrap takes a group whatever the timing."""
    seen, reduce, caller = [], tuning._effective_noise, threading.current_thread()
    helped = threading.Condition()

    def recorded(u, residuals, out):
        me = threading.current_thread()

        def worker_reduced():
            return any(t is not caller and u_boot is out.base for t, _, u_boot in seen)

        with helped:
            if wait_for_worker and me is caller:
                helped.wait_for(worker_reduced, 10)
            seen.append((me, frozenset(os.sched_getaffinity(0)), out.base))
            helped.notify_all()
        reduce(u, residuals, out)

    monkeypatch.setattr(tuning, "_effective_noise", recorded)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def split_trees(monkeypatch):
    """The y of each split tree built from here on, with no tree kept before."""
    built = []

    class Counted(flsa._SplitRounds):
        def __init__(self, y):
            built.append(y.copy())
            super().__init__(y)

    monkeypatch.setattr(flsa, "_SplitRounds", Counted)
    monkeypatch.setattr(flsa, "_last", threading.local())
    return built


def fresh_solve(y, lam):
    """``flsa_solve`` on a split tree built for this call alone."""
    kept = flsa._last
    flsa._last = threading.local()
    try:
        return flsa_solve(y, lam)
    finally:
        flsa._last = kept


# -- speed reference -----------------------------------------------------------
#
# The machine's speed drifts between runs, so the suite times perfbench's
# calibration kernel before and after itself and prints both next to its own
# wall time; a run's wall time divided by the kernel's compares across runs.

_SPEED = pytest.StashKey[dict]()


def _calibration_seconds() -> float:
    """One run of ``perfbench/worker.py::calibration_kernel``, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("_perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.calibration_kernel()


def pytest_sessionstart(session):
    start = time.perf_counter()
    before = _calibration_seconds()
    now = time.perf_counter()
    session.config.stash[_SPEED] = {"before": before, "start": now, "hooks": now - start}


def pytest_terminal_summary(terminalreporter, config):
    speed = config.stash.get(_SPEED, None)
    if speed is None:
        return
    wall = time.perf_counter() - speed["start"]
    start = time.perf_counter()
    after = _calibration_seconds()
    hooks = speed["hooks"] + time.perf_counter() - start
    terminalreporter.write_sep("=", "speed reference")
    terminalreporter.write_line(
        f"calibration kernel {speed['before']:.3f} s before and {after:.3f} s after a "
        f"session of {wall:.1f} s wall; the two kernel runs took {hooks:.1f} s"
    )
