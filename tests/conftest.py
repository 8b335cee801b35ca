"""Shared independent oracles for the test suite.

These implementations deliberately avoid the package's own algorithms: the
fused-lasso solution is computed exactly by Condat's direct algorithm for
1-D total-variation denoising and, on small problems, by coordinate descent
on the standard-lasso reparametrization; the elementwise error bound is
checked with dense O(m^2) partial sums; the cumulative-hazard and
product-limit references count risk sets by brute force, the
forward-equation reference integrates with a fixed-step RK4 scheme, and the
CSV writer references format and write one row at a time.  The
sort-per-call risk-set sums are the package's rule without the frame's
cached sort orders, the knot walk is the package's closed-form curve rule
one knot at a time in plain floats, and the bootstrap reference is the
package's statistic on one draw of all its normal rows, all for bit-for-bit
comparisons.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import settings

from hazstep import ValidationError

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


def risk_set_sums_sort_per_call(frame, weights, times):
    """Sum of weights over {i: entry_i < t <= time_i}, sorting on every call.

    The same suffix sums over the same stable orders as
    ``hazstep.data.risk_set_sums``, recomputed from the columns each time.
    """
    weights = np.asarray(weights, dtype=float)

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


def bootstrap_stats_single_draw(residuals, seed, l_boot):
    """Bootstrap statistics from one (l_boot, m) normal draw, row by row.

    Each row's effective noise is written out in the order of operations the
    package's seeded results rely on.
    """
    residuals = np.asarray(residuals, dtype=float)
    n = residuals.size
    eps = np.random.default_rng(seed).standard_normal((l_boot, n))
    out = np.empty(l_boot)
    for row in range(l_boot):
        s = np.cumsum(residuals * eps[row])
        stats = -s[:-1] / n + np.arange(1, n) * s[-1] / n**2
        out[row] = 2.0 * np.max(np.abs(stats))
    return out


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
            writer.writerow([repr(float(t)), repr(float(total))])
            total += float(s)
            writer.writerow([repr(float(t)), repr(float(total))])
        writer.writerow([repr(float(curve.tau)), repr(float(total))])


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


def stepfun_csv_rows(fun, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,level\n")
        for t, v in fun.corner_points():
            fh.write(f"{float(t)!r},{float(v)!r}\n")


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
