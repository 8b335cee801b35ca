"""Shared independent oracles for the test suite.

These implementations deliberately avoid the package's own algorithms: the
proximal-gradient solver works on the dual of the total-variation problem,
the cumulative-hazard and product-limit references count risk sets by brute
force, the forward-equation reference integrates with a fixed-step RK4
scheme, and the CSV writer references format and write one row at a time.
The sort-per-call risk-set sums are the package's rule without the frame's
cached sort orders, for bit-for-bit comparisons.
"""

import csv
import math

import numpy as np
import pytest


def fused_objective(y, a, lam):
    y = np.asarray(y, float)
    a = np.asarray(a, float)
    return float(np.sum((y - a) ** 2) / y.size + lam * np.sum(np.abs(np.diff(a))))


def prox_gradient_oracle(y, lam, max_iter=200_000, gap_tol=1e-13):
    """Accelerated projected gradient on the dual of TV denoising.

    Solves min_a (1/m)||y-a||^2 + lam*TV(a) by running FISTA on the
    box-constrained dual and mapping back; iterates until the primal-dual
    gap is tiny.  Used purely as an optimality oracle for the exact solver.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if m == 1 or lam == 0:
        return y.copy()
    gamma = 0.5 * m * lam  # penalty level of the (1/2)||.||^2 form

    def D(v):
        return np.diff(v)

    def Dt(z):
        out = np.zeros(m)
        out[:-1] -= z
        out[1:] += z
        return out

    z = np.zeros(m - 1)
    w = z.copy()
    t = 1.0
    for it in range(max_iter):
        grad = -D(y - Dt(w))
        z_new = np.clip(w - grad / 4.0, -gamma, gamma)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = z_new + ((t - 1.0) / t_new) * (z_new - z)
        z = z_new
        t = t_new
        if it % 50 == 49:
            a = y - Dt(z)
            primal = 0.5 * np.sum((y - a) ** 2) + gamma * np.sum(np.abs(D(a)))
            dual = z @ D(y) - 0.5 * np.sum(Dt(z) ** 2)
            if primal - dual < gap_tol * max(1.0, primal):
                break
    return y - Dt(z)


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
