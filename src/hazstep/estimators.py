"""Cumulative-hazard estimation and the increment regression sample.

The Breslow step estimator of the cumulative hazard sums, over distinct
event times, the number of tied events divided by the exp(beta'W)-weighted
risk-set size (with the 0/0 := 0 convention).  Regression coefficients for
the proportional-hazards weighting come from a Newton-Raphson maximizer of
the log partial likelihood with Breslow tie handling.  Increments of the
estimated cumulative hazard over an equidistant grid, rescaled so the
estimation window has length one, form the signal-plus-noise sample that
the fused lasso is applied to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalFrame, _check_integer, _check_number, _column, _freeze, _write_columns
from .data import risk_set_sums
from .errors import ValidationError
from .stepfun import Window

__all__ = [
    "CoxFit",
    "BreslowCurve",
    "cox_fit",
    "breslow_fit",
    "choose_window",
    "build_increments",
    "empirical_quantile",
]

SEPARATION_GUARD = 50.0  # |beta| beyond this is treated as monotone likelihood
SCORE_TOL = 1e-8  # converged when every score component is this small
MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class CoxFit:
    beta: np.ndarray
    log_partial_likelihood: float
    iterations: int
    converged: bool

    def __post_init__(self):
        _freeze(self, beta=self.beta)


@dataclass(frozen=True)
class BreslowCurve:
    """Right-continuous nondecreasing step estimate of the cumulative hazard."""

    jump_times: np.ndarray
    jump_sizes: np.ndarray
    tau: float  # largest observed time

    def __post_init__(self):
        jt = _column(self.jump_times, "jump_times")
        js = _column(self.jump_sizes, "jump_sizes")
        _check_number(self.tau, "tau")
        if jt.size != js.size:
            raise ValidationError("jump_times and jump_sizes differ in length")
        if jt.size and not np.all(np.diff(jt) > 0):
            raise ValidationError("jump_times must be strictly increasing")
        if np.any(js <= 0):
            raise ValidationError("jump sizes must be positive")
        _freeze(self, jump_times=jt, jump_sizes=js)

    def cumhaz(self, t):
        """Estimated cumulative hazard at ``t`` (scalar or array)."""
        t = np.asarray(t, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.jump_sizes)))
        idx = np.searchsorted(self.jump_times, t, side="right")
        out = cum[idx]
        return out if out.ndim else float(out)

    def to_csv(self, path) -> None:
        """A (0, 0) row, then one (jump time, cumulative hazard after it) row per jump."""
        totals = np.concatenate(([0.0], np.cumsum(self.jump_sizes)))
        _write_columns(path, ["time", "cumhaz"], (np.concatenate(([0.0], self.jump_times)), totals))


def _event_counts(order: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The number of distinct event times <= each key of a risk order, per record.

    An event time is <= the key at place j of the order exactly when its
    slot, the place of the first key >= it, is <= j.
    """
    counts = np.empty(order.size, dtype=np.intp)
    counts[order] = np.cumsum(np.bincount(slots, minlength=order.size + 1))[:-1]
    return counts


def _likelihood_constants(frame: SurvivalFrame):
    """What every likelihood evaluation on ``frame`` shares: the centred
    covariates, the event mask, the events' summed centred covariates, and
    the number of distinct event times up to each entry and each time.

    The partial likelihood is shift-invariant, so beta keeps its meaning for
    ``breslow_fit``'s uncentred columns.  Centring on row 0, then on the
    means, makes a constant column, and its information row and column, 0.
    Without left truncation every entry is 0 and every event time > 0, so no
    event time is <= an entry.
    """
    W = frame.covariates - frame.covariates[0]
    W -= W.mean(axis=0)
    orders = [order for _, order in frame._risk_orders]
    hi, *lo = map(_event_counts, orders, frame._event_slots)
    events = frame.status == 1
    return W, events, np.sum(W[events], axis=0), lo[0] if lo else 0, hi


def _partial_loglik_parts(frame: SurvivalFrame, beta: np.ndarray, constants):
    """Log partial likelihood, gradient and information (Breslow ties).

    One risk-set pass sums s0 = sum w_i and s1 = sum w_i W_i at each event
    time t_k.  The information's first term, sum_k d_k / s0_k sum_{i at risk
    at t_k} w_i W_i W_i', is W' diag(w_i H_i) W: H_i, the sum of d_k / s0_k
    over t_k in (entry_i, time_i], is the Breslow cumulative hazard.
    """
    W, events, event_sum, lo, hi = constants
    d_k = frame._event_ties[1]
    eta = W @ beta
    w = np.exp(eta)
    sums = risk_set_sums(frame, np.column_stack((w, W * w[:, None])))
    s0, s1 = sums[:, 0], sums[:, 1:]
    if np.any(s0 <= 0):
        raise ValidationError("empty risk set at an event time")
    loglik = float(np.sum(eta[events]) - np.sum(d_k * np.log(s0)))
    mean = s1 / s0[:, None]
    grad = event_sum - d_k @ mean
    cum = np.concatenate(([0.0], np.cumsum(d_k / s0)))
    H = cum[hi] - cum[lo]
    info = (W.T * (w * H)) @ W - (mean.T * d_k) @ mean
    return loglik, grad, info


def cox_fit(frame: SurvivalFrame) -> CoxFit:
    """Newton-Raphson maximizer of the Cox log partial likelihood.

    Breslow handling of ties, step-halving on likelihood decrease, and a
    guard that flags monotone likelihoods (separation): when the iterate
    leaves a large box the fit is returned with ``converged=False`` instead
    of diverging.
    """
    if frame.d == 0:
        raise ValidationError("cox_fit requires at least one covariate")
    if not np.any(frame.status == 1):
        raise ValidationError("cox_fit requires at least one event")

    constants = _likelihood_constants(frame)
    beta = np.zeros(frame.d)
    loglik, grad, info = _partial_loglik_parts(frame, beta, constants)
    if np.max(np.abs(grad)) <= SCORE_TOL:
        # score flat at the start: non-identifiable direction, return 0 by
        # convention (e.g. a covariate constant across subjects)
        return CoxFit(beta, loglik, 0, True)
    for it in range(MAX_NEWTON_STEPS):
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, grad, rcond=None)[0]
        # a monotone (separated) likelihood keeps the score tiny while the
        # Newton step stays O(1) or the information degenerates, so declaring
        # convergence requires a small step and a nonsingular information
        if np.max(np.abs(grad)) <= SCORE_TOL and np.max(np.abs(step)) <= 1e-3 * (
            1.0 + np.max(np.abs(beta))
        ):
            eigmin = float(np.min(np.linalg.eigvalsh(info)))
            healthy = eigmin > 1e-10 * (1.0 + float(np.max(np.diag(info))))
            return CoxFit(beta, loglik, it, bool(healthy))
        # backtrack until the likelihood does not decrease
        for _ in range(30):
            cand = beta + step
            if np.max(np.abs(cand)) > SEPARATION_GUARD:
                return CoxFit(cand, loglik, it + 1, False)
            new_loglik, new_grad, new_info = _partial_loglik_parts(frame, cand, constants)
            if new_loglik >= loglik - 1e-12 * max(1.0, abs(loglik)):
                break
            step = step / 2.0
        beta, loglik, grad, info = cand, new_loglik, new_grad, new_info
    converged = bool(np.max(np.abs(grad)) <= SCORE_TOL)
    return CoxFit(beta, loglik, MAX_NEWTON_STEPS, converged)


def breslow_fit(frame: SurvivalFrame, beta=None) -> BreslowCurve:
    """Breslow step estimator of the cumulative hazard.

    One jump per distinct event time, of size (number of tied events) over
    the weighted risk-set size; jumps with an empty risk set are dropped
    (0/0 := 0).  With no covariates this is the Nelson-Aalen estimator.  A
    beta whose weights exp(W @ beta) overflow raises ``ValidationError``.
    """
    beta = np.asarray([] if beta is None else beta, dtype=float).reshape(-1)
    if beta.size != frame.d:
        raise ValidationError(f"beta has length {beta.size}, expected {frame.d}")
    ev_times, d_k = frame._event_ties
    with np.errstate(over="ignore"):
        weights = np.exp(frame.covariates @ beta)
    if not np.all(np.isfinite(weights)):
        raise ValidationError(
            f"exp(W @ beta) overflows at beta = {beta.tolist()}; a Cox fit that "
            "stopped there may not have converged (e.g. separated covariates)"
        )
    z = risk_set_sums(frame, weights)
    keep = z > 0
    return BreslowCurve(
        jump_times=ev_times[keep],
        jump_sizes=d_k[keep] / z[keep],
        tau=float(np.max(frame.time)) if frame.n else 0.0,
    )


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Type-1 empirical quantile: the ceil(p*k)-th order statistic."""
    values = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if values.size == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0 <= p <= 1:
        raise ValidationError(f"quantile level must be in [0, 1], got {p}")
    idx = max(int(np.ceil(p * values.size)), 1) - 1
    return float(values[idx])


def choose_window(frame: SurvivalFrame, p_low: float = 0.0, p_high: float = 0.975) -> Window:
    """Estimation window from empirical quantiles of the uncensored times."""
    if not (0 <= p_low < p_high <= 1):
        raise ValidationError(f"need 0 <= p_low < p_high <= 1, got ({p_low}, {p_high})")
    ev = frame.event_times()
    if np.unique(ev).size < 2:
        raise ValidationError("need at least 2 distinct uncensored event times")
    lo = empirical_quantile(ev, p_low)
    hi = empirical_quantile(ev, p_high)
    if not lo < hi:
        raise ValidationError(f"degenerate window: quantiles ({lo}, {hi})")
    return Window(lo, hi)


def build_increments(curve: BreslowCurve, window: Window, m: int) -> np.ndarray:
    """Scaled increments of the cumulative-hazard estimate over a grid.

    The window is affinely rescaled to length one; the response is
    y_j = m * (A(t_j) - A(t_{j-1})) over the original-time grid
    ``window.grid(m)``, using the half-open increment convention
    (t_{j-1}, t_j] inherited from the right continuity of A.  y estimates
    the hazard in rescaled time units, i.e. ``window.length`` times the
    hazard in original units.
    """
    _check_integer(m, "grid size", 2)
    if window.tau_min < 0 or window.tau_max > curve.tau:
        raise ValidationError(
            f"window ({window.tau_min}, {window.tau_max}) outside data support [0, {curve.tau}]"
        )
    y = m * np.diff(curve.cumhaz(window.grid(m)))
    return np.maximum(y, 0.0)  # guard against roundoff of equal cumhaz values
