"""End-to-end hazard estimation: frame -> Breslow -> increments -> fused lasso.

The fit runs in three steps: (1) estimate regression coefficients (if any)
and the cumulative hazard, (2) build the rescaled increment sample on an
equidistant grid over the estimation window, (3) select the penalty by
multiplier bootstrap, solve the fused lasso and interpolate the solution
back to a step function in original time units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SurvivalFrame, _column, _freeze, _JsonRecord, risk_set_sums
from .errors import ValidationError
from .estimators import (
    BreslowCurve,
    CoxFit,
    IncrementSample,
    breslow_fit,
    build_increments,
    choose_window,
    cox_fit,
)
from .flsa import FusedLassoFit, flsa_solve, interpolate
from .stepfun import StepFunction, Window
from .tuning import TuningConfig, TuningResult, bootstrap_lambda

__all__ = ["FitConfig", "HazardFit", "fit_hazard", "discretize_truth"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitConfig:
    """Configuration of a hazard fit.

    ``window`` overrides the quantile policy (``p_low`` defaults to 0, or
    0.025 when the data carry entry times; ``p_high`` to 0.975).  ``grid_size``
    (>= 2) defaults to the sample size.  ``beta`` is a sequence of supplied
    coefficients, used as given and kept as a private read-only array;
    ``None`` fits them by :func:`cox_fit` when the frame has covariates.
    """

    window: Window | None = None
    p_low: float | None = None
    p_high: float = 0.975
    grid_size: int | None = None
    tuning: TuningConfig = field(default_factory=TuningConfig)
    beta: object = None

    def __post_init__(self):
        if self.grid_size is not None and self.grid_size < 2:
            raise ValidationError(f"grid size must be >= 2, got {self.grid_size}")
        if self.beta is not None:
            _freeze(self, beta=_column(self.beta, "beta"))


@dataclass(frozen=True)
class HazardFit(_JsonRecord):
    """Composite result of a hazard fit, in original time units."""

    hazard: StepFunction  # nonnegative (clamped) hazard estimate
    raw_levels: np.ndarray  # unclamped levels, same breaks as `hazard`
    cumulative: BreslowCurve
    tuning: TuningResult
    beta: np.ndarray  # coefficients, supplied or fitted (length d, may be 0)
    cox: CoxFit | None  # the Cox fit that gave `beta`, if any
    increments: IncrementSample
    flsa: FusedLassoFit

    @property
    def window(self) -> Window:
        return self.increments.window

    @property
    def changepoints(self) -> np.ndarray:
        """Estimated change-point times (original units)."""
        return self.hazard.breaks

    def integral_gap(self) -> float:
        """Fitted integral over the window minus the Breslow increment."""
        levels = self.hazard.levels
        knots = np.concatenate(
            ([self.window.tau_min], self.hazard.breaks, [self.window.tau_max])
        )
        fitted = float(np.sum(levels * np.diff(knots)))
        breslow = self.cumulative.cumhaz(self.window.tau_max) - self.cumulative.cumhaz(
            self.window.tau_min
        )
        return fitted - float(breslow)

    def to_dict(self) -> dict:
        return {
            "hazard": self.hazard.to_dict(),
            "raw_levels": self.raw_levels.tolist(),
            "window": self.window.to_dict(),
            "beta": self.beta.tolist(),
            "beta_source": "supplied" if self.cox is None else "cox_fit",
            "lambda": self.tuning.lam,
            "lambda0": self.tuning.lambda0,
            "seed": self.tuning.seed,
            "grid_size": self.increments.m,
            "integral_gap": self.integral_gap(),
        }


def _resolve_beta(frame: SurvivalFrame, config: FitConfig) -> tuple[np.ndarray, CoxFit | None]:
    if config.beta is None:
        if frame.d == 0:
            return np.zeros(0), None
        fit = cox_fit(frame)
        if not fit.converged:
            logger.warning(
                "Cox fit did not converge after %d iterations (beta = %s): the partial "
                "likelihood may be monotone, e.g. separated covariates",
                fit.iterations,
                fit.beta.tolist(),
            )
        return fit.beta, fit
    if config.beta.size != frame.d:
        raise ValidationError(f"supplied beta has length {config.beta.size}, expected {frame.d}")
    return config.beta, None


def fit_hazard(frame: SurvivalFrame, config: FitConfig | None = None) -> HazardFit:
    """Fit a piecewise constant hazard to a survival frame.

    Negative fitted levels (possible after shrinkage of near-zero
    increments) are clamped to zero in the exported hazard; the raw values
    are kept in ``raw_levels``.
    """
    config = config or FitConfig()
    beta, cox = _resolve_beta(frame, config)
    curve = breslow_fit(frame, beta)

    if config.window is not None:
        window = config.window
    else:
        p_low = config.p_low
        if p_low is None:
            p_low = 0.025 if np.any(frame.entry > 0) else 0.0
        window = choose_window(frame, p_low, config.p_high)

    m = frame.n if config.grid_size is None else config.grid_size
    inc = build_increments(curve, window, m)
    tuning_result = bootstrap_lambda(inc.y, config.tuning)
    fused = flsa_solve(inc.y, tuning_result.lam)
    inc = replace(inc, y=fused.y)  # the fit keeps one increment vector
    _warn_on_empty_risk(frame, beta, inc)

    scaled = interpolate(fused, window)
    raw_levels = scaled.levels / inc.scale
    hazard = StepFunction(window, scaled.breaks, np.maximum(raw_levels, 0.0))
    fit = HazardFit(
        hazard=hazard,
        raw_levels=raw_levels,
        cumulative=curve,
        tuning=tuning_result,
        beta=beta,
        cox=cox,
        increments=inc,
        flsa=fused,
    )
    gap = fit.integral_gap()
    if not np.isfinite(gap):
        raise ValidationError("non-finite fitted hazard integral")
    logger.debug("fitted hazard integral differs from Breslow increment by %g", gap)
    return fit


def _warn_on_empty_risk(frame: SurvivalFrame, beta: np.ndarray, inc: IncrementSample) -> None:
    grid, m = inc.grid, inc.m
    weights = np.exp(frame.covariates @ beta) if frame.d else np.ones(frame.n)
    empty = np.flatnonzero(risk_set_sums(frame, weights, grid[1:]) <= 0)
    if empty.size:
        first = grid[empty[0] : empty[0] + 2]  # the cell (t_{j-1}, t_j]
        logger.warning(
            "empty risk set in %d of %d grid cells inside the estimation window, the first "
            "(%.10g, %.10g]: increments there are zero (0/0 := 0)", empty.size, m, *first
        )


def discretize_truth(truth: StepFunction, window: Window, m: int) -> np.ndarray:
    """True hazard level on each grid cell (t_{j-1}, t_j], j = 1..m.

    The grid is t_j = tau_min + j*scale/m, the grid of the increment
    responses, and the j-th value is the truth at the cell midpoint
    tau_min + (j - 1/2)*scale/m: for a truth whose breaks lie on the grid
    this is the constant level on the cell, which is what the response y_j
    estimates, and it does not depend on how t_j rounds.  Values are
    returned in rescaled units (multiplied by the window length) so they are
    directly comparable with the increment responses.
    """
    if m < 1:
        raise ValidationError(f"grid size must be >= 1, got {m}")
    scale = window.length
    mids = window.tau_min + (np.arange(1, m + 1) - 0.5) * (scale / m)
    return np.asarray(truth(mids), dtype=float) * scale
