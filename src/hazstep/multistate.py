"""Illness-death model: per-transition fits and closed-form survival curves.

The three-state model without recovery (initial 0, intermediate 1, absorbing
2) is fitted one transition at a time by reducing trajectories to survival
frames; the 1->2 frame uses the state-1 entry time as left truncation.
Occupation probabilities follow the forward differential equations, which
are solved exactly segment by segment since all intensities are piecewise
constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultiStateFrame, SurvivalFrame, risk_set_sums, split_transitions
from .data import _floats, _JsonRecord, _read_columns, _write_columns
from .errors import ValidationError
from .pipeline import FitConfig, HazardFit, fit_hazard
from .stepfun import StepFunction

__all__ = [
    "IllnessDeathModel",
    "SurvivalCurve",
    "TRANSITIONS",
    "fit_illness_death_detailed",
    "survival_curves",
    "state_probabilities",
    "kaplan_meier",
    "curves_to_csv",
    "curves_from_csv",
    "km_to_csv",
]

TRANSITIONS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class IllnessDeathModel(_JsonRecord):
    """Transition hazards of the illness-death model without recovery.

    Each hazard is a step function on its own fitting window, extended by
    constant continuation outside it (the step-function evaluation already
    does that), so the model is defined on all of [0, inf).
    """

    a01: StepFunction
    a02: StepFunction
    a12: StepFunction

    def __post_init__(self):
        for name in ("a01", "a02", "a12"):
            if not getattr(self, name).is_nonnegative():
                raise ValidationError(f"hazard {name} has negative levels")

    def to_dict(self) -> dict:
        return {"a01": self.a01.to_dict(), "a02": self.a02.to_dict(), "a12": self.a12.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "IllnessDeathModel":
        return cls(
            a01=StepFunction.from_dict(d["a01"]),
            a02=StepFunction.from_dict(d["a02"]),
            a12=StepFunction.from_dict(d["a12"]),
        )


@dataclass(frozen=True)
class SurvivalCurve(_JsonRecord):
    grid: np.ndarray
    values: np.ndarray

    def to_dict(self) -> dict:
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if grid.size != values.size:
            raise ValidationError("grid and values differ in length")
        if grid.size and not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
            raise ValidationError("survival values must lie in [0, 1]")
        if np.any(np.diff(values) > 1e-12):
            raise ValidationError("survival values must be nonincreasing")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def fit_illness_death_detailed(frame: MultiStateFrame, config=None) -> dict[tuple, HazardFit]:
    """Per-transition hazard fits, keyed by transition tuple.

    ``config`` may be a single :class:`FitConfig` applied to every
    transition or a mapping keyed by transition tuples.  Each fit is
    ``fit_hazard(split_transitions(frame, tr), cfg)``: a frame keeps the
    entry times of its sojourns, so the 1->2 frame, and a 0->x frame whose
    subjects enter state 0 after time 0, are left-truncated and their
    default windows start at the 0.025 quantile of their uncensored times.
    """
    out = {}
    for tr in TRANSITIONS:
        sub = split_transitions(frame, tr)
        if not np.any(sub.status == 1):
            raise ValidationError(f"transition {tr}: zero events")
        if isinstance(config, dict):
            cfg = config.get(tr, FitConfig())
        else:
            cfg = config or FitConfig()
        out[tr] = fit_hazard(sub, cfg)
    return out


def _phi(delta: float, rate_diff: float) -> float:
    """int_0^delta exp(-rate_diff * v) dv with the removable singularity."""
    if abs(rate_diff) < 1e-10:
        return delta
    return -np.expm1(-rate_diff * delta) / rate_diff


def state_probabilities(model: IllnessDeathModel, grid) -> tuple[np.ndarray, np.ndarray]:
    """Occupation probabilities P00(0, t) and P01(0, t) on a time grid.

    Solved exactly on the common refinement of all hazard breakpoints:
    within a segment all intensities are constant, so P00 decays
    exponentially and P01 picks up a piecewise-exponential convolution term.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size and np.any(np.diff(grid) <= 0):
        raise ValidationError("evaluation grid must be strictly increasing")
    if grid.size and grid[0] < 0:
        raise ValidationError("evaluation times must be >= 0")

    knots = np.unique(
        np.concatenate((model.a01.breaks, model.a02.breaks, model.a12.breaks, grid, [0.0]))
    )
    knots = knots[knots >= 0]
    p00 = {0.0: 1.0}
    p01 = {0.0: 0.0}
    cur00, cur01 = 1.0, 0.0
    prev = 0.0
    for t in knots[knots > 0]:
        h01 = float(model.a01(prev))
        h02 = float(model.a02(prev))
        h12 = float(model.a12(prev))
        delta = t - prev
        exit0 = h01 + h02
        decay12 = np.exp(-h12 * delta)
        new01 = cur01 * decay12 + h01 * cur00 * decay12 * _phi(delta, exit0 - h12)
        new00 = cur00 * np.exp(-exit0 * delta)
        cur00, cur01, prev = new00, new01, t
        p00[t] = cur00
        p01[t] = cur01
    out00 = np.array([p00[t] for t in grid])
    out01 = np.array([p01[t] for t in grid])
    return out00, out01


def survival_curves(model: IllnessDeathModel, grid) -> tuple[SurvivalCurve, SurvivalCurve]:
    """Survival functions of the state-0 sojourn and of overall absorption.

    The first curve is P00(0, t); the second is P00(0, t) + P01(0, t), the
    probability of not yet being absorbed in state 2.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if not np.all(np.isfinite(grid)):
        raise ValidationError("evaluation grid must be finite")
    if grid.size == 0 or grid[0] != 0.0:
        grid = np.concatenate(([0.0], grid[grid > 0]))
    p00, p01 = state_probabilities(model, grid)
    return SurvivalCurve(grid, p00), SurvivalCurve(grid, p00 + p01)


def curves_to_csv(pfs: SurvivalCurve, os_: SurvivalCurve, path) -> None:
    if pfs.grid.size != os_.grid.size or np.any(pfs.grid != os_.grid):
        raise ValidationError("curves must share a grid")
    _write_columns(path, ["t", "S_PFS", "S_OS"], [pfs.grid, pfs.values, os_.values])


def curves_from_csv(path) -> tuple[SurvivalCurve, SurvivalCurve]:
    grid, pfs, os_ = _read_columns(path, dict.fromkeys(("t", "S_PFS", "S_OS"), _floats)).values()
    return SurvivalCurve(grid, pfs), SurvivalCurve(grid, os_)


def kaplan_meier(frame: SurvivalFrame) -> SurvivalCurve:
    """Product-limit survival estimator with truncation-adjusted risk sets."""
    if frame.n == 0:
        raise ValidationError("empty frame")
    ev_times, d_k = frame._event_ties
    if ev_times.size == 0:
        return SurvivalCurve(np.array([0.0]), np.array([1.0]))
    n_at_risk = risk_set_sums(frame, np.ones(frame.n), ev_times)
    factors = 1.0 - d_k / n_at_risk
    surv = np.cumprod(factors)
    return SurvivalCurve(
        np.concatenate(([0.0], ev_times)), np.concatenate(([1.0], surv))
    )


def km_to_csv(curve: SurvivalCurve, path) -> None:
    _write_columns(path, ["t", "survival"], [curve.grid, curve.values])
