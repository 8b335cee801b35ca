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

from .data import MultiStateFrame, SurvivalFrame, split_transitions
from .data import _column, _floats, _freeze, _JsonRecord, _read_columns, _write_columns
from .errors import ValidationError
from .estimators import breslow_fit
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
# the IllnessDeathModel fields, in TRANSITIONS order
_HAZARDS = tuple(f"a{src}{dst}" for src, dst in TRANSITIONS)


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
        for name in _HAZARDS:
            if not getattr(self, name).is_nonnegative():
                raise ValidationError(f"hazard {name} has negative levels")

    def to_dict(self) -> dict:
        return {name: getattr(self, name).to_dict() for name in _HAZARDS}

    @classmethod
    def from_dict(cls, d: dict) -> "IllnessDeathModel":
        return cls(*(StepFunction.from_dict(d[name]) for name in _HAZARDS))


@dataclass(frozen=True)
class SurvivalCurve(_JsonRecord):
    grid: np.ndarray
    values: np.ndarray

    def to_dict(self) -> dict:
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}

    def __post_init__(self):
        grid = _column(self.grid, "grid")
        values = _column(self.values, "values")
        if grid.size != values.size:
            raise ValidationError("grid and values differ in length")
        if grid.size and not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
            raise ValidationError("survival values must lie in [0, 1]")
        if np.any(np.diff(values) > 1e-12):
            raise ValidationError("survival values must be nonincreasing")
        _freeze(self, grid=grid, values=values)


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


def state_probabilities(model: IllnessDeathModel, grid) -> tuple[np.ndarray, np.ndarray]:
    """Occupation probabilities P00(0, t) and P01(0, t) on a time grid.

    Solved exactly on the common refinement of all hazard breakpoints:
    within a segment all intensities are constant, so P00 decays
    exponentially and P01 picks up a piecewise-exponential convolution term.
    """
    grid = _column(grid, "evaluation grid")
    if grid.size and np.any(np.diff(grid) <= 0):
        raise ValidationError("evaluation grid must be strictly increasing")
    if grid.size and grid[0] < 0:
        raise ValidationError("evaluation times must be >= 0")
    knots = np.unique(
        np.concatenate((model.a01.breaks, model.a02.breaks, model.a12.breaks, grid, [0.0]))
    )
    knots = knots[knots >= 0]
    # segment k is [knots[k], knots[k+1]), with the levels at its left end
    h01, h02, h12 = model.a01(knots[:-1]), model.a02(knots[:-1]), model.a12(knots[:-1])
    delta = np.diff(knots)
    exit0 = h01 + h02
    rate = exit0 - h12
    decay12 = np.exp(-h12 * delta)
    p00 = np.cumprod(np.concatenate(([1.0], np.exp(-exit0 * delta))))
    # phi = int_0^delta exp(-rate * v) dv, with its removable singularity at rate 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.where(np.abs(rate) < 1e-10, delta, -np.expm1(-rate * delta) / rate)
        gain01 = h01 * p00[:-1] * decay12 * phi
        # where phi overflows (-rate * delta > ~709), decay12 * phi by its closed form
        closed = h01 * p00[:-1] * (np.exp(-exit0 * delta) - decay12) / (h12 - exit0)
    gain01 = np.where(np.isfinite(gain01), gain01, closed)
    p01 = [0.0]
    for decay, gain in zip(decay12.tolist(), gain01.tolist()):
        p01.append(p01[-1] * decay + gain)
    at = np.searchsorted(knots, grid)
    return p00[at], np.array(p01)[at]


def survival_curves(model: IllnessDeathModel, grid) -> tuple[SurvivalCurve, SurvivalCurve]:
    """Survival functions of the state-0 sojourn and of overall absorption.

    The first curve is P00(0, t); the second is P00(0, t) + P01(0, t), the
    probability of not yet being absorbed in state 2.  Both start at t = 0:
    a grid that starts later gets 0 prepended.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    # a 0 before a positive start keeps an invalid grid invalid, and
    # state_probabilities rejects it with every point in place
    if grid.size == 0 or grid[0] > 0:
        grid = np.concatenate(([0.0], grid))
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
    """Product-limit estimator: the product of 1 - dA over the Nelson-Aalen jumps dA."""
    if frame.n == 0:
        raise ValidationError("empty frame")
    curve = breslow_fit(frame, np.zeros(frame.d))
    surv = np.cumprod(1.0 - curve.jump_sizes)
    return SurvivalCurve(np.concatenate(([0.0], curve.jump_times)), np.concatenate(([1.0], surv)))


def km_to_csv(curve: SurvivalCurve, path) -> None:
    _write_columns(path, ["t", "survival"], [curve.grid, curve.values])
