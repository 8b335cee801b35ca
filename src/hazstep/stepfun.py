"""Step functions and estimation windows.

A :class:`StepFunction` is a right-continuous piecewise constant function
described by interior breakpoints and one level per piece.  It is the common
representation for true and estimated hazard rates.  Outside its domain the
function is extended by constant continuation of the nearest level, so that
integrals from time 0 and sampling are well defined whenever the breaks are
positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _check_number, _column, _freeze, _json_field, _JsonRecord
from .errors import ValidationError

__all__ = ["Window", "StepFunction"]


@dataclass(frozen=True)
class Window:
    """Estimation interval [tau_min, tau_max]."""

    tau_min: float
    tau_max: float

    def __post_init__(self):
        _check_number(self.tau_min, "tau_min")
        _check_number(self.tau_max, "tau_max")
        if not self.tau_min < self.tau_max:
            raise ValidationError(
                f"window requires tau_min < tau_max, got ({self.tau_min}, {self.tau_max})"
            )

    @property
    def length(self) -> float:
        return self.tau_max - self.tau_min

    def grid(self, m: int) -> np.ndarray:
        """Equidistant grid t_j = tau_min + j * (length / m), j < m, ending at tau_max itself."""
        return np.linspace(self.tau_min, self.tau_max, m + 1)

    def to_dict(self) -> dict:
        return {"tau_min": self.tau_min, "tau_max": self.tau_max}

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        return cls(*(_json_field(d, name) for name in ("tau_min", "tau_max")))


@dataclass(frozen=True)
class StepFunction(_JsonRecord):
    """Right-continuous piecewise constant function on a window.

    Parameters
    ----------
    domain : Window
        Interval the function was defined (or fitted) on.
    breaks : array-like
        Strictly increasing breakpoints, all strictly inside the domain.
    levels : array-like
        Piece values, one more than there are breaks. ``levels[k]`` is the
        value on ``[breaks[k-1], breaks[k])`` with the obvious boundary
        pieces; the value at the right domain end is ``levels[-1]``.
    """

    domain: Window
    breaks: np.ndarray = field(default_factory=lambda: np.empty(0))
    levels: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        breaks = _column(self.breaks, "breaks")
        levels = _column(self.levels, "levels")
        if levels.size != breaks.size + 1:
            raise ValidationError(
                f"need len(levels) == len(breaks) + 1, got {levels.size} and {breaks.size}"
            )
        if breaks.size and not np.all(np.diff(breaks) > 0):
            raise ValidationError("breaks must be strictly increasing")
        if np.any(breaks <= self.domain.tau_min) or np.any(breaks >= self.domain.tau_max):
            raise ValidationError("breaks must lie strictly inside the domain")
        _freeze(self, breaks=breaks, levels=levels)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Evaluate at ``t`` (scalar or array), with constant extension."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right")
        out = self.levels[idx]
        return out if out.ndim else float(out)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.levels >= 0))

    def _cumulative_knots(self):
        """Knots ``[0, *breaks]`` and the integral from 0 to each of them."""
        if self.breaks.size and self.breaks[0] <= 0:
            raise ValidationError("integrals from 0 need breaks > 0")
        knots = np.concatenate(([0.0], self.breaks))
        return knots, np.concatenate(([0.0], np.cumsum(self.levels[:-1] * np.diff(knots))))

    def cumulative(self, t):
        """Integral of the (extended) function from 0 to ``t`` (t >= 0)."""
        t = np.asarray(t, dtype=float)
        knots, cumvals = self._cumulative_knots()
        idx = np.maximum(np.searchsorted(knots, t, side="right") - 1, 0)
        out = cumvals[idx] + self.levels[idx] * (t - knots[idx])
        return out if out.ndim else float(out)

    def inverse_cumulative(self, target):
        """Solve ``int_0^t = target`` for t; +inf where the mass runs out."""
        target = np.asarray(target, dtype=float)
        if np.any(target < 0):
            raise ValidationError("inverse_cumulative requires nonnegative targets")
        knots, cumvals = self._cumulative_knots()
        idx = np.maximum(np.searchsorted(cumvals, target, side="left") - 1, 0)
        prev_knot, prev_cum, lvl = knots[idx], cumvals[idx], self.levels[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = prev_knot + (target - prev_cum) / lvl
        # flat pieces: a target equal to the accumulated mass maps to the knot
        out = np.where(lvl > 0, out, np.where(target <= prev_cum, prev_knot, np.inf))
        return out if out.ndim else float(out)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        """Pointwise sum on the union of breakpoints (extended values)."""
        lo = min(self.domain.tau_min, other.domain.tau_min)
        hi = max(self.domain.tau_max, other.domain.tau_max)
        breaks = np.union1d(self.breaks, other.breaks)
        # level on [b_k, b_{k+1}) equals the value at b_k (right continuity)
        probes = np.concatenate(([lo - 1.0], breaks))
        levels = self(probes) + other(probes)
        return StepFunction(Window(lo, hi), breaks, np.atleast_1d(levels))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "breaks": self.breaks.tolist(),
            "levels": self.levels.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepFunction":
        domain = _json_field(d, "domain", Window.from_dict)
        return cls(domain, _json_field(d, "breaks"), _json_field(d, "levels"))
