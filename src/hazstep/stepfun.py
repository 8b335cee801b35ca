"""Step functions and estimation windows.

A :class:`StepFunction` is a right-continuous piecewise constant function
described by interior breakpoints and one level per piece.  It is the common
representation for true and estimated hazard rates.  Outside its domain the
function is extended by constant continuation of the nearest level, so that
integrals from time 0 and sampling are always well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _JsonRecord
from .errors import ValidationError

__all__ = ["Window", "StepFunction"]


@dataclass(frozen=True)
class Window:
    """Estimation interval [tau_min, tau_max]."""

    tau_min: float
    tau_max: float

    def __post_init__(self):
        if not np.isfinite(self.tau_min) or not np.isfinite(self.tau_max):
            raise ValidationError("window bounds must be finite")
        if not self.tau_min < self.tau_max:
            raise ValidationError(
                f"window requires tau_min < tau_max, got ({self.tau_min}, {self.tau_max})"
            )

    @property
    def length(self) -> float:
        return self.tau_max - self.tau_min

    def to_dict(self) -> dict:
        return {"tau_min": self.tau_min, "tau_max": self.tau_max}

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        return cls(float(d["tau_min"]), float(d["tau_max"]))


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
        breaks = np.asarray(self.breaks, dtype=float).reshape(-1)
        levels = np.asarray(self.levels, dtype=float).reshape(-1)
        if levels.size != breaks.size + 1:
            raise ValidationError(
                f"need len(levels) == len(breaks) + 1, got {levels.size} and {breaks.size}"
            )
        if breaks.size and not np.all(np.diff(breaks) > 0):
            raise ValidationError("breaks must be strictly increasing")
        if breaks.size and (
            breaks[0] <= self.domain.tau_min or breaks[-1] >= self.domain.tau_max
        ):
            raise ValidationError("breaks must lie strictly inside the domain")
        if not np.all(np.isfinite(levels)):
            raise ValidationError("levels must be finite")
        breaks.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "levels", levels)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Evaluate at ``t`` (scalar or array), with constant extension."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right")
        out = self.levels[idx]
        return out if out.ndim else float(out)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.levels >= 0))

    def integral_knots(self):
        """Knots and cumulative integral values of ``t -> int_0^t``.

        Returns (knots, cumvals) where cumvals[i] is the integral from 0 to
        knots[i].  The function is linearly extended on both sides (with
        slope levels[0] before the first knot and levels[-1] after the last).
        """
        if self.breaks.size == 0:
            return np.zeros(1), np.zeros(1)
        knots = self.breaks
        seg = self.levels[:-1] * np.diff(np.concatenate(([0.0], knots)))
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        # integral at knots[i] = levels[0]*knots[0] + ... ; cum has len K+1,
        # cum[i] corresponds to knots[i-1]; re-index to knots directly
        return knots, cum[1:]

    def cumulative(self, t):
        """Integral of the (extended) function from 0 to ``t`` (t >= 0)."""
        t = np.asarray(t, dtype=float)
        if self.breaks.size == 0:
            out = self.levels[0] * t
            return out if out.ndim else float(out)
        knots, cumvals = self.integral_knots()
        idx = np.searchsorted(knots, t, side="right")
        prev_knot = np.where(idx > 0, knots[np.minimum(idx, knots.size) - 1], 0.0)
        prev_cum = np.where(idx > 0, cumvals[np.minimum(idx, knots.size) - 1], 0.0)
        out = prev_cum + self.levels[idx] * (t - prev_knot)
        return out if out.ndim else float(out)

    def inverse_cumulative(self, target):
        """Solve ``int_0^t = target`` for t; +inf where the mass runs out."""
        target = np.asarray(target, dtype=float)
        if np.any(target < 0):
            raise ValidationError("inverse_cumulative requires nonnegative targets")
        if self.breaks.size == 0:
            lvl = self.levels[0]
            if lvl <= 0:
                out = np.where(target == 0, 0.0, np.inf)
                return out if out.ndim else float(out)
            out = target / lvl
            return out if out.ndim else float(out)
        knots, cumvals = self.integral_knots()
        idx = np.searchsorted(cumvals, target, side="left")
        prev_knot = np.where(idx > 0, knots[np.minimum(idx, knots.size) - 1], 0.0)
        prev_cum = np.where(idx > 0, cumvals[np.minimum(idx, knots.size) - 1], 0.0)
        lvl = self.levels[np.minimum(idx, self.levels.size - 1)]
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
        return cls(Window.from_dict(d["domain"]), d["breaks"], d["levels"])

    def corner_points(self) -> np.ndarray:
        """(t, level) rows tracing the exact steps, two rows per break."""
        ts = [self.domain.tau_min]
        vs = [self.levels[0]]
        for b, lv_next in zip(self.breaks, self.levels[1:]):
            ts += [b, b]
            vs += [vs[-1], lv_next]
        ts.append(self.domain.tau_max)
        vs.append(self.levels[-1])
        return np.column_stack((ts, vs))

    @classmethod
    def from_corner_points(cls, corners) -> "StepFunction":
        """Rebuild a step function from its corner-point rows."""
        corners = np.asarray(corners, dtype=float)
        ts, vs = corners[:, 0], corners[:, 1]
        domain = Window(float(ts[0]), float(ts[-1]))
        breaks = [float(t) for a, t in zip(ts[:-1], ts[1:]) if t == a]
        levels = [float(vs[0])] + [float(v) for t, a, v in zip(ts[1:], ts[:-1], vs[1:]) if t == a]
        return cls(domain, np.array(breaks), np.array(levels))
