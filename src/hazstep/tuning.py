"""Data-driven penalty selection via the multiplier bootstrap.

The penalty is calibrated as a high quantile of the effective noise of the
lasso reformulation: a pilot fit with a moderate number of change points
supplies residuals, which are multiplied elementwise by standard normal
draws; the maximum statistic of each such bootstrap sample approximates the
effective-noise distribution, and the selected penalty is its empirical
q-quantile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .flsa import flsa_path, flsa_solve

__all__ = ["TuningConfig", "TuningResult", "pilot_lambda", "effective_noise", "bootstrap_lambda"]


@dataclass(frozen=True)
class TuningConfig:
    """Bootstrap tuning parameters.

    ``l_boot`` defaults to 1000 (application scale); simulation studies use
    100.  The random generator is numpy's PCG64 (``default_rng``) and normal
    variates come from its ziggurat ``standard_normal``, so results are
    bit-reproducible across platforms for a given seed.  The bootstrap
    consumes the normal draws in row-major blocks, so ``u_boot`` does not
    depend on the block size and its memory is O(m), not O(L*m).
    """

    q: float = 0.9
    k_max: int = 20
    l_boot: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValidationError(f"q must be in (0, 1), got {self.q}")
        if self.k_max < 0:
            raise ValidationError(f"k_max must be >= 0, got {self.k_max}")
        if self.l_boot < 1:
            raise ValidationError(f"l_boot must be >= 1, got {self.l_boot}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TuningResult:
    lambda0: float
    lam: float
    u_boot: np.ndarray
    residuals: np.ndarray
    seed: int

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "lambda": self.lam,
            "seed": self.seed,
            "u_boot": self.u_boot.tolist(),
            "residuals": self.residuals.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningResult":
        return cls(
            lambda0=float(d["lambda0"]),
            lam=float(d["lambda"]),
            u_boot=np.asarray(d["u_boot"], dtype=float),
            residuals=np.asarray(d["residuals"], dtype=float),
            seed=int(d["seed"]),
        )


def _count(y, lam) -> int:
    return flsa_solve(y, lam).changepoints.size


def pilot_lambda(y, k_max: int) -> float:
    """Smallest penalty whose fit has at most ``k_max`` change points.

    Taken from the solution-path breakpoints and double-checked against the
    exact fixed-penalty solver; the rare numerically inconclusive case is
    resolved by bisection on the solver's change-point count.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    y = np.asarray(y, dtype=float).reshape(-1)
    path = flsa_path(y)
    if path[0].changepoint_count <= k_max:
        return 0.0
    lo = 0.0
    for bp in path:
        if bp.changepoint_count <= k_max:
            candidate = bp.lam
            break
        lo = bp.lam
    else:  # pragma: no cover - the path always ends at count 0
        raise AssertionError("path did not reach k_max")
    eps = 1e-6
    if _count(y, candidate * (1 + eps)) <= k_max and _count(y, candidate * (1 - eps)) > k_max:
        return float(candidate)
    # float jitter between the path and the solver: bisect on the solver
    hi = candidate * (1 + eps)
    while _count(y, hi) > k_max:
        hi *= 2
    lo = max(lo, candidate * (1 - eps)) if _count(y, candidate * (1 - eps)) > k_max else lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _count(y, mid) <= k_max:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return float(hi)


def effective_noise(u) -> float:
    """Maximum statistic of the centered-lasso effective noise, in O(n).

    Equals 2 * max_{2<=j<=n} | -(1/n) sum_{i<j} u_i + ((j-1)/n^2) sum_i u_i |,
    which is identical to 2 * ||(X^c)' u^c||_inf / n for the centered
    cumulative-sum design.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    n = u.size
    if n < 2:
        raise ValidationError(f"need at least 2 observations, got {n}")
    s = np.cumsum(u)
    j = np.arange(2, n + 1)
    stats = -s[:-1] / n + (j - 1) * s[-1] / n**2
    return float(2.0 * np.max(np.abs(stats)))


# normal draws held at once by the bootstrap (2 MB of float64)
_BLOCK = 1 << 18


def _bootstrap_stats(residuals: np.ndarray, rng: np.random.Generator, l_boot: int) -> np.ndarray:
    """Effective-noise statistics of residuals * eps, one per bootstrap row.

    The ``l_boot`` normal rows eps are drawn in blocks of ``_BLOCK // m`` rows
    (at least one).  PCG64 fills ``standard_normal`` in C order, so the blocks
    consume exactly the stream of a single ``(l_boot, m)`` draw; every row goes
    through the same operations in the same order, so the statistics do not
    depend on the block height.
    """
    n = residuals.size
    rows = max(1, _BLOCK // n)
    j1 = np.arange(1, n)[None, :]  # j - 1 for j = 2..n
    u_boot = np.empty(l_boot)
    for lo in range(0, l_boot, rows):
        eps = rng.standard_normal((min(rows, l_boot - lo), n))
        w = residuals[None, :] * eps
        s = np.cumsum(w, axis=1)
        stats = -s[:, :-1] / n + j1 * s[:, -1:] / n**2
        u_boot[lo : lo + eps.shape[0]] = 2.0 * np.max(np.abs(stats), axis=1)
    return u_boot


def bootstrap_lambda(y, config: TuningConfig) -> TuningResult:
    """Multiplier-bootstrap selection of the fused-lasso penalty.

    Residuals from the pilot fit are multiplied by i.i.d. standard normal
    vectors; the selected penalty is the ceil(q*L)-th order statistic of the
    resulting effective-noise sample.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 2:
        raise ValidationError(f"need at least 2 observations, got {y.size}")
    lam0 = pilot_lambda(y, config.k_max)
    residuals = y - flsa_solve(y, lam0).alpha
    u_boot = _bootstrap_stats(residuals, np.random.default_rng(config.seed), config.l_boot)
    order_stat = max(int(np.ceil(config.q * config.l_boot)), 1) - 1
    lam = float(np.sort(u_boot)[order_stat])
    return TuningResult(
        lambda0=float(lam0),
        lam=lam,
        u_boot=u_boot,
        residuals=residuals,
        seed=config.seed,
    )
