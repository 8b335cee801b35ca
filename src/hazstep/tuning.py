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
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimators import empirical_quantile
from .flsa import flsa_path, flsa_solve

__all__ = ["TuningConfig", "TuningResult", "pilot_lambda", "effective_noise", "bootstrap_lambda"]

logger = logging.getLogger(__name__)


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


def pilot_lambda(y, k_max: int) -> float:
    """Smallest penalty whose fit has at most ``k_max`` change points.

    Read off the solution path, which fixes the exact fit at every penalty
    (Hoefling 2010): the lambda of the first breakpoint whose count is at
    most ``k_max``.  The path starts at lambda = 0 and ends at count 0.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    return next(float(bp.lam) for bp in flsa_path(y) if bp.changepoint_count <= k_max)


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
    return float(_noise_max(np.cumsum(u)))


def _noise_max(s: np.ndarray) -> np.ndarray:
    """2 * max_{2<=j<=n} |-s_{j-1}/n + (j-1) s_n/n^2| of each row of partial sums s."""
    n = s.shape[-1]
    stats = -s[..., :-1] / n + np.arange(1, n) * s[..., -1:] / n**2
    return 2.0 * np.max(np.abs(stats), axis=-1)


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
    u_boot = np.empty(l_boot)
    for lo in range(0, l_boot, rows):
        eps = rng.standard_normal((min(rows, l_boot - lo), n))
        # s stays bound into the next block, so the allocator reuses its pages
        # instead of unmapping them (~10x fewer page faults at m = 2e4, L = 1000)
        s = np.cumsum(residuals[None, :] * eps, axis=1)
        u_boot[lo : lo + eps.shape[0]] = _noise_max(s)
    return u_boot


def bootstrap_lambda(y, config: TuningConfig) -> TuningResult:
    """Multiplier-bootstrap selection of the fused-lasso penalty.

    Residuals of the exact fit at the pilot penalty, which is read off the
    solution path (:func:`pilot_lambda`), are multiplied by i.i.d. standard
    normal vectors; the selected penalty is the ceil(q*L)-th order statistic
    of the resulting effective-noise sample.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 2:
        raise ValidationError(f"need at least 2 observations, got {y.size}")
    lam0 = pilot_lambda(y, config.k_max)
    pilot = flsa_solve(y, lam0)
    if pilot.changepoints.size > config.k_max:
        logger.warning(
            "pilot fit at lambda0 = %r has %d change points, more than k_max = %d: the solution "
            "path and the exact solver disagree", lam0, pilot.changepoints.size, config.k_max
        )
    residuals = y - pilot.alpha
    u_boot = _bootstrap_stats(residuals, np.random.default_rng(config.seed), config.l_boot)
    return TuningResult(
        lambda0=float(lam0),
        lam=empirical_quantile(u_boot, config.q),
        u_boot=u_boot,
        residuals=residuals,
        seed=config.seed,
    )
