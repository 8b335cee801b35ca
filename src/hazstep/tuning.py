"""Data-driven penalty selection via the multiplier bootstrap.

The penalty is calibrated as a high quantile of the effective noise of the
lasso reformulation: a pilot fit with a moderate number of change points
supplies residuals, which are multiplied elementwise by standard normal
draws; the maximum statistic of each such bootstrap sample approximates the
effective-noise distribution, and the selected penalty is its empirical
q-quantile.  The normals come from one seeded stream.  From m*L = 2**16 on, a helper
thread on a spare CPU draws them, from the end of a fit's Cox step on, into two reused
blocks of 2**16 values, and the caller reduces them 4096 statistic columns at a time;
smaller bootstraps are drawn by the caller.  Every statistic is as if drawn serially.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import _check_integer, _check_number, _freeze, _JsonRecord
from .errors import ValidationError
from .estimators import empirical_quantile
from .flsa import flsa_path, flsa_solve

__all__ = ["TuningConfig", "TuningResult", "pilot_lambda", "bootstrap_lambda"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TuningConfig:
    """Bootstrap tuning parameters.

    ``l_boot`` defaults to 1000 (application scale); simulation studies use
    100.  The random generator is numpy's PCG64 (``default_rng``) and normal
    variates come from its ziggurat ``standard_normal``, so results are
    bit-reproducible across platforms for a given seed.  From m*L = ``_DRAW_AHEAD`` on,
    a helper on a spare CPU draws the row-major blocks of normals, from the end of a
    fit's Cox step on, and the caller reduces them; else the caller draws them too.
    ``u_boot`` is the same bits either way.  Memory: two blocks of ``_BLOCK`` values
    (one row for larger m), a 4096-column statistic scratch and O(m + L), not O(L*m).
    """

    q: float = 0.9
    k_max: int = 20
    l_boot: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_number(self.q, "q")
        if not 0 < self.q < 1:
            raise ValidationError(f"q must be in (0, 1), got {self.q}")
        _check_integer(self.k_max, "k_max", 0)
        _check_integer(self.l_boot, "l_boot", 1)
        _check_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class TuningResult(_JsonRecord):
    """Penalties, seed and bootstrap statistics.  ``residuals``, y minus the
    pilot fit, are not serialised: the fit's y and ``lambda0`` give them."""

    lambda0: float
    lam: float
    u_boot: np.ndarray
    residuals: np.ndarray
    seed: int

    def __post_init__(self):
        _freeze(self, u_boot=self.u_boot, residuals=self.residuals)

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "lambda": self.lam,
            "seed": self.seed,
            "u_boot": self.u_boot,
        }


def pilot_lambda(y, k_max: int) -> float:
    """Smallest penalty whose fit has at most ``k_max`` change points.

    Read off the top-down split path, which fixes the exact fit at every
    penalty: the lambda of the first breakpoint whose count is at most
    ``k_max``.  The path is cut below the first breakpoint over ``k_max``, so
    only the blocks that can hold its first k_max + 2 splits are split, on the
    tree the solves of y reuse; when no count exceeds ``k_max`` it starts at
    lambda = 0 and the pilot is 0.
    """
    _check_integer(k_max, "k_max", 0)
    return next(float(bp.lam) for bp in flsa_path(y, k_max) if bp.changepoint_count <= k_max)


def _noise_max(u: np.ndarray, stats: np.ndarray, ramp: np.ndarray, out: np.ndarray) -> None:
    """Write 2 * max_{2<=j<=n} |(-s_{j-1})/n + ((j-1) s_n)/n^2| of each row of u to out.

    s are the row's partial sums; this is the effective noise
    2 * ||(X^c)' u^c||_inf / n of the centered cumulative-sum design.  u (k, n) is
    overwritten, stats (k, w) takes the terms w columns at a time; ramp is
    ``np.arange(1.0, n)``.  Each row takes the same operations whatever k and w are.
    """
    n = u.shape[1]
    np.cumsum(u, axis=1, out=u)
    out.fill(0.0)
    for a in range(0, n - 1, stats.shape[1]):
        t = stats[:, : n - 1 - a]
        s = u[:, a : a + t.shape[1]]  # partial sums that are spent once t holds the ramp term
        np.multiply(ramp[a : a + t.shape[1]], u[:, -1:], out=t)
        np.divide(t, n**2, out=t)
        np.negative(s, out=s)
        np.divide(s, n, out=s)
        np.add(s, t, out=t)
        np.abs(t, out=t)
        np.maximum(out, t.max(axis=1), out=out)
    np.multiply(out, 2.0, out=out)


# normal draws held in one block (512 KB of float64), statistic columns formed at
# once, and the least work m * L whose draw runs ahead on a spare CPU
_BLOCK, _SCRATCH, _DRAW_AHEAD = 1 << 16, 1 << 12, 1 << 16


def _set_spare_cpus(count: int) -> None:
    """Give this process ``count`` spare-CPU tokens (a process-pool initializer gives 0)."""
    global _SPARE_CPUS
    _SPARE_CPUS = threading.Semaphore(count)


# A thread that works beside its caller runs only while it holds a token, so no
# more threads are busy than CPUs.  There is none where a thread's CPU is unknown.
_set_spare_cpus(len(os.sched_getaffinity(0)) - 1 if os.path.exists("/proc/thread-self/stat") else 0)


def _cpu() -> int:
    """The CPU the calling thread runs on: field 39 of its stat line."""
    with open("/proc/thread-self/stat", "rb") as f:
        return int(f.read().rsplit(b")", 1)[1].split()[36])


@contextmanager
def _spare_cpus(wanted: bool):
    """Yield the usable CPUs other than the caller's while holding a spare-CPU token,
    or an empty set, with no token, when not ``wanted`` or when none is free."""
    budget = _SPARE_CPUS
    held = wanted and budget.acquire(blocking=False)
    try:
        yield os.sched_getaffinity(0) - {_cpu()} if held else set()
    finally:
        if held:
            budget.release()


@contextmanager
def _normal_blocks(seed, l_boot: int, m: int):
    """Yield an iterator over ``default_rng(seed).standard_normal((l_boot, m))`` in blocks of
    ``_BLOCK // m`` rows (at least one), which consume that draw's stream in C order.  From
    m * l_boot = ``_DRAW_AHEAD`` on, given a spare CPU, a helper pinned off the caller's CPU
    draws blocks 0 and 1 into two buffers on entry, and block k + 2 into block k's buffer
    once the caller asks for block k + 1; else the caller draws each block into one buffer.
    """
    rng, rows = np.random.default_rng(seed), min(l_boot, max(1, _BLOCK // max(m, 1)))
    heights = [min(rows, l_boot - lo) for lo in range(0, l_boot, rows)]
    with _spare_cpus(m * l_boot >= _DRAW_AHEAD) as cpus, ThreadPoolExecutor(
        1, initializer=lambda: os.sched_setaffinity(0, cpus)
    ) as pool:
        buffers = [np.empty((rows, m)) for _ in range(1 + bool(cpus))]

        def draw(k):
            return rng.standard_normal(out=buffers[k % len(buffers)][: heights[k]])

        jobs = [pool.submit(draw, k) for k in range(len(heights))[:2]] if cpus else []

        def blocks():
            for k in range(len(heights)):
                yield jobs.pop(0).result() if cpus else draw(k)
                if cpus and k + 2 < len(heights):  # block k is reduced, so its buffer is free
                    jobs.append(pool.submit(draw, k + 2))

        yield blocks()


def _bootstrap_stats(residuals: np.ndarray, blocks, l_boot: int) -> np.ndarray:
    """Effective-noise statistics of residuals * eps for the ``l_boot`` rows eps of the
    blocks of :func:`_normal_blocks`, drawn by a helper from m * l_boot = ``_DRAW_AHEAD``
    on (in a fit, from the end of its Cox step on) and else by the caller.  The caller
    reduces each block in place, ``_SCRATCH`` statistic columns at a time; :func:`_noise_max`
    treats every row alike, so the statistics depend on neither the block height nor the
    thread that drew it.  Memory: two blocks (one when the caller draws) plus O(m + l_boot)."""
    n = residuals.size
    ramp, u_boot, lo = np.arange(1.0, n), np.empty(l_boot), 0
    for block in blocks:
        if lo == 0:  # the first block is the tallest
            stats = np.empty((len(block), min(n - 1, _SCRATCH)))
        np.multiply(block, residuals, out=block)
        _noise_max(block, stats[: len(block)], ramp, u_boot[lo : lo + len(block)])
        lo += len(block)
    return u_boot


def bootstrap_lambda(y, config: TuningConfig, *, normals=None) -> TuningResult:
    """Multiplier-bootstrap selection of the fused-lasso penalty.

    Residuals of the exact fit at the pilot penalty, which is read off the
    solution path (:func:`pilot_lambda`), are multiplied by i.i.d. standard
    normal vectors; the selected penalty is the ceil(q*L)-th order statistic
    of the resulting effective-noise sample.  The pilot fit, like a later
    solve of y at the selected penalty, is read off the path's split tree.

    The warning that the path and the solver "disagree" fires when the pilot
    fit has more than ``k_max`` change points: the path's slope-history count
    lags the jumps the solver evaluates, as on some inputs whose magnitudes
    span hundreds of decades.  ``normals`` are the entered ``_normal_blocks`` of
    the seed, ``l_boot`` and y.size, from a caller that starts the draw earlier
    (``fit_hazard``, after its Cox step); without them the draw starts here.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 2:
        raise ValidationError(f"need at least 2 observations, got {y.size}")
    if normals is None:  # draw while the pilot path runs
        with _normal_blocks(config.seed, config.l_boot, y.size) as normals:
            return bootstrap_lambda(y, config, normals=normals)
    lam0 = pilot_lambda(y, config.k_max)
    pilot = flsa_solve(y, lam0)
    if pilot.changepoints.size > config.k_max:
        logger.warning(
            "pilot fit at lambda0 = %r has %d change points, more than k_max = %d: the solution "
            "path and the exact solver disagree", lam0, pilot.changepoints.size, config.k_max
        )
    residuals = y - pilot.alpha
    u_boot = _bootstrap_stats(residuals, normals, config.l_boot)
    return TuningResult(
        lambda0=float(lam0),
        lam=empirical_quantile(u_boot, config.q),
        u_boot=u_boot,
        residuals=residuals,
        seed=config.seed,
    )
