"""Data-driven penalty selection via the multiplier bootstrap.

The penalty is calibrated as a high quantile of the effective noise of the
lasso reformulation: a pilot fit with a moderate number of change points
supplies residuals, which are multiplied elementwise by standard normal
draws; the maximum statistic of each such bootstrap sample approximates the
effective-noise distribution, and the selected penalty is its empirical
q-quantile.  The draws come from one seeded stream in the calling thread; a
helper thread on a spare CPU may reduce them, leaving every statistic as it was.
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
    bit-reproducible across platforms for a given seed.  The calling thread
    draws the normals in row-major blocks, which a helper thread on a spare CPU
    may reduce, so ``u_boot`` depends on neither the block size nor the threads.
    Its memory is two reused blocks of about ``_BLOCK`` values (one row each
    when m is larger) plus O(m + L), not O(L*m).
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


# normal draws held at once by the bootstrap (512 KB of float64), statistic
# columns a pipelined bootstrap forms at once, and the fewest blocks it pipelines
_BLOCK, _SCRATCH, _PIPELINE_BLOCKS = 1 << 16, 1 << 12, 8


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


def _bootstrap_stats(residuals: np.ndarray, rng: np.random.Generator, l_boot: int) -> np.ndarray:
    """Effective-noise statistics of residuals * eps, one per bootstrap row.

    The caller draws the ``l_boot`` normal rows eps in blocks of ``_BLOCK // m`` rows
    (at least one); PCG64 fills ``standard_normal`` in C order, so the blocks consume
    the stream of one ``(l_boot, m)`` draw.  From ``_PIPELINE_BLOCKS`` blocks on, given
    a spare CPU, a helper thread pinned off the caller's CPU reduces block k while the
    caller draws block k + 1 into a second buffer; otherwise the caller reduces each
    block.  :func:`_noise_max` treats every row alike, so the statistics depend on
    neither the block height nor the path.  Memory is two reused blocks (the
    statistic's is small when pipelined) plus O(m + l_boot).
    """
    n = residuals.size
    rows = min(l_boot, max(1, _BLOCK // n))
    starts = range(0, l_boot, rows)
    ramp, u_boot, jobs = np.arange(1.0, n), np.empty(l_boot), []

    def reduce(block, lo):
        np.multiply(block, residuals, out=block)
        _noise_max(block, stats[: len(block)], ramp, u_boot[lo : lo + len(block)])

    with _spare_cpus(len(starts) >= _PIPELINE_BLOCKS) as cpus, ThreadPoolExecutor(
        1, initializer=lambda: os.sched_setaffinity(0, cpus)
    ) as pool:
        stats = np.empty((rows, min(n - 1, _SCRATCH) if cpus else n - 1))
        blocks = [np.empty((rows, n)) for _ in range(1 + bool(cpus))]
        for k, lo in enumerate(starts):
            if len(jobs) == 2:  # block k - 2 is reduced, so its buffer is free
                jobs.pop(0).result()
            block = blocks[k % len(blocks)][: min(rows, l_boot - lo)]
            rng.standard_normal(out=block)
            if cpus:
                jobs.append(pool.submit(reduce, block, lo))
            else:
                reduce(block, lo)
        for job in jobs:
            job.result()
    return u_boot


def bootstrap_lambda(y, config: TuningConfig) -> TuningResult:
    """Multiplier-bootstrap selection of the fused-lasso penalty.

    Residuals of the exact fit at the pilot penalty, which is read off the
    solution path (:func:`pilot_lambda`), are multiplied by i.i.d. standard
    normal vectors; the selected penalty is the ceil(q*L)-th order statistic
    of the resulting effective-noise sample.  The pilot fit, like a later
    solve of y at the selected penalty, is read off the path's split tree.

    The warning that the path and the solver "disagree" fires when the pilot
    fit has more than ``k_max`` change points: the path's slope-history count
    lags the jumps the solver evaluates, as on some inputs whose magnitudes
    span hundreds of decades.
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
