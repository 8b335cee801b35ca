"""Data-driven penalty selection via the multiplier bootstrap.

The penalty is calibrated as a high quantile of the effective noise of the
lasso reformulation: a pilot fit with a moderate number of change points
supplies residuals, which are multiplied elementwise by standard normal
draws; the maximum statistic of each such bootstrap sample approximates the
effective-noise distribution, and the selected penalty is its empirical
q-quantile.

Bootstrap rows 64g ... 64g + 63 are drawn in C order from their own stream
``default_rng(SeedSequence(seed, spawn_key=(g,)))``, so ``u_boot`` depends on the seed,
L and the residuals alone: the same bits whatever the threads or the block size.  From
m*L = 2**16 on, when L > 64 and the process's spare-CPU token is free, one long-lived
worker thread, pinned to the usable CPUs other than its starter's, and the calling
thread claim groups in turn and each draws and reduces its own; else the caller does
all.  Each thread holds one block of 2**16 normals (one row for larger m), so memory
is O(m + L), not O(L*m).
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import _check_integer, _check_number, _column, _freeze, _JsonRecord
from .errors import ValidationError
from .estimators import empirical_quantile
from .flsa import _split_tree, _SplitRounds, flsa_path, flsa_solve

__all__ = ["TuningConfig", "TuningResult", "pilot_lambda", "bootstrap_lambda"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TuningConfig:
    """Bootstrap tuning parameters.

    ``l_boot`` defaults to 1000 (application scale); simulation studies use
    100.  The random generator is numpy's PCG64 (``default_rng``) and normal
    variates come from its ziggurat ``standard_normal``, so results are
    bit-reproducible across platforms for a given seed; the module docstring says
    how the bootstrap's rows are drawn and shared.
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
    tree ``y`` or a new tree of it; when no count exceeds ``k_max`` it starts at
    lambda = 0 and the pilot is 0.
    """
    _check_integer(k_max, "k_max", 0)
    return next(float(bp.lam) for bp in flsa_path(y, k_max) if bp.changepoint_count <= k_max)


def _effective_noise(u: np.ndarray, residuals: np.ndarray, out: np.ndarray) -> None:
    """Write (2/n) max_{1<=k<n} |cumsum(v - mean v)_k| of each row v of u * residuals to
    out: the effective noise 2 * ||(X^c)' v^c||_inf / n of the centered cumulative-sum
    design.  u (k, n) is overwritten; each row takes the same operations whatever k is.
    """
    np.multiply(u, residuals, out=u)
    np.subtract(u, u.mean(axis=1, keepdims=True), out=u)
    for row in u:  # a 1-D cumsum frees the GIL; one along axis 1 holds it
        np.cumsum(row, out=row)
    sums = np.abs(u[:, :-1], out=u[:, :-1])  # |.| also turns a -0.0 statistic into 0.0
    np.multiply(sums.max(axis=1), 2.0 / u.shape[1], out=out)


# bootstrap rows per seeded stream, normal draws held in one block (512 KB of float64),
# and the least work m * L that the spare CPU shares.  Below it the hand-off costs more
# than the worker saves: on a 2-core VM a fit at n = m = 100, L = 100 took 2.7-3.2 ms so
# gated and 3.8-4.5 ms with every bootstrap shared (two runs of 200 fits each).  With one
# group the worker could only draw ahead; at m = 1e5, L = 50 that measured no faster
# (gated 157-192 ms, shared 152-172 ms, medians of 15 fits, six runs each).
_GROUP, _BLOCK, _DRAW_AHEAD = 64, 1 << 16, 1 << 16


def _reset(spare_cpus: int | None = None) -> None:
    """Start this process's bootstrap state afresh: no worker, a new start lock and one
    spare-CPU token if ``spare_cpus`` > 0 (by default: if a thread's CPU is known and
    another CPU is usable).  Run at import, in a forked child, which has none of its
    parent's threads and so neither their worker nor a token they held, and with 0 in a
    pool's worker processes, which fill the CPUs.  The one token stands for the one
    worker: a bootstrap it shares holds it, so no other waits behind its job."""
    global _SPARE_CPUS, _WORKER, _STARTING
    if spare_cpus is None:
        known = os.path.exists("/proc/thread-self/stat")
        spare_cpus = len(os.sched_getaffinity(0)) - 1 if known else 0
    _SPARE_CPUS = threading.Semaphore(min(1, spare_cpus))
    _WORKER, _STARTING = None, threading.Lock()


_reset()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset)


def _cpu() -> int:
    """The CPU the calling thread runs on: field 39 of its stat line."""
    with open("/proc/thread-self/stat", "rb") as f:
        return int(f.read().rsplit(b")", 1)[1].split()[36])


def _serve(jobs, cpus) -> None:
    """The worker: run each (work, done) job of ``jobs`` in turn, pinned to ``cpus``, and
    settle the future ``done`` with its outcome, a failed pin included."""
    while True:
        work, done = jobs.get()
        try:
            os.sched_setaffinity(0, cpus)
            work()
            done.set_result(None)
        except BaseException as error:  # the caller raises it
            done.set_exception(error)
        del work, done  # no job outlives its run


def _worker() -> queue.SimpleQueue:
    """The job queue of this process's one worker thread, started on first use and pinned
    to the usable CPUs other than its starter's."""
    global _WORKER
    with _STARTING:
        if _WORKER is None:  # set only once the thread that serves it has started
            jobs, cpus = queue.SimpleQueue(), os.sched_getaffinity(0) - {_cpu()}
            threading.Thread(target=_serve, args=(jobs, cpus), daemon=True).start()
            _WORKER = jobs
        return _WORKER


@contextmanager
def _normal_draw(seed, l_boot: int, m: int):
    """Yield ``stats(residuals)``, the effective noise of residuals * eps for the ``l_boot``
    rows eps of the seed's streams (module docstring).  Threads claim groups from one
    iterator and draw and reduce their rows ``_BLOCK // m`` (1 to 64) at a time in a block of
    their own.  Where the gates let the worker share, it draws a first block on entry and
    waits for the residuals; else the caller of ``stats`` takes every group.  Leaving stops
    the worker and waits for it."""
    rows = min(_GROUP, max(1, _BLOCK // max(m, 1)))
    groups = iter(range(-(-l_boot // _GROUP)))  # next() on it is atomic under the GIL
    u_boot, given, residuals, done = np.empty(l_boot), threading.Event(), [], Future()

    def work():
        block = np.empty((rows, m))
        for g in groups:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(g,)))
            end = min(l_boot, (g + 1) * _GROUP)
            for lo in range(g * _GROUP, end, rows):
                eps = rng.standard_normal(out=block[: min(rows, end - lo)])
                given.wait()
                if not residuals:  # the caller left
                    return
                _effective_noise(eps, residuals[0], u_boot[lo : lo + len(eps)])

    def stats(r):
        residuals.append(r)
        given.set()
        work()
        if jobs:
            done.result()  # raises the worker's error
        return u_boot

    budget, jobs = _SPARE_CPUS, None
    held = m * l_boot >= _DRAW_AHEAD and l_boot > _GROUP and budget.acquire(blocking=False)
    try:
        if jobs := held and _worker():
            jobs.put((work, done))
        yield stats
    finally:
        residuals.clear()
        given.set()
        try:
            if jobs:
                done.exception()  # waits; a caller's own error stands
        finally:
            if held:
                budget.release()


def bootstrap_lambda(y, config: TuningConfig, *, normals=None) -> TuningResult:
    """Multiplier-bootstrap selection of the fused-lasso penalty.

    Residuals of the exact fit at the pilot penalty, which is read off the
    solution path (:func:`pilot_lambda`), are multiplied by i.i.d. standard
    normal vectors; the selected penalty is the ceil(q*L)-th order statistic
    of the resulting effective-noise sample.  The pilot path and solve read one
    split tree: ``y`` (``fit_hazard``'s, which its final solve reads too) or a new tree of it.

    The warning that the path and the solver "disagree" fires when the pilot
    fit has more than ``k_max`` change points: the path's slope-history count
    lags the jumps the solver evaluates, as on some inputs whose magnitudes
    span hundreds of decades.  The normals are drawn as the module docstring says.
    ``normals`` is the entered ``_normal_draw`` of the seed, ``l_boot`` and y.size, from a
    caller that starts the draw earlier (``fit_hazard``, after its Cox step); without it
    the draw starts here, before the pilot path, so a shared draw runs beside the path.
    """
    m = (y.y if isinstance(y, _SplitRounds) else _column(y, "y")).size
    if m < 2:
        raise ValidationError(f"need at least 2 observations, got {m}")
    tree = _split_tree(y)
    if normals is None:  # draw while the pilot path runs
        with _normal_draw(config.seed, config.l_boot, m) as normals:
            return bootstrap_lambda(tree, config, normals=normals)
    lam0 = pilot_lambda(tree, config.k_max)
    pilot = flsa_solve(tree, lam0)
    if pilot.changepoints.size > config.k_max:
        logger.warning(
            "pilot fit at lambda0 = %r has %d change points, more than k_max = %d: the solution "
            "path and the exact solver disagree", lam0, pilot.changepoints.size, config.k_max
        )
    residuals = tree.y - pilot.alpha
    u_boot = normals(residuals)
    return TuningResult(
        lambda0=float(lam0),
        lam=empirical_quantile(u_boot, config.q),
        u_boot=u_boot,
        residuals=residuals,
        seed=config.seed,
    )
