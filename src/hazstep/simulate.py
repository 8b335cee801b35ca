"""Monte-Carlo machinery: scenario generators, metrics, study orchestration.

Event times are drawn by exact piecewise-linear inversion of the cumulative
hazard; proportional-hazards covariate effects enter through the classical
rescaling of the unit-exponential draw.  Studies run a configurable number
of seeded replications, fitting each generated frame with the full pipeline
and scoring it against the discretized true hazard.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import CENSORED_STATE, MultiStateFrame, SurvivalFrame
from .data import _check_integer, _check_number, _column, _freeze, _JsonRecord, _write_columns
from .errors import ValidationError
from .multistate import IllnessDeathModel
from .pipeline import FitConfig, discretize_truth, fit_hazard
from .stepfun import StepFunction, Window
from .tuning import TuningConfig

__all__ = [
    "Scenario",
    "StudyReport",
    "two_level_hazard",
    "three_level_hazard",
    "named_scenario",
    "SCENARIO_NAMES",
    "gen_scenario",
    "metric_l2",
    "metric_dasym",
    "metric_snr",
    "run_study",
    "report_table_csv",
    "simulate_illness_death",
]

SCENARIO_NAMES = ("A1", "B1", "A2", "B2")


def two_level_hazard() -> StepFunction:
    """Step hazard 4 -> 1 with a single change point at 0.25."""
    return StepFunction(Window(0.0, 1.0), [0.25], [4.0, 1.0])


def three_level_hazard() -> StepFunction:
    """Step hazard 4 -> 1.5 -> 0.5 with change points at 0.2 and 0.6."""
    return StepFunction(Window(0.0, 1.0), [0.2, 0.6], [4.0, 1.5, 0.5])


@dataclass(frozen=True)
class Scenario:
    """One simulation design: hazard shape, sample size, covariates, censoring."""

    hazard: StepFunction
    n: int
    with_covariates: bool = False
    beta: np.ndarray = field(default_factory=lambda: np.array([0.25, 1.0]))
    censoring_rate: float = 0.5
    name: str = "custom"

    def __post_init__(self):
        _check_integer(self.n, "sample size", 2)
        _check_censoring_rate(self.censoring_rate)
        _freeze(self, beta=_column(self.beta, "beta"))

    @property
    def window(self) -> Window:
        """Estimation window of the fits: the hazard's domain."""
        return self.hazard.domain


def _check_censoring_rate(rate) -> None:
    _check_number(rate, "censoring_rate")
    if rate < 0:
        raise ValidationError(f"censoring_rate must be >= 0, got {rate}")


def _censoring_times(rate: float, n: int, rng) -> np.ndarray:
    """n exponential censoring times at a checked ``rate``; rate 0 censors no one."""
    if rate == 0:
        return np.full(n, np.inf)
    return rng.exponential(scale=1.0 / rate, size=n)


def named_scenario(name: str, n: int) -> Scenario:
    """The four standard designs: two hazard shapes, with/without covariates."""
    shapes = {"1": two_level_hazard, "2": three_level_hazard}
    if len(name) != 2 or name[0] not in "AB" or name[1] not in shapes:
        raise ValidationError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    return Scenario(
        hazard=shapes[name[1]](),
        n=n,
        with_covariates=(name[0] == "B"),
        name=name,
    )


def gen_scenario(scenario: Scenario, seed) -> SurvivalFrame:
    """Generate one survival frame.

    Covariates are a symmetric binary variable and a uniform variable on
    [-1, 1]; event times come from the scenario hazard scaled by
    exp(beta'W) (inversion of the conditional cumulative hazard), censoring
    times from an independent exponential.
    """
    rng = np.random.default_rng(seed)
    n = scenario.n
    if scenario.with_covariates:
        w1 = rng.integers(0, 2, size=n) * 2.0 - 1.0
        w2 = rng.uniform(-1.0, 1.0, size=n)
        cov = np.column_stack((w1, w2))
        lin = cov @ scenario.beta
    else:
        cov = np.empty((n, 0))
        lin = np.zeros(n)
    e = rng.exponential(size=n)
    t_star = scenario.hazard.inverse_cumulative(e / np.exp(lin))
    c = _censoring_times(scenario.censoring_rate, n, rng)
    time = np.minimum(t_star, c)
    status = (t_star <= c).astype(np.int8)
    return SurvivalFrame(time=time, status=status, entry=np.zeros(n), covariates=cov)


# -- metrics -------------------------------------------------------------------


def metric_l2(alpha_hat, alpha_star) -> float:
    """Mean squared coordinatewise error of the discretized fit."""
    alpha_hat = np.asarray(alpha_hat, dtype=float).reshape(-1)
    alpha_star = np.asarray(alpha_star, dtype=float).reshape(-1)
    if alpha_hat.size != alpha_star.size:
        raise ValidationError("length mismatch")
    return float(np.mean((alpha_hat - alpha_star) ** 2))


def metric_dasym(estimated, truth) -> float:
    """max over true points of the distance to the nearest estimated point.

    An empty estimated set yields +inf by convention.
    """
    truth = np.asarray(list(truth), dtype=float).reshape(-1)
    estimated = np.asarray(list(estimated), dtype=float).reshape(-1)
    if truth.size == 0:
        raise ValidationError("truth set must be nonempty")
    if estimated.size == 0:
        return math.inf
    return float(np.max(np.min(np.abs(estimated[None, :] - truth[:, None]), axis=1)))


def metric_snr(alpha_star, u) -> float:
    """Empirical variance of the signal over that of the noise."""
    alpha_star = np.asarray(alpha_star, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if alpha_star.size != u.size:
        raise ValidationError("length mismatch")
    vu = float(np.var(u))
    if vu == 0:
        return math.inf
    return float(np.var(alpha_star)) / vu


# -- study orchestration -------------------------------------------------------


@dataclass(frozen=True)
class StudyReport(_JsonRecord):
    """Per-replication metrics and their aggregates for one scenario cell."""

    scenario: str
    n: int
    replications: int
    seed: int
    rows: list
    failures: list

    def metric(self, key: str) -> np.ndarray:
        return np.array([row[key] for row in self.rows], dtype=float)

    def aggregates(self) -> dict:
        out = {}
        for key in ("l2_sq", "d_asym", "snr", "censored_fraction", "n_changepoints"):
            vals = self.metric(key)
            finite = vals[np.isfinite(vals)]
            agg = {
                "mean": float(np.mean(finite)) if finite.size else math.nan,
                "sd": float(np.std(finite, ddof=1)) if finite.size > 1 else math.nan,
                "n_infinite": int(np.sum(~np.isfinite(vals))),
            }
            out[key] = agg
        out["n_failed"] = len(self.failures)
        return out

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "aggregates": self.aggregates(),
            "rows": self.rows,
            "failures": self.failures,
        }


_REPORT_METRICS = ("l2_sq", "d_asym", "snr", "censored_fraction")


def _mean_sd_text(agg: dict) -> str:
    sd = "" if math.isnan(agg["sd"]) else f" ({agg['sd']:.3f})"
    return f"{agg['mean']:.3f}{sd}"


def report_table_csv(reports, path) -> None:
    """Summary table, one row per (scenario, n) cell, "mean (sd)" formatted."""
    aggs = [rep.aggregates() for rep in reports]
    columns = [[getattr(rep, key) for rep in reports] for key in ("scenario", "n", "replications")]
    columns += [[_mean_sd_text(agg[key]) for agg in aggs] for key in _REPORT_METRICS]
    _write_columns(path, ["scenario", "n", "replications", *_REPORT_METRICS], columns)


def _fit_config_for(scenario: Scenario, tune_seed: int) -> FitConfig:
    return FitConfig(
        window=scenario.window,
        grid_size=scenario.n,
        tuning=TuningConfig(q=0.9, k_max=20, l_boot=100, seed=tune_seed),
    )


def _run_one_safe(args):
    try:
        return "ok", _run_one(args)
    except Exception as exc:  # noqa: BLE001 - recorded by the caller
        return "err", {"replication": args[1], "error": f"{type(exc).__name__}: {exc}"}


def _run_one(args):
    scenario, rep_index, data_seed, tune_seed = args
    frame = gen_scenario(scenario, data_seed)
    fit = fit_hazard(frame, _fit_config_for(scenario, tune_seed))
    truth_vec = discretize_truth(scenario.hazard, scenario.window, fit.flsa.m)
    changes = fit.changepoints
    return {
        "replication": rep_index,
        "data_seed": int(data_seed),
        "tune_seed": int(tune_seed),
        "l2_sq": metric_l2(fit.flsa.alpha, truth_vec),
        "d_asym": metric_dasym(changes, scenario.hazard.breaks),
        "snr": metric_snr(truth_vec, fit.flsa.y - truth_vec),
        "censored_fraction": float(np.mean(frame.status == 0)),
        "n_changepoints": int(changes.size),
        "lambda": fit.tuning.lam,
        "lambda0": fit.tuning.lambda0,
        "changepoint_times": changes.tolist(),
    }


def run_study(scenario: Scenario, replications: int, seed: int, threads: int = 1) -> StudyReport:
    """Run seeded replications of generate -> fit -> score and aggregate.

    Replications use independent child seeds spawned from ``seed``, an
    integer >= 0 that the report records; results are reduced by replication
    index, so thread count does not affect the report.  Failed replications
    are recorded, not dropped silently.
    """
    _check_integer(replications, "replications", 1)
    _check_integer(threads, "threads", 1)
    _check_integer(seed, "seed", 0)
    children = np.random.SeedSequence(seed).spawn(replications)
    tasks = []
    for r, child in enumerate(children):
        data_seed, tune_seed = child.generate_state(2, dtype=np.uint64)
        tasks.append((scenario, r, int(data_seed), int(tune_seed)))

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(
                pool.map(_run_one_safe, tasks, chunksize=max(1, replications // (4 * threads)))
            )
    else:
        outcomes = [_run_one_safe(task) for task in tasks]
    rows = [payload for status, payload in outcomes if status == "ok"]
    failures = [payload for status, payload in outcomes if status == "err"]
    return StudyReport(
        scenario=scenario.name,
        n=scenario.n,
        replications=replications,
        seed=int(seed),
        rows=rows,
        failures=failures,
    )


# -- illness-death simulation ---------------------------------------------------


def _simulate_paths(model: IllnessDeathModel, n: int, censoring_rate: float, rng):
    """Vectorized path sampling; returns raw arrays (before censoring cuts).

    Exit from state 0 uses the exact competing-risks construction: the exit
    time is drawn from the total intensity and the destination is chosen
    with probability a01/(a01+a02) evaluated at the exit time; the 1->2
    waiting time runs on the same (Markov) clock, conditioning on the state-1
    entry time.
    """
    total0 = model.a01 + model.a02
    if np.all(total0.levels == 0):
        raise ValidationError("state 0 has zero total intensity")
    exit0 = total0.inverse_cumulative(rng.exponential(size=n))
    u = rng.random(n)
    denom = np.asarray(total0(exit0), dtype=float)
    with np.errstate(invalid="ignore"):
        p1 = np.where(denom > 0, np.asarray(model.a01(exit0), dtype=float) / denom, 0.0)
    to_illness = u < p1
    e2 = rng.exponential(size=n)
    a12_at_entry = np.asarray(model.a12.cumulative(np.where(np.isfinite(exit0), exit0, 0.0)))
    death_after_illness = model.a12.inverse_cumulative(a12_at_entry + e2)
    return exit0, to_illness, death_after_illness, _censoring_times(censoring_rate, n, rng)


def simulate_illness_death(
    model: IllnessDeathModel, n: int, censoring_rate: float, seed
) -> MultiStateFrame:
    """Simulate right-censored illness-death trajectories in long format.

    Subject i (id i) has a sojourn row in state 0 and, if it was observed
    to fall ill, a second row in state 1.
    """
    _check_integer(n, "n", 1)
    _check_censoring_rate(censoring_rate)
    rng = np.random.default_rng(seed)
    exit0, to_illness, death12, cens = _simulate_paths(model, n, censoring_rate, rng)
    cens0 = (cens < exit0) | ~np.isfinite(exit0)
    ill = ~cens0 & to_illness
    cens1 = ((cens < death12) | ~np.isfinite(death12))[ill]
    ids = np.arange(n)
    # the frame orders the state-1 rows after the state-0 row of their subject
    return MultiStateFrame(
        id=np.concatenate((ids, ids[ill])),
        from_state=np.repeat([0, 1], [n, np.count_nonzero(ill)]),
        to_state=np.concatenate(
            (
                np.where(cens0, CENSORED_STATE, np.where(to_illness, 1, 2)),
                np.where(cens1, CENSORED_STATE, 2),
            )
        ),
        t_start=np.concatenate((np.zeros(n), exit0[ill])),
        t_stop=np.concatenate(
            (np.where(cens0, cens, exit0), np.where(cens1, cens[ill], death12[ill]))
        ),
    )
