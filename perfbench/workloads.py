"""The benchmark's workloads: inputs from a seed, one operation, checks.

Every workload runs single-process (``threads=1``).  An operation is one
call a user makes: an in-process ``hazstep.cli.main`` call for the CLI
workloads, one ``run_study`` cell for the study.  Operations look the entry
point up through its module at call time, so the tracer's wrappers apply.

Why these three:

- ``fit-cox-100k``: a grid of m = n = 1e5 makes the pure-Python merge path
  and DP solves, Cox Newton-Raphson and CSV parsing the bulk of the time,
  while the bootstrap stays small (L = 100).
- ``multistate-20k``: three L*m ~ 2e7-draw bootstraps dominate time and
  peak memory; the list-of-records data layer, Kaplan-Meier, left-truncated
  risk sets and closed-form curves run here only, and there is no Cox step.
- ``study-b2-1k``: 200 small fits (m = 1000, L = 100) where fixed per-call
  costs dominate, so large-m savings barely show and per-call savings do.
"""

from __future__ import annotations

from pathlib import Path

import hazstep.cli
import hazstep.simulate
from hazstep.data import (
    parse_multistate_csv,
    parse_survival_csv,
    write_multistate_csv,
    write_survival_csv,
)
from hazstep.flsa import kkt_residual
from hazstep.multistate import (
    TRANSITIONS,
    IllnessDeathModel,
    curves_from_csv,
    fit_illness_death_detailed,
)
from hazstep.pipeline import FitConfig, fit_hazard
from hazstep.simulate import gen_scenario, named_scenario, simulate_illness_death
from hazstep.stepfun import StepFunction, Window
from hazstep.tuning import TuningConfig

KKT_TOL = 1e-9


class OpFailed(Exception):
    """An operation ran but its outcome is wrong."""


def _check_hazard_json(fit, path: Path) -> list[str]:
    problems = []
    kkt = kkt_residual(fit.flsa)
    if not kkt <= KKT_TOL:
        problems.append(f"{path.name}: library re-fit has kkt_residual {kkt!r} > {KKT_TOL}")
    if path.read_text() != fit.to_json(indent=2) + "\n":
        problems.append(f"{path.name}: differs from the library re-fit of the same input")
    return problems


class FitCox:
    """``hazstep fit`` on the CSV of one proportional-hazards frame."""

    def __init__(self, scenario: str, n: int, l_boot: int):
        self.scenario, self.n, self.l_boot = scenario, n, l_boot
        self.subjects = n

    def context(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "inputs": [workdir / "survival.csv"]}

    def prepare(self, seed: int, workdir: Path) -> dict:
        ctx = self.context(seed, workdir)
        frame = gen_scenario(named_scenario(self.scenario, self.n), seed)
        write_survival_csv(frame, ctx["inputs"][0])
        return ctx

    def argv(self, ctx: dict, outdir: Path) -> list[str]:
        return ["fit", str(ctx["inputs"][0]), "--L", str(self.l_boot),
                "--seed", str(ctx["seed"]), "--out", str(outdir)]

    def run(self, ctx: dict, outdir: Path):
        return hazstep.cli.main(self.argv(ctx, outdir))

    def finish(self, ctx: dict, outdir: Path, rc) -> None:
        if rc != 0:
            raise OpFailed(f"exit code {rc}")

    def check_run(self, ctx: dict, outdir: Path) -> list[str]:
        """Library re-fit with the configuration the CLI builds from its flags."""
        args = hazstep.cli.build_parser().parse_args(self.argv(ctx, outdir))
        config = FitConfig(
            p_low=args.p_low,
            p_high=args.p_high,
            grid_size=args.grid,
            tuning=TuningConfig(q=args.q, k_max=args.kmax, l_boot=args.L, seed=args.seed),
        )
        fit = fit_hazard(parse_survival_csv(args.input), config)
        return _check_hazard_json(fit, outdir / "hazard.json")


def demo_truth() -> IllnessDeathModel:
    """Illness-death intensities of the demo and acceptance tests."""
    w = Window(0.0, 1.0)
    return IllnessDeathModel(
        a01=StepFunction(w, [0.3], [2.0, 1.0]),
        a02=StepFunction(w, [], [0.75]),
        a12=StepFunction(w, [0.25, 0.7], [2.5, 1.5, 1.0]),
    )


class Multistate:
    """``hazstep multistate`` on simulated illness-death trajectories."""

    def __init__(self, n: int, extra_args: tuple = ()):
        self.n, self.extra_args = n, tuple(extra_args)
        self.subjects = n

    def context(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "inputs": [workdir / "multistate.csv"]}

    def prepare(self, seed: int, workdir: Path) -> dict:
        ctx = self.context(seed, workdir)
        records = simulate_illness_death(demo_truth(), self.n, 0.25, seed)
        write_multistate_csv(records, ctx["inputs"][0])
        return ctx

    def argv(self, ctx: dict, outdir: Path) -> list[str]:
        return ["multistate", str(ctx["inputs"][0]), "--seed", str(ctx["seed"]),
                "--out", str(outdir), *self.extra_args]

    def run(self, ctx: dict, outdir: Path):
        return hazstep.cli.main(self.argv(ctx, outdir))

    finish = FitCox.finish

    def check_run(self, ctx: dict, outdir: Path) -> list[str]:
        """Re-fit every transition as the CLI configures it; load the curves."""
        args = hazstep.cli.build_parser().parse_args(self.argv(ctx, outdir))
        config = {
            tr: FitConfig(
                p_high=args.p,
                tuning=TuningConfig(q=args.q, k_max=args.kmax, l_boot=args.L, seed=args.seed + i),
            )
            for i, tr in enumerate(TRANSITIONS)
        }
        fits = fit_illness_death_detailed(parse_multistate_csv(args.input), config)
        problems = []
        for (src, dst), fit in fits.items():
            problems += _check_hazard_json(fit, outdir / f"hazard_{src}{dst}.json")
        try:
            curves_from_csv(outdir / "survival_curves.csv")
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"survival_curves.csv: {type(exc).__name__}: {exc}")
        return problems


class Study:
    """One Monte-Carlo table cell: ``run_study`` in-process, one thread."""

    def __init__(self, scenario: str, n: int, replications: int):
        self.scenario, self.n, self.replications = scenario, n, replications
        self.subjects = n * replications

    def context(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "inputs": []}

    prepare = context  # the cell generates its own frames

    def run(self, ctx: dict, outdir: Path):
        return hazstep.simulate.run_study(
            named_scenario(self.scenario, self.n), self.replications, ctx["seed"], threads=1
        )

    def finish(self, ctx: dict, outdir: Path, report) -> None:
        (outdir / "study_runs.json").write_text(report.to_json(indent=2) + "\n")
        if report.failures:
            raise OpFailed(f"{len(report.failures)} failed replications: {report.failures[0]}")
        if len(report.rows) != self.replications:
            raise OpFailed(f"{len(report.rows)} rows, expected {self.replications}")

    def check_run(self, ctx: dict, outdir: Path) -> list[str]:
        return []


WORKLOADS = {
    "fit-cox-100k": FitCox("B1", 100_000, l_boot=100),
    "multistate-20k": Multistate(20_000),
    "study-b2-1k": Study("B2", 1000, 200),
}
