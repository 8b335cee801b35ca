"""Command-line interface: fit, simulate, multistate, curves.

Each subcommand checks its inputs and computes its results, then creates the
output directory and writes each JSON/CSV artifact once.  It exits with 0 on
success, 2 on an invalid, unreadable or undecodable input or an unusable
output directory, and 1 on internal errors.  Without ``--seed`` a fresh
random seed is drawn, recorded in the outputs and printed once the inputs
have passed their checks.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from .data import absorption_frame, parse_multistate_csv, parse_survival_csv, sojourn_frame
from .data import _write_json
from .data import split_transitions  # noqa: F401 - perfbench/tracer.py wraps it
from .errors import ValidationError
from .multistate import (
    _HAZARDS,
    TRANSITIONS,
    IllnessDeathModel,
    curves_to_csv,
    fit_illness_death_detailed,
    kaplan_meier,
    km_to_csv,
    survival_curves,
)
from .pipeline import FitConfig, fit_hazard
from .simulate import named_scenario, report_table_csv, run_study
from .stepfun import Window
from .tuning import TuningConfig


def _resolve_seed(args) -> int:
    """``--seed``, or a fresh random seed; the seed's owner checks it."""
    return secrets.randbits(32) if args.seed is None else args.seed


def _out_dir(args, seed: int | None = None) -> Path:
    """Make ``--out`` once every input has passed its checks, printing a drawn seed first."""
    if seed is not None and args.seed is None:
        print(f"seed not supplied; using random seed {seed}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _curve_points(args) -> int:
    if args.curve_points < 2:
        raise ValidationError(f"--curve-points must be >= 2, got {args.curve_points}")
    return args.curve_points


def _curves(model: IllnessDeathModel, horizon, points: int):
    """(S_PFS, S_OS) on linspace(0, horizon, points); None: the last window end."""
    if horizon is None:
        horizon = max(getattr(model, name).domain.tau_max for name in _HAZARDS)
    elif not np.isfinite(horizon):
        raise ValidationError(f"--horizon must be finite, got {horizon}")
    elif horizon <= 0:
        raise ValidationError(f"--horizon must be > 0, got {horizon}")
    return survival_curves(model, np.linspace(0.0, horizon, points))


def _tuning_from_args(args, seed) -> TuningConfig:
    return TuningConfig(q=args.q, k_max=args.kmax, l_boot=args.L, seed=seed)


def _fit_config_from_args(args, seed) -> FitConfig:
    window = None
    if args.window:
        try:
            lo, hi = (float(x) for x in args.window.split(","))
        except ValueError:
            raise ValidationError(f"--window expects 'tmin,tmax', got {args.window!r}")
        window = Window(lo, hi)
    beta = None
    if args.beta:
        try:
            beta = [float(x) for x in args.beta.split(",")]
        except ValueError:
            raise ValidationError(f"--beta expects 'b1,b2,...', got {args.beta!r}")
    return FitConfig(
        window=window,
        p_low=args.p_low,
        p_high=args.p_high,
        grid_size=args.grid,
        tuning=_tuning_from_args(args, seed),
        beta=beta,
    )


def cmd_fit(args) -> int:
    config = _fit_config_from_args(args, _resolve_seed(args))
    fit = fit_hazard(parse_survival_csv(args.input), config)
    out = _out_dir(args, config.tuning.seed)
    _write_json(out / "hazard.json", fit.to_dict())
    fit.cumulative.to_csv(out / "cumhaz.csv")
    _write_json(out / "tuning.json", fit.tuning.to_dict())
    print(f"wrote hazard.json, cumhaz.csv, tuning.json to {out}")
    return 0


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    scenario = named_scenario(args.scenario, args.n)
    report = run_study(scenario, args.reps, seed, threads=args.threads)
    out = _out_dir(args, seed)
    report_table_csv([report], out / "study_report.csv")
    _write_json(out / "study_runs.json", report.to_dict())
    agg = report.aggregates()
    print(
        f"scenario {scenario.name} n={scenario.n} reps={args.reps}: "
        f"l2 {agg['l2_sq']['mean']:.4f} ({agg['l2_sq']['sd']:.4f}), "
        f"d_asym {agg['d_asym']['mean']:.4f}"
    )
    return 0


def cmd_multistate(args) -> int:
    seed = _resolve_seed(args)
    points = _curve_points(args)
    config = {
        tr: FitConfig(p_high=args.p, tuning=_tuning_from_args(args, seed + i))
        for i, tr in enumerate(TRANSITIONS)
    }
    frame = parse_multistate_csv(args.input)
    fits = fit_illness_death_detailed(frame, config)
    model = IllnessDeathModel(*(fits[tr].hazard for tr in TRANSITIONS))
    curves = _curves(model, None, points)
    km_pfs = kaplan_meier(sojourn_frame(frame, 0))
    km_os = kaplan_meier(absorption_frame(frame, 2))
    out = _out_dir(args, seed)
    for (src, dst), fit in fits.items():
        _write_json(out / f"hazard_{src}{dst}.json", fit.to_dict())
    _write_json(out / "model.json", model.to_dict())
    curves_to_csv(*curves, out / "survival_curves.csv")
    km_to_csv(km_pfs, out / "km_pfs.csv")
    km_to_csv(km_os, out / "km_os.csv")
    print(f"wrote hazard_01/02/12.json, model.json, survival_curves.csv, km_*.csv to {out}")
    return 0


def cmd_curves(args) -> int:
    points = _curve_points(args)
    model = IllnessDeathModel.from_dict(json.loads(Path(args.model).read_text()))
    curves = _curves(model, args.horizon, points)
    out = _out_dir(args)
    curves_to_csv(*curves, out / "survival_curves.csv")
    print(f"wrote survival_curves.csv to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazstep",
        description="Piecewise constant hazard estimation via fused-lasso denoising",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuning_flags(p):
        p.add_argument("--q", type=float, default=TuningConfig.q, help="bootstrap quantile level")
        p.add_argument(
            "--kmax", type=int, default=TuningConfig.k_max, help="pilot change-point budget"
        )
        p.add_argument("--L", type=int, default=TuningConfig.l_boot, help="bootstrap replicates")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--out", default=".", help="output directory")

    p_fit = sub.add_parser("fit", help="fit a hazard to survival CSV data")
    p_fit.add_argument("input", help="survival CSV (entry?, time, status, covariates...)")
    add_tuning_flags(p_fit)
    p_fit.add_argument("--window", default=None, help="explicit window 'tmin,tmax'")
    p_fit.add_argument("--p-low", dest="p_low", type=float, default=None)
    p_fit.add_argument("--p-high", dest="p_high", type=float, default=FitConfig.p_high)
    p_fit.add_argument("--grid", type=int, default=None, help="grid size (default: sample size)")
    p_fit.add_argument("--beta", default=None, help="supplied coefficients 'b1,b2,...'")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study cell")
    p_sim.add_argument("--scenario", required=True, help="A1, B1, A2 or B2")
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--reps", type=int, default=200, help="replications")
    p_sim.add_argument("--threads", type=int, default=1, help="worker processes")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_ms = sub.add_parser("multistate", help="fit the illness-death model")
    p_ms.add_argument("input", help="long-format CSV (id, from, to, t_start, t_stop)")
    add_tuning_flags(p_ms)
    p_ms.add_argument("--p", type=float, default=FitConfig.p_high, help="upper window quantile")
    p_ms.add_argument("--curve-points", type=int, default=201)
    p_ms.set_defaults(func=cmd_multistate)

    p_cv = sub.add_parser("curves", help="survival curves from a fitted model JSON")
    p_cv.add_argument("model", help="model.json produced by the multistate command")
    p_cv.add_argument("--horizon", type=float, default=None)
    p_cv.add_argument("--curve-points", type=int, default=201)
    p_cv.add_argument("--out", default=".")
    p_cv.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
