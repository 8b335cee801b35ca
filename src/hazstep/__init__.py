"""Piecewise constant hazard estimation via fused-lasso denoising.

The package estimates hazard rates that are step functions of time from
right-censored (and possibly left-truncated) event-history data.  The
cumulative hazard is first estimated by the Breslow step estimator; its
increments over a fine grid form a signal-plus-noise regression sample
whose signal is the discretized hazard, which is then recovered with an
exact 1-D fused-lasso solver.  The penalty is calibrated by a multiplier
bootstrap of the lasso effective noise.  An illness-death module fits all
three transition hazards of the progression/death model and converts them
to survival curves in closed form; a simulation harness reproduces the
accompanying Monte-Carlo studies.
"""

from .data import (
    CENSORED,
    CENSORED_STATE,
    MultiStateFrame,
    SurvivalFrame,
    absorption_frame,
    parse_multistate_csv,
    parse_survival_csv,
    risk_set_sums,
    split_transitions,
    write_multistate_csv,
    write_survival_csv,
)
from .errors import ParseError, SchemaError, ValidationError
from .estimators import (
    BreslowCurve,
    CoxFit,
    IncrementSample,
    breslow_fit,
    build_increments,
    choose_window,
    cox_fit,
    empirical_quantile,
)
from .flsa import (
    FusedLassoFit,
    PathBreakpoint,
    flsa_path,
    flsa_solve,
    interpolate,
    kkt_residual,
)
from .multistate import (
    IllnessDeathModel,
    SurvivalCurve,
    curves_from_csv,
    curves_to_csv,
    fit_illness_death_detailed,
    kaplan_meier,
    km_from_csv,
    km_to_csv,
    state_probabilities,
    survival_curves,
)
from .pipeline import FitConfig, HazardFit, discretize_truth, fit_from_curve, fit_hazard
from .simulate import (
    SCENARIO_NAMES,
    Scenario,
    StudyReport,
    gen_scenario,
    metric_dasym,
    metric_l2,
    metric_snr,
    named_scenario,
    run_study,
    sample_piecewise_exponential,
    simulate_illness_death,
    three_level_hazard,
    two_level_hazard,
)
from .stepfun import StepFunction, Window
from .tuning import TuningConfig, TuningResult, bootstrap_lambda, effective_noise, pilot_lambda

__version__ = "0.1.0"

__all__ = [
    "CENSORED",
    "CENSORED_STATE",
    "BreslowCurve",
    "CoxFit",
    "FitConfig",
    "FusedLassoFit",
    "HazardFit",
    "IllnessDeathModel",
    "IncrementSample",
    "MultiStateFrame",
    "ParseError",
    "PathBreakpoint",
    "SCENARIO_NAMES",
    "Scenario",
    "SchemaError",
    "StepFunction",
    "StudyReport",
    "SurvivalCurve",
    "SurvivalFrame",
    "TuningConfig",
    "TuningResult",
    "ValidationError",
    "Window",
    "absorption_frame",
    "bootstrap_lambda",
    "breslow_fit",
    "build_increments",
    "choose_window",
    "cox_fit",
    "discretize_truth",
    "effective_noise",
    "empirical_quantile",
    "fit_from_curve",
    "fit_hazard",
    "fit_illness_death_detailed",
    "flsa_path",
    "flsa_solve",
    "gen_scenario",
    "interpolate",
    "kaplan_meier",
    "kkt_residual",
    "metric_dasym",
    "metric_l2",
    "metric_snr",
    "named_scenario",
    "parse_multistate_csv",
    "parse_survival_csv",
    "pilot_lambda",
    "risk_set_sums",
    "run_study",
    "sample_piecewise_exponential",
    "simulate_illness_death",
    "split_transitions",
    "state_probabilities",
    "survival_curves",
    "curves_from_csv",
    "curves_to_csv",
    "km_from_csv",
    "km_to_csv",
    "three_level_hazard",
    "two_level_hazard",
    "write_multistate_csv",
    "write_survival_csv",
]
