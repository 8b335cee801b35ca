import logging

import numpy as np
import pytest

from hazstep import (
    FitConfig,
    Scenario,
    StepFunction,
    SurvivalFrame,
    TuningConfig,
    ValidationError,
    Window,
    bootstrap_lambda,
    build_increments,
    discretize_truth,
    fit_hazard,
    flsa_solve,
    gen_scenario,
    three_level_hazard,
    two_level_hazard,
)
from hazstep.estimators import BreslowCurve
from hazstep.flsa import interpolate


def constant_scenario(n):
    return Scenario(
        hazard=StepFunction(Window(0, 1), [], [1.0]),
        n=n,
        censoring_rate=0.0,
        name="const",
    )


class TestDiscretizeTruth:
    def test_constant(self):
        truth = StepFunction(Window(0, 1), [], [2.0])
        assert discretize_truth(truth, Window(0, 1), 5).tolist() == [2.0] * 5

    def test_rescaled_units(self):
        truth = StepFunction(Window(0, 2), [], [2.0])
        # levels are multiplied by the window length
        assert discretize_truth(truth, Window(0, 2), 4).tolist() == [4.0] * 4

    def test_two_level_shape_level_on_cell(self):
        # cell j is (t_{j-1}, t_j] with t_j = j/m; the break at 0.25 = t_{m/4}
        # closes the last cell of level 4, so m/4 cells carry 4
        vec = discretize_truth(two_level_hazard(), Window(0, 1), 4)
        assert vec.tolist() == [4.0, 1.0, 1.0, 1.0]
        vec8 = discretize_truth(two_level_hazard(), Window(0, 1), 8)
        assert vec8.tolist() == [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("shape", [two_level_hazard, three_level_hazard])
    @pytest.mark.parametrize("m", [500, 1000, 2000])
    def test_matches_increments_of_the_true_cumulative(self, shape, m):
        # the truth sent through the increment map of the data,
        # y_j = m*(A(t_j) - A(t_{j-1})); equal up to the roundoff of the
        # cumulative differences
        truth = shape()
        grid = np.arange(m + 1) * (1.0 / m)  # the grid of build_increments
        expected = m * np.diff(truth.cumulative(grid))
        vec = discretize_truth(truth, Window(0, 1), m)
        assert np.max(np.abs(vec - expected)) <= 1e-9

    def test_single_point(self):
        truth = two_level_hazard()
        assert discretize_truth(truth, Window(0, 1), 1).tolist() == [1.0]


class TestFitFromCurve:
    def test_noiseless_step_signal_recovered_exactly(self):
        # a curve whose cell increments are exactly piecewise constant (all
        # quantities dyadic, so the cumulative sums are float-exact): the
        # pilot interpolates, all residuals vanish, lambda = 0, and the fit
        # reproduces the signal bit for bit
        m = 64
        levels = np.where(np.arange(m) < 16, 4.0, 1.0)
        jump_times = (np.arange(m) + 0.5) / m
        curve = BreslowCurve(jump_times=jump_times, jump_sizes=levels / m, tau=1.0)
        inc = build_increments(curve, Window(0, 1), m)
        tuning = bootstrap_lambda(inc.y, TuningConfig(seed=0, l_boot=50))
        fit = flsa_solve(inc.y, tuning.lam)
        assert np.array_equal(inc.y, levels)
        assert tuning.lam == 0.0
        assert np.array_equal(fit.alpha, inc.y)
        step = interpolate(fit, Window(0, 1))
        assert step.breaks.size == 1
        # the curve's slope drops from 4 to 1 at 16/64, the end of cell 16
        assert step.breaks[0] == pytest.approx(16 / 64, abs=1e-15)
        assert np.array_equal(step.levels, [4.0, 1.0])


class TestFitHazard:
    def test_deterministic_serialization(self):
        frame = gen_scenario(constant_scenario(400), 7)
        cfg = FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=11, l_boot=60))
        a = fit_hazard(frame, cfg)
        b = fit_hazard(frame, cfg)
        assert a.to_json() == b.to_json()

    def test_one_increment_vector(self):
        frame = gen_scenario(constant_scenario(300), 2)
        fit = fit_hazard(frame, FitConfig(tuning=TuningConfig(seed=2, l_boot=40)))
        assert fit.increments.y is fit.flsa.y
        expected = build_increments(fit.cumulative, fit.window, fit.increments.m)
        assert np.array_equal(fit.increments.y, expected.y)

    def test_units_roundtrip_under_time_doubling(self):
        frame = gen_scenario(Scenario(hazard=two_level_hazard(), n=500, name="A1"), 3)
        cfg1 = FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=5, l_boot=50))
        fit1 = fit_hazard(frame, cfg1)
        scaled = SurvivalFrame(
            time=frame.time * 2.0,
            status=frame.status,
            entry=frame.entry * 2.0,
            covariates=frame.covariates,
        )
        cfg2 = FitConfig(window=Window(0, 2), tuning=TuningConfig(seed=5, l_boot=50))
        fit2 = fit_hazard(scaled, cfg2)
        # scaling by 2 is exact in floats: breaks double, levels halve
        assert np.array_equal(fit2.hazard.breaks, 2.0 * fit1.hazard.breaks)
        assert np.array_equal(fit2.hazard.levels, fit1.hazard.levels / 2.0)

    def test_constant_hazard_mostly_flat_fits(self):
        # calibrated over 100 seeds: ~84% of tuned fits are exactly constant;
        # seeds 0..19 give 17, and every flat fit lands within 0.15 of 1
        flat = 0
        for seed in range(20):
            frame = gen_scenario(constant_scenario(2000), seed)
            fit = fit_hazard(
                frame,
                FitConfig(
                    window=Window(0, 1),
                    grid_size=2000,
                    tuning=TuningConfig(l_boot=100, seed=seed),
                ),
            )
            if fit.changepoints.size == 0:
                flat += 1
                assert abs(fit.hazard.levels[0] - 1.0) <= 0.15
        assert flat >= 16

    def test_negative_levels_clamped_raw_preserved(self):
        # shrinkage of near-zero increments can push fitted levels below 0
        jump_times = np.array([0.05, 0.1, 0.95])
        curve = BreslowCurve(jump_times=jump_times, jump_sizes=[0.5, 0.5, 0.01], tau=1.0)
        # feed through a frame-free subfit and clamp manually like fit_hazard
        inc = build_increments(curve, Window(0, 1), 20)
        fused = flsa_solve(inc.y, bootstrap_lambda(inc.y, TuningConfig(seed=2, l_boot=50)).lam)
        step = interpolate(fused, Window(0, 1))
        raw = step.levels / inc.scale
        clamped = np.maximum(raw, 0.0)
        assert np.all(clamped >= 0)

    def test_supplied_beta_skips_cox(self):
        sc = Scenario(hazard=two_level_hazard(), n=300, with_covariates=True, name="B1")
        frame = gen_scenario(sc, 1)
        cfg = FitConfig(
            window=Window(0, 1), tuning=TuningConfig(seed=1, l_boot=50), beta=[0.25, 1.0]
        )
        fit = fit_hazard(frame, cfg)
        assert fit.beta.tolist() == [0.25, 1.0]
        assert fit.cox is None

    def test_beta_dimension_checked(self):
        frame = gen_scenario(constant_scenario(50), 0)
        with pytest.raises(ValidationError):
            fit_hazard(frame, FitConfig(beta=[1.0], tuning=TuningConfig(seed=0, l_boot=10)))

    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_grid_below_two_rejected(self, grid_size):
        frame = gen_scenario(constant_scenario(50), 0)
        with pytest.raises(ValidationError, match=f"grid size must be >= 2, got {grid_size}"):
            fit_hazard(frame, FitConfig(grid_size=grid_size, tuning=TuningConfig(seed=0, l_boot=10)))

    def test_empty_risk_interval_warns(self, caplog):
        # nobody is at risk on (0.4, 0.6): late entries start at 0.6
        time = np.concatenate((np.linspace(0.05, 0.4, 40), np.linspace(0.65, 1.0, 40)))
        entry = np.concatenate((np.zeros(40), np.full(40, 0.6)))
        status = np.ones(80, dtype=int)
        frame = SurvivalFrame(time=time, status=status, entry=entry, covariates=np.empty((80, 0)))
        with caplog.at_level(logging.WARNING, logger="hazstep.pipeline"):
            fit_hazard(
                frame,
                FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=0, l_boot=20)),
            )
        [message] = [rec.message for rec in caplog.records if "empty risk" in rec.message]
        # grid t_j = j/80: nobody is at risk at t_33 = 0.4125, ..., t_47 = 0.5875
        # (t_48 = 48 * 0.0125 rounds to just above the late entries at 0.6)
        assert "in 15 of 80 grid cells" in message
        assert "the first (0.4, 0.4125]" in message

    def test_cox_separation_warns(self, caplog):
        # events only where w = 1: the partial likelihood is monotone in beta
        n = 200
        w = np.tile([0.0, 1.0], n // 2)
        frame = SurvivalFrame(
            time=np.linspace(0.01, 1.0, n),
            status=(w == 1).astype(int),
            entry=np.zeros(n),
            covariates=w[:, None],
        )
        with caplog.at_level(logging.WARNING, logger="hazstep.pipeline"):
            fit = fit_hazard(frame, FitConfig(tuning=TuningConfig(seed=0, l_boot=20)))
        assert not fit.cox.converged
        assert any("did not converge" in rec.message for rec in caplog.records)

    def test_integral_gap_finite_and_small(self):
        frame = gen_scenario(Scenario(hazard=two_level_hazard(), n=800, name="A1"), 9)
        fit = fit_hazard(
            frame, FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=9, l_boot=50))
        )
        gap = fit.integral_gap()
        assert np.isfinite(gap)
        # the fitted integral tracks the Breslow increment up to shrinkage
        assert abs(gap) < 0.5
