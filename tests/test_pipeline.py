import dataclasses
import logging
import os
import threading
import weakref

import numpy as np
import pytest

from conftest import dp_solve_oracle
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
    kkt_residual,
    named_scenario,
    pipeline,
    three_level_hazard,
    tuning,
    two_level_hazard,
)
from hazstep.estimators import BreslowCurve
from hazstep.flsa import interpolate


TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


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
        y = build_increments(curve, Window(0, 1), m)
        tuning = bootstrap_lambda(y, TuningConfig(seed=0, l_boot=50))
        fit = flsa_solve(y, tuning.lam)
        assert np.array_equal(y, levels)
        assert tuning.lam == 0.0
        assert np.array_equal(fit.alpha, y)
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

    def test_one_split_tree_per_fit(self, split_trees):
        # the pilot path, the pilot solve and the final solve read one tree
        frame = gen_scenario(named_scenario("B2", 300), 3)
        fit = fit_hazard(frame, FitConfig(tuning=TuningConfig(seed=1, l_boot=30)))
        y = fit.flsa.y
        assert len(split_trees) == 1 and split_trees[0] is y  # the fit shares its tree's y
        pilot = flsa_solve(y, fit.tuning.lambda0)
        assert (y - pilot.alpha).tobytes() == fit.tuning.residuals.tobytes()
        assert flsa_solve(y, fit.tuning.lam).alpha.tobytes() == fit.flsa.alpha.tobytes()

    def test_one_increment_vector(self):
        frame = gen_scenario(constant_scenario(300), 2)
        fit = fit_hazard(frame, FitConfig(tuning=TuningConfig(seed=2, l_boot=40)))
        # fit.flsa.y is the increment sample, and no other record of the fit holds it
        expected = build_increments(fit.cumulative, fit.window, fit.flsa.m)
        records = [fit, fit.cumulative, fit.tuning, fit.hazard, fit.flsa]
        holders = [
            (type(r).__name__, f.name)
            for r in records
            for f in dataclasses.fields(r)
            if np.array_equal(getattr(r, f.name), expected)
        ]
        assert holders == [("FusedLassoFit", "y")]
        assert fit.window is fit.hazard.domain
        assert fit.to_dict()["grid_size"] == fit.flsa.m == 300

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
        y = build_increments(curve, Window(0, 1), 20)
        fused = flsa_solve(y, bootstrap_lambda(y, TuningConfig(seed=2, l_boot=50)).lam)
        step = interpolate(fused, Window(0, 1))
        raw = step.levels / Window(0, 1).length
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

    def test_grid_must_be_an_integer(self):
        # a float grid size used to pass and fail inside fit_hazard with a TypeError
        with pytest.raises(ValidationError, match="^grid size must be >= 2, got 50.5$"):
            FitConfig(grid_size=50.5)
        with pytest.raises(ValidationError, match="^grid size must be >= 1, got 2.5$"):
            discretize_truth(two_level_hazard(), Window(0, 1), 2.5)

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

    def test_real_increments_certified(self, caplog):
        # Breslow increments of a Cox fit, not synthetic y: the tuned fit is
        # optimal, and both solves of the fit agree with the DP oracle
        sc = named_scenario("B1", 20_000)
        with caplog.at_level(logging.WARNING, logger="hazstep.tuning"):
            fit = fit_hazard(
                gen_scenario(sc, 4),
                FitConfig(window=sc.window, tuning=TuningConfig(seed=4, l_boot=20)),
            )
        y = fit.flsa.y
        assert fit.flsa.m == 20_000
        assert kkt_residual(fit.flsa) <= 1e-9
        for lam in (fit.tuning.lam, fit.tuning.lambda0):
            expected = np.flatnonzero(np.diff(dp_solve_oracle(y, lam))) + 1
            assert np.array_equal(flsa_solve(y, lam).changepoints, expected)
        assert not [rec for rec in caplog.records if "disagree" in rec.message]

    def test_integral_gap_finite_and_small(self):
        frame = gen_scenario(Scenario(hazard=two_level_hazard(), n=800, name="A1"), 9)
        fit = fit_hazard(
            frame, FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=9, l_boot=50))
        )
        gap = fit.integral_gap()
        assert np.isfinite(gap)
        # the fitted integral tracks the Breslow increment up to shrinkage
        assert abs(gap) < 0.5


@pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
class TestDrawAhead:
    """fit_hazard queues the worker's draw once the Cox step is done."""

    @pytest.fixture
    def budget(self, monkeypatch):
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        monkeypatch.setattr(tuning, "_DRAW_AHEAD", 1)
        tuning._worker()  # the process's one worker; no fit starts a thread
        start = threading.active_count()
        yield budget
        assert threading.active_count() == start
        assert budget.acquire(blocking=False)  # the token is given back
        budget.release()

    @staticmethod
    def held(budget):
        free = budget.acquire(blocking=False)
        if free:
            budget.release()
        return not free

    def test_bytes_equal_on_both_paths(self, budget, monkeypatch):
        frame = gen_scenario(named_scenario("B2", 1000), 3)
        config = FitConfig(tuning=TuningConfig(seed=5, l_boot=100))
        ahead = fit_hazard(frame, config)
        monkeypatch.setattr(tuning, "_DRAW_AHEAD", 1 << 62)
        serial = fit_hazard(frame, config)
        assert ahead.tuning.u_boot.tobytes() == serial.tuning.u_boot.tobytes()
        assert ahead.to_json() == serial.to_json()

    def test_draw_starts_after_cox(self, budget, monkeypatch):
        seen = []

        def observed(name, step):
            def call(*args):
                seen.append((name, self.held(budget)))
                return step(*args)

            return call

        for name in ("cox_fit", "breslow_fit"):
            monkeypatch.setattr(pipeline, name, observed(name, getattr(pipeline, name)))
        fit_hazard(gen_scenario(named_scenario("B2", 300), 4), FitConfig())
        assert seen == [("cox_fit", False), ("breslow_fit", True)]

    @pytest.mark.parametrize("error", [ValidationError, KeyboardInterrupt])
    def test_error_while_drawing_ahead_leaves_the_worker_idle(self, budget, monkeypatch, error):
        # build_increments fails once the worker has drawn its first block and waits for
        # the residuals: the worker drops its block and job, and the next fit is unchanged
        frame, config = gen_scenario(named_scenario("B2", 300), 4), FitConfig()
        before = fit_hazard(frame, config)
        blocks, drawn = [], threading.Event()

        class Recording(np.random.Generator):
            def standard_normal(self, out):
                blocks.append(weakref.ref(out.base))
                drawn.set()
                return super().standard_normal(out=out)

        def failing(*args):
            assert drawn.wait(10) and self.held(budget)
            raise error("no increments")

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda seed: Recording(np.random.PCG64(seed)))
            patch.setattr(pipeline, "build_increments", failing)
            with pytest.raises(error, match="no increments"):
                fit_hazard(frame, config)
        assert blocks and all(block() is None for block in blocks)  # no buffer held
        assert tuning._WORKER.empty() and not self.held(budget)
        assert fit_hazard(frame, config).to_json() == before.to_json()

    def test_one_record_frame(self, budget):
        frame = SurvivalFrame(
            time=np.array([1.0]), status=np.array([1]), entry=np.zeros(1),
            covariates=np.empty((1, 0)),
        )
        with pytest.raises(ValidationError, match="^need at least 2 distinct uncensored event times$"):
            fit_hazard(frame)
