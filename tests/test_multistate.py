import logging
import re
import threading
import time

import numpy as np
import pytest

from conftest import (
    kaplan_meier_reference,
    rk4_state_probabilities,
    state_probabilities_knot_walk,
)
from hazstep import (
    CENSORED_STATE,
    FitConfig,
    IllnessDeathModel,
    MultiStateFrame,
    StepFunction,
    SurvivalFrame,
    TuningConfig,
    ValidationError,
    Window,
    fit_hazard,
    fit_illness_death_detailed,
    kaplan_meier,
    simulate_illness_death,
    split_transitions,
    state_probabilities,
    survival_curves,
    tuning,
)

W01 = Window(0, 1)


def constant_model(h01, h02, h12, domain=W01):
    return IllnessDeathModel(
        a01=StepFunction(domain, [], [h01]),
        a02=StepFunction(domain, [], [h02]),
        a12=StepFunction(domain, [], [h12]),
    )


def frame_of(time, status, entry=None):
    time = np.asarray(time, float)
    entry = np.zeros(time.size) if entry is None else np.asarray(entry, float)
    return SurvivalFrame(
        time=time, status=status, entry=entry, covariates=np.empty((time.size, 0))
    )


def random_hazard(rng, domain):
    """Up to four breaks; levels from a set whose sums often tie, or uniform."""
    breaks = np.unique(rng.uniform(domain.tau_min, domain.tau_max, rng.integers(0, 5)))
    if rng.random() < 0.5:
        levels = rng.choice([0.0, 0.5, 1.0, 2.0, 3.7], breaks.size + 1)
    else:
        levels = rng.uniform(0.0, 4.0, breaks.size + 1)
    return StepFunction(domain, breaks, levels)


class TestSurvivalCurves:
    @pytest.mark.parametrize("evaluate", [state_probabilities, survival_curves])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, evaluate, bad):
        # dropping the point would silently shorten the curve
        with pytest.raises(ValidationError, match="evaluation grid must be finite"):
            evaluate(constant_model(1.0, 1.0, 1.0), [0.0, 0.5, bad])

    @pytest.mark.parametrize("evaluate", [state_probabilities, survival_curves])
    @pytest.mark.parametrize(
        "grid, message",
        [
            ([0.5, -1.0, 0.7], "strictly increasing"),
            ([0.5, 0.7, 0.6], "strictly increasing"),
            ([0.5, 0.5], "strictly increasing"),
            ([-1.0, 0.5], ">= 0"),
        ],
    )
    def test_invalid_grid_rejected(self, evaluate, grid, message):
        # no point of the grid is dropped or reordered
        with pytest.raises(ValidationError, match=message):
            evaluate(constant_model(1.0, 1.0, 1.0), grid)

    @pytest.mark.parametrize(
        "grid, curve_grid",
        [([0.2, 0.5], [0.0, 0.2, 0.5]), ([0.0, 0.5], [0.0, 0.5]), ([], [0.0])],
    )
    def test_zero_prepended_only_to_a_later_start(self, grid, curve_grid):
        pfs, os_ = survival_curves(constant_model(1.0, 0.5, 2.0), grid)
        assert pfs.grid.tolist() == os_.grid.tolist() == curve_grid

    def test_bits_of_the_knot_walk(self):
        # the whole-array evaluation against the knot-by-knot one: random
        # hazards (zero rates, exit0 == h12 ties, breaks <= 0 when the
        # domain starts below 0) on grids from 0, from a later time, on the
        # breaks, empty, and from -0.0
        rng = np.random.default_rng(31)
        models = [
            constant_model(0.6, 0.4, 1.0),  # exit0 == h12
            constant_model(0.6, 0.4, 1.0 + 5e-11),  # |exit0 - h12| < 1e-10
            constant_model(0.0, 0.0, 0.0),
        ]
        for _ in range(300):
            domain = Window(rng.choice([0.0, 0.1, -0.5]), rng.uniform(0.6, 3.0))
            models.append(IllnessDeathModel(*(random_hazard(rng, domain) for _ in range(3))))
        for model in models:
            breaks = np.concatenate((model.a01.breaks, model.a02.breaks, model.a12.breaks))
            grids = (
                np.linspace(0.0, 3.0, 31),
                np.sort(rng.uniform(0.05, 4.0, 12)),
                np.union1d(breaks[breaks > 0], [0.5, 3.5]),
                np.empty(0),
                np.array([-0.0, 0.25, 1.0]),
            )
            for grid in grids:
                got = state_probabilities(model, grid)
                want = state_probabilities_knot_walk(model, grid)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_bits_of_the_knot_walk_on_a_long_grid(self):
        rng = np.random.default_rng(32)
        model = IllnessDeathModel(*(random_hazard(rng, Window(0.0, 2.0)) for _ in range(3)))
        grid = np.linspace(0.0, 3.0, 100_001)
        got = state_probabilities(model, grid)
        want = state_probabilities_knot_walk(model, grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_unit_rates_closed_form(self):
        model = constant_model(1.0, 1.0, 1.0)
        grid = np.linspace(0, 2, 21)
        pfs, os_ = survival_curves(model, grid)
        assert np.allclose(pfs.values, np.exp(-2 * pfs.grid), atol=1e-12)
        assert np.allclose(os_.values, np.exp(-os_.grid), atol=1e-12)

    def test_fast_second_transition_closed_form(self):
        # one segment of length 1 where -rate * delta = 2999 overflows exp
        pfs, os_ = survival_curves(constant_model(1.0, 0.0, 3000.0), [1.0])
        assert pfs.values[-1] == np.exp(-1.0)
        want = np.exp(-1.0) + (np.exp(-1.0) - np.exp(-3000.0)) / 2999.0
        assert os_.values[-1] == pytest.approx(want, rel=1e-14)

    def test_no_illness_path(self):
        model = constant_model(0.0, 0.7, 1.0)
        grid = np.linspace(0, 3, 13)
        pfs, os_ = survival_curves(model, grid)
        assert np.allclose(pfs.values, os_.values, atol=1e-14)
        assert np.allclose(pfs.values, np.exp(-0.7 * pfs.grid), atol=1e-12)

    def test_probability_conservation_and_ordering(self, rng):
        for _ in range(10):
            model = IllnessDeathModel(
                a01=StepFunction(W01, [0.3], rng.uniform(0.2, 3.0, 2)),
                a02=StepFunction(W01, [0.5], rng.uniform(0.2, 3.0, 2)),
                a12=StepFunction(W01, [0.25, 0.7], rng.uniform(0.2, 3.0, 3)),
            )
            grid = np.linspace(0, 2.5, 41)
            p00, p01 = state_probabilities(model, grid)
            p02 = 1.0 - p00 - p01
            assert np.all(p00 >= -1e-12)
            assert np.all(p01 >= -1e-12)
            assert np.all(p02 >= -1e-10)
            pfs, os_ = survival_curves(model, grid)
            # state-0 occupation is included in not-yet-absorbed, exactly
            assert np.all(pfs.values <= os_.values + 1e-12)
            assert pfs.values[0] == 1.0
            assert os_.values[0] == 1.0

    def test_matches_rk4_oracle(self, rng):
        for trial in range(6):
            model = IllnessDeathModel(
                a01=StepFunction(W01, [0.4], rng.uniform(0.3, 2.5, 2)),
                a02=StepFunction(W01, [0.6], rng.uniform(0.3, 2.5, 2)),
                a12=StepFunction(W01, [0.2, 0.55], rng.uniform(0.3, 2.5, 3)),
            )
            for t_end in (0.8, 1.7):
                p00, p01 = state_probabilities(model, np.array([t_end]))
                r00, r01 = rk4_state_probabilities(model.a01, model.a02, model.a12, t_end)
                assert p00[0] == pytest.approx(r00, abs=1e-8)
                assert p01[0] == pytest.approx(r01, abs=1e-8)

    def test_removable_singularity_when_rates_match(self):
        # exit rate from state 0 equals the 1->2 rate: the convolution
        # integral degenerates to delta * exp(-h*delta)
        model = constant_model(0.6, 0.4, 1.0)  # a01+a02 == a12 == 1
        grid = np.array([0.5, 1.0, 2.0])
        p00, p01 = state_probabilities(model, grid)
        expected_p01 = 0.6 * grid * np.exp(-grid)
        assert np.allclose(p01, expected_p01, atol=1e-12)
        r00, r01 = rk4_state_probabilities(model.a01, model.a02, model.a12, 2.0)
        assert p01[-1] == pytest.approx(r01, abs=1e-8)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            IllnessDeathModel(
                a01=StepFunction(W01, [], [-0.1]),
                a02=StepFunction(W01, [], [1.0]),
                a12=StepFunction(W01, [], [1.0]),
            )


class TestKaplanMeier:
    def test_hand_product_limit(self):
        curve = kaplan_meier(frame_of([1.0, 2.0, 3.0], [1, 1, 1]))
        assert curve.grid.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.allclose(curve.values, [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-15)

    def test_no_events(self):
        curve = kaplan_meier(frame_of([1.0, 2.0], [0, 0]))
        assert curve.values.tolist() == [1.0]

    def test_single_censored_subject(self):
        curve = kaplan_meier(frame_of([2.0], [0]))
        assert curve.values.tolist() == [1.0]

    def test_uncensored_equals_empirical_survival(self, rng):
        time = rng.exponential(1.0, 200)
        curve = kaplan_meier(frame_of(time, np.ones(200, dtype=int)))
        for t, v in zip(curve.grid[1:], curve.values[1:]):
            assert v == pytest.approx(np.mean(time > t), abs=1e-12)

    def test_left_truncation_adjusts_risk_sets(self):
        # late entrant is not at risk for the first event
        curve = kaplan_meier(frame_of([1.0, 3.0], [1, 1], entry=[0.0, 2.0]))
        assert np.allclose(curve.values, [1.0, 0.0, 0.0])

    def test_matches_brute_force_risk_sets(self, rng):
        # ties (times rounded to 0.01), censoring, and left truncation
        n = 300
        time = np.round(rng.uniform(0.05, 3.0, n), 2)
        status = rng.integers(0, 2, n)
        for entry in (np.zeros(n), time * rng.choice([0.0, 0.3, 0.8], n)):
            curve = kaplan_meier(frame_of(time, status, entry))
            grid, values = kaplan_meier_reference(time, status, entry)
            assert np.array_equal(curve.grid, grid)
            assert np.array_equal(curve.values, values)


class TestFitIllnessDeath:
    def test_zero_events_named(self):
        # nobody ever moves 0 -> 2 directly
        rng = np.random.default_rng(5)
        t1 = rng.uniform(0.2, 2.0, 25)
        t2 = t1 + rng.uniform(0.2, 2.0, 25)
        ids = np.arange(35)
        frame = MultiStateFrame(
            id=np.concatenate((ids, ids[:25])),
            from_state=np.repeat([0, 1], [35, 25]),
            to_state=np.concatenate(
                (np.ones(25, int), np.full(10, CENSORED_STATE), np.full(25, 2))
            ),
            t_start=np.concatenate((np.zeros(35), t1)),
            t_stop=np.concatenate((t1, rng.uniform(0.2, 2.0, 10), t2)),
        )
        with pytest.raises(ValidationError, match=r"transition \(0, 2\)"):
            fit_illness_death_detailed(
                frame, FitConfig(tuning=TuningConfig(seed=0, l_boot=10))
            )

    def test_delayed_entry_kept(self):
        # subjects enter state 0 at times in [0.05, 0.3): every transition
        # fit is the fit of its own split frame, truncation included
        records = simulate_illness_death(constant_model(1.0, 0.5, 2.0), 1500, 0.3, 21)
        delay = np.random.default_rng(21).uniform(0.05, 0.3, 1500)[records.subject]
        frame = MultiStateFrame(
            id=records.id,
            from_state=records.from_state,
            to_state=records.to_state,
            t_start=records.t_start + delay,
            t_stop=records.t_stop + delay,
        )
        cfg = FitConfig(tuning=TuningConfig(seed=4, l_boot=20))
        fits = fit_illness_death_detailed(frame, cfg)
        for tr in ((0, 1), (0, 2), (1, 2)):
            sub = split_transitions(frame, tr)
            assert np.all(sub.entry > 0)
            assert fits[tr].to_json() == fit_hazard(sub, cfg).to_json()

    def test_constant_hazards_recovered(self):
        # calibrated: each transition fit is flat (<= 2 change points) and
        # within 25% of the truth on the window interior
        model = constant_model(1.0, 0.5, 2.0, domain=Window(0, 1.5))
        records = simulate_illness_death(model, 2000, 0.3, 99)
        fits = fit_illness_death_detailed(
            records, FitConfig(tuning=TuningConfig(l_boot=100, seed=3))
        )
        for (src, dst), truth in (((0, 1), 1.0), ((0, 2), 0.5), ((1, 2), 2.0)):
            fit = fits[(src, dst)]
            assert fit.changepoints.size <= 2
            mid = 0.5 * (fit.window.tau_min + fit.window.tau_max)
            assert abs(float(fit.hazard(mid)) - truth) <= 0.25 * truth

    def test_shape_hazards_changepoints_close(self):
        # transition hazards with the two- and three-level step shapes:
        # estimated change points stay within 0.05 of the truth
        model = IllnessDeathModel(
            a01=StepFunction(W01, [0.25], [4.0, 1.0]),
            a02=StepFunction(W01, [], [0.5]),
            a12=StepFunction(W01, [0.2, 0.6], [4.0, 1.5, 0.5]),
        )
        from hazstep import metric_dasym

        records = simulate_illness_death(model, 5000, 0.25, 12)
        fits = fit_illness_death_detailed(
            records, FitConfig(tuning=TuningConfig(l_boot=100, seed=12))
        )
        d01 = metric_dasym(fits[(0, 1)].changepoints, [0.25])
        d12 = metric_dasym(fits[(1, 2)].changepoints, [0.2, 0.6])
        assert d01 <= 0.05
        assert d12 <= 0.05

    def test_model_json_roundtrip(self):
        model = constant_model(1.0, 0.5, 2.0)
        back = IllnessDeathModel.from_dict(model.to_dict())
        assert np.array_equal(back.a01.levels, model.a01.levels)
        assert back.a12.domain == model.a12.domain


class TestConcurrentFits:
    """The three transition fits run side by side in threads."""

    @pytest.fixture(scope="class")
    def frame(self):
        return simulate_illness_death(constant_model(1.0, 0.5, 2.0), 800, 0.3, 31)

    @staticmethod
    def seeded(seed0):
        return {
            tr: FitConfig(p_high=0.95, tuning=TuningConfig(l_boot=40, seed=seed0 + i))
            for i, tr in enumerate(((0, 1), (0, 2), (1, 2)))
        }

    @pytest.mark.parametrize("per_transition", [False, True], ids=["one-config", "dict"])
    def test_fits_equal_sequential_fits(self, frame, per_transition):
        one = FitConfig(tuning=TuningConfig(l_boot=40, seed=7))
        config = self.seeded(7) if per_transition else one
        fits = fit_illness_death_detailed(frame, config)
        assert list(fits) == [(0, 1), (0, 2), (1, 2)]
        for tr, fit in fits.items():
            cfg = config[tr] if per_transition else config
            alone = fit_hazard(split_transitions(frame, tr), cfg)
            assert fit.to_json() == alone.to_json()
            assert fit.tuning.u_boot.tobytes() == alone.tuning.u_boot.tobytes()
            assert fit.tuning.residuals.tobytes() == alone.tuning.residuals.tobytes()

    def test_calling_thread_fits_01_helper_fits_the_rest(self, frame, monkeypatch):
        threads = {}

        def recording(sub, cfg):
            threads[cfg.tuning.seed] = threading.get_ident()
            return fit_hazard(sub, cfg)

        monkeypatch.setattr("hazstep.multistate.fit_hazard", recording)
        fit_illness_death_detailed(frame, self.seeded(1))
        assert threads[1] == threading.get_ident()
        assert threads[2] == threads[3] != threads[1]

    def test_first_error_in_transition_order_and_no_thread_left(self, frame, monkeypatch, caplog):
        start = threading.active_count()
        helpers = []

        def failing(sub, cfg):
            seed = cfg.tuning.seed
            if threading.current_thread() is not threading.main_thread():
                helpers.append(seed)
                logging.getLogger("hazstep.pipeline").warning("helper fit of seed %d", seed)
            if seed == 12:
                raise ValidationError("fit of (0, 2) failed")
            if seed == 13:
                raise ValidationError("fit of (1, 2) failed")
            return fit_hazard(sub, cfg)

        fit_illness_death_detailed(frame, self.seeded(1))
        assert threading.active_count() == start
        monkeypatch.setattr("hazstep.multistate.fit_hazard", failing)
        with caplog.at_level(logging.WARNING, logger="hazstep.pipeline"):
            with pytest.raises(ValidationError, match=r"fit of \(0, 2\) failed"):
                fit_illness_death_detailed(frame, self.seeded(11))
        assert threading.active_count() == start
        assert helpers == [12]  # (1, 2) does not start once (0, 2) has failed
        main = threading.main_thread().ident
        logged = [r.getMessage() for r in caplog.records if r.thread != main]
        assert logged == ["helper fit of seed 12"]

    @pytest.mark.parametrize("error", [ValidationError, KeyboardInterrupt])
    def test_calling_thread_error_stops_the_helper(self, frame, monkeypatch, error):
        start = threading.active_count()
        failed = threading.Event()
        seeds = []

        def failing(sub, cfg):
            seeds.append(cfg.tuning.seed)
            if cfg.tuning.seed == 1:
                failed.set()
                raise error("fit of (0, 1) failed")
            if cfg.tuning.seed == 2:
                failed.wait(5)
                time.sleep(0.05)  # the calling thread is past its raise by now
            return fit_hazard(sub, cfg)

        monkeypatch.setattr("hazstep.multistate.fit_hazard", failing)
        with pytest.raises(error, match=r"fit of \(0, 1\) failed"):
            fit_illness_death_detailed(frame, self.seeded(1))
        assert threading.active_count() == start
        assert sorted(seeds) == [1, 2]

    def test_nested_bootstraps_start_no_helper(self, frame, monkeypatch):
        # the helper fit holds the one spare CPU, so each bootstrap reduces on
        # the thread that called it, though every one has blocks enough
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        monkeypatch.setattr(tuning, "_PIPELINE_BLOCKS", 1)
        callers, reducers = set(), set()
        bootstrap_stats, noise_max = tuning._bootstrap_stats, tuning._noise_max

        def calling(*args):
            callers.add(threading.current_thread())
            return bootstrap_stats(*args)

        def reducing(*args):
            reducers.add(threading.current_thread())
            noise_max(*args)

        monkeypatch.setattr(tuning, "_bootstrap_stats", calling)
        monkeypatch.setattr(tuning, "_noise_max", reducing)
        start = threading.active_count()
        fit_illness_death_detailed(frame, self.seeded(1))
        assert len(callers) == 2 and reducers == callers
        assert threading.active_count() == start
        assert budget.acquire(blocking=False)  # given back

    @pytest.mark.parametrize("key", [(1, 0), (0, 3), "01"])
    def test_unknown_config_key_rejected(self, frame, key):
        config = {(0, 1): FitConfig(), key: FitConfig(tuning=TuningConfig(seed=5))}
        message = re.escape(f"config key {key!r} is not a transition")
        with pytest.raises(ValidationError, match=message):
            fit_illness_death_detailed(frame, config)
