import math

import numpy as np
import pytest
from scipy import stats

from hazstep import (
    CENSORED_STATE,
    IllnessDeathModel,
    MultiStateFrame,
    Scenario,
    StepFunction,
    ValidationError,
    Window,
    gen_scenario,
    metric_dasym,
    metric_l2,
    metric_snr,
    named_scenario,
    run_study,
    sample_piecewise_exponential,
    simulate_illness_death,
    survival_curves,
    three_level_hazard,
    two_level_hazard,
)

W01 = Window(0, 1)


class TestSampler:
    def test_constant_hazard_is_scaled_exponential(self):
        hazard = StepFunction(W01, [], [2.5])
        draws = sample_piecewise_exponential(hazard, np.random.default_rng(4), size=1000)
        ref = np.random.default_rng(4).exponential(size=1000) / 2.5
        assert np.allclose(draws, ref, atol=1e-14)

    def test_identically_zero_rejected(self):
        with pytest.raises(ValidationError):
            sample_piecewise_exponential(StepFunction(W01, [], [0.0]), np.random.default_rng(0))

    def test_delayed_support(self):
        hazard = StepFunction(W01, [0.99], [0.0, 1.0])
        draws = sample_piecewise_exponential(hazard, np.random.default_rng(1), size=500)
        assert np.all(draws >= 0.99)

    def test_closed_form_cdf_at_jump(self):
        # P(T <= 0.25) = 1 - exp(-A(0.25)) = 1 - exp(-1) for the two-level shape
        n = 1_000_000
        draws = sample_piecewise_exponential(two_level_hazard(), np.random.default_rng(7), size=n)
        p_hat = np.mean(draws <= 0.25)
        p = 1 - np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * se

    def test_distribution_matches_inverse_cumulative(self):
        # Kolmogorov-Smirnov against the exact CDF at significance 1e-3
        hazard = three_level_hazard()
        draws = sample_piecewise_exponential(hazard, np.random.default_rng(3), size=1_000_000)

        def cdf(t):
            return 1.0 - np.exp(-hazard.cumulative(t))

        result = stats.kstest(draws, cdf)
        assert result.pvalue > 1e-3


class TestGenScenario:
    def test_bit_reproducible(self):
        sc = named_scenario("B2", 300)
        a = gen_scenario(sc, 123)
        b = gen_scenario(sc, 123)
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.covariates, b.covariates)

    def test_no_censoring(self):
        sc = Scenario(hazard=two_level_hazard(), n=200, censoring_rate=0.0)
        frame = gen_scenario(sc, 5)
        assert np.all(frame.status == 1)

    @pytest.mark.parametrize("name", ["A1", "B1", "A2", "B2"])
    def test_censoring_fraction_in_band(self, name):
        # the scenario family censors around 18-24% of subjects on average
        # (tolerance matches the acceptance band of 20-25% +- 2pp)
        fracs = [
            np.mean(gen_scenario(named_scenario(name, 800), seed).status == 0)
            for seed in range(25)
        ]
        assert 0.18 <= np.mean(fracs) <= 0.27

    def test_zero_beta_matches_no_covariate_marginal(self):
        base = Scenario(hazard=two_level_hazard(), n=4000, censoring_rate=0.0)
        with_cov = Scenario(
            hazard=two_level_hazard(),
            n=4000,
            censoring_rate=0.0,
            with_covariates=True,
            beta=np.zeros(2),
        )
        t1 = gen_scenario(base, 11).time
        t2 = gen_scenario(with_cov, 12).time
        assert stats.ks_2samp(t1, t2).pvalue > 1e-3

    def test_covariates_shift_the_distribution(self):
        sc = named_scenario("B1", 3000)
        frame = gen_scenario(sc, 2)
        assert set(np.unique(frame.covariates[:, 0])) == {-1.0, 1.0}
        assert np.all(np.abs(frame.covariates[:, 1]) <= 1.0)


class TestMetrics:
    def test_l2(self):
        assert metric_l2([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metric_l2(np.zeros(4) + 1, np.zeros(4)) == 1.0
        assert metric_l2([0.0, 0.0], [1.0, 3.0]) == 5.0
        with pytest.raises(ValidationError):
            metric_l2([1.0], [1.0, 2.0])

    def test_dasym(self):
        assert metric_dasym([0.2, 0.6], [0.2, 0.6]) == 0.0
        assert metric_dasym([0.5], [0.2, 0.6]) == pytest.approx(0.3)
        assert metric_dasym([0.1, 0.9], [0.5]) == pytest.approx(0.4)
        assert metric_dasym([], [0.5]) == math.inf
        with pytest.raises(ValidationError):
            metric_dasym([0.5], [])

    def test_dasym_zero_iff_truth_covered(self, rng):
        truth = rng.uniform(0, 1, 4)
        estimate = np.concatenate((truth, rng.uniform(0, 1, 3)))
        assert metric_dasym(estimate, truth) == 0.0
        assert metric_dasym(truth[:3], truth) > 0.0

    def test_snr(self):
        assert metric_snr([1.0, 1.0], [1.0, 2.0]) == 0.0
        assert metric_snr([1.0, 2.0], [1.0, 1.0]) == math.inf
        assert metric_snr([0.0, 2.0], [0.0, 1.0]) == pytest.approx(4.0)


class TestRunStudy:
    def test_deterministic(self):
        sc = named_scenario("A1", 200)
        a = run_study(sc, 4, seed=77)
        b = run_study(sc, 4, seed=77)
        assert a.to_json() == b.to_json()

    def test_single_replication_has_no_sd(self):
        report = run_study(named_scenario("A1", 200), 1, seed=3)
        assert math.isnan(report.aggregates()["l2_sq"]["sd"])

    def test_failures_recorded_not_dropped(self):
        report = run_study(named_scenario("A2", 150), 3, seed=8)
        assert len(report.rows) + len(report.failures) == 3

    def test_invalid_replications(self):
        with pytest.raises(ValidationError):
            run_study(named_scenario("A1", 100), 0, seed=1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_invalid_threads(self, threads):
        with pytest.raises(ValidationError, match=f"threads must be >= 1, got {threads}"):
            run_study(named_scenario("A1", 100), 2, seed=1, threads=threads)

    @pytest.mark.parametrize("n", [0, 1])
    def test_scenario_needs_two_subjects(self, n):
        with pytest.raises(ValidationError, match=f"sample size must be >= 2, got {n}"):
            named_scenario("A1", n)

    def test_threads_agree_with_serial(self):
        sc = named_scenario("A1", 150)
        serial = run_study(sc, 4, seed=55, threads=1)
        parallel = run_study(sc, 4, seed=55, threads=2)
        assert serial.to_json() == parallel.to_json()


class TestIllnessDeathSimulator:
    def test_zero_illness_intensity(self):
        model = IllnessDeathModel(
            a01=StepFunction(W01, [], [0.0]),
            a02=StepFunction(W01, [], [1.0]),
            a12=StepFunction(W01, [], [1.0]),
        )
        frame = simulate_illness_death(model, 300, 0.2, 9)
        assert np.all(frame.from_state == 0)
        assert np.all(np.isin(frame.to_state, [CENSORED_STATE, 2]))

    def test_unit_rates_match_closed_form_survival(self):
        model = IllnessDeathModel(
            a01=StepFunction(W01, [], [1.0]),
            a02=StepFunction(W01, [], [1.0]),
            a12=StepFunction(W01, [], [1.0]),
        )
        n = 200_000
        frame = simulate_illness_death(model, n, 0.0, 21)
        # overall survival: time of entering state 2
        times = frame.t_stop[frame.to_state == 2]
        assert np.array_equal(frame.id[frame.to_state == 2], np.arange(n))
        grid = np.array([0.25, 0.5, 1.0, 2.0])
        pfs, os_curve = survival_curves(model, grid)
        for t, s in zip(os_curve.grid[1:], os_curve.values[1:]):
            emp = np.mean(times > t)
            se = np.sqrt(s * (1 - s) / n)
            assert abs(emp - s) <= 4 * se

    def test_heavy_censoring(self):
        model = IllnessDeathModel(
            a01=StepFunction(W01, [], [0.5]),
            a02=StepFunction(W01, [], [0.5]),
            a12=StepFunction(W01, [], [0.5]),
        )
        frame = simulate_illness_death(model, 400, 200.0, 13)
        censored_in_0 = np.sum((frame.from_state == 0) & (frame.to_state == CENSORED_STATE))
        assert censored_in_0 >= 390

    def test_trajectories_validate(self):
        model = IllnessDeathModel(
            a01=StepFunction(W01, [0.3], [2.0, 1.0]),
            a02=StepFunction(W01, [], [0.6]),
            a12=StepFunction(W01, [], [1.5]),
        )
        frame = simulate_illness_death(model, 500, 0.4, 17)
        assert np.unique(frame.id).size == 500
        # rebuilt from reversed rows: subjects come in reverse order, each
        # with its rows in time order
        cols = ("id", "from_state", "to_state", "t_start", "t_stop")
        again = MultiStateFrame(**{c: getattr(frame, c)[::-1] for c in cols})
        assert again.id[0] == 499
        order = np.lexsort((again.t_start, again.id))
        for c in cols:
            assert np.array_equal(getattr(again, c)[order], getattr(frame, c))
