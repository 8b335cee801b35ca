import logging
import tracemalloc

import numpy as np
import pytest

from hazstep import (
    TuningConfig,
    ValidationError,
    bootstrap_lambda,
    effective_noise,
    flsa_path,
    flsa_solve,
    pilot_lambda,
)
from hazstep import tuning
from hazstep.tuning import _BLOCK


def centered_design_noise(u):
    """Dense-matrix oracle: 2 * ||(X^c)' u^c||_inf / n."""
    u = np.asarray(u, float)
    n = u.size
    X = (np.arange(1, n + 1)[:, None] >= np.arange(2, n + 1)[None, :]).astype(float)
    Xc = X - X.mean(axis=0, keepdims=True)
    uc = u - u.mean()
    return float(2.0 * np.max(np.abs(Xc.T @ uc)) / n)


def pilot_instance(rng, family: int) -> np.ndarray:
    """One signal of a family the pilot must handle, m <= 300."""
    m = int(rng.integers(2, 301))
    if family == 0:  # normal noise
        return rng.normal(size=m)
    if family == 1:  # noisy steps
        levels = rng.normal(scale=3.0, size=int(rng.integers(1, 8)))
        cuts = np.sort(rng.integers(0, m, size=levels.size - 1))
        return np.repeat(levels, np.diff(np.concatenate(([0], cuts, [m])))) + rng.normal(size=m)
    if family == 2:  # integer ties
        return rng.integers(0, 4, size=m).astype(float)
    if family == 3:  # magnitudes 1e-12 .. 1e12
        return rng.normal(size=m) * 10.0 ** int(rng.integers(-12, 13))
    if family == 4:  # rounded exponentials, as Breslow increments come
        return np.round(rng.exponential(size=m), int(rng.integers(0, 4)))
    if family == 5:  # m = 2
        return rng.normal(size=2)
    return np.full(m, float(rng.normal()))  # constant


class TestPilot:
    def test_already_sparse_signal_gives_zero(self):
        y = np.where(np.arange(40) < 15, 4.0, 1.0)
        assert pilot_lambda(y, 20) == 0.0

    def test_two_points_kmax_zero(self):
        # the single merge event sits at lambda = 1/2
        assert pilot_lambda(np.array([0.0, 1.0]), 0) == pytest.approx(0.5, abs=1e-12)

    def test_counts_bracket_kmax(self):
        # lambda0 comes off the path alone; the exact solver must agree with it
        rng = np.random.default_rng(20261018)
        for i in range(1050):
            y = pilot_instance(rng, i % 7)
            k_max = (0, 1, 5, 20)[(i // 7) % 4]
            lam0 = pilot_lambda(y, k_max)
            assert flsa_solve(y, lam0).changepoints.size <= k_max, (i, k_max)
            assert flsa_solve(y, lam0 * (1 + 1e-6)).changepoints.size <= k_max, (i, k_max)
            if lam0 > 0:
                assert flsa_solve(y, lam0 * (1 - 1e-6)).changepoints.size > k_max, (i, k_max)
            else:
                assert lam0 == 0.0 and flsa_path(y)[0].changepoint_count <= k_max

    def test_consistent_with_path(self, rng):
        y = rng.normal(size=60)
        path = flsa_path(y)
        lam0 = pilot_lambda(y, 10)
        below = [p.changepoint_count for p in path if p.lam < lam0 * (1 - 1e-9)]
        at = [p.changepoint_count for p in path if p.lam <= lam0 * (1 + 1e-9)]
        assert below[-1] > 10
        assert at[-1] <= 10


class TestEffectiveNoise:
    def test_zero(self):
        assert effective_noise(np.zeros(10)) == 0.0

    def test_hand_computed_two_point(self):
        # U_2 = 2*|-(1/2)*1 + (1/4)*0| = 1
        assert effective_noise([1.0, -1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_matches_dense_matrix_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 120))
            u = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
            assert effective_noise(u) == pytest.approx(
                centered_design_noise(u), abs=1e-12 * max(1.0, np.max(np.abs(u)))
            )

    def test_requires_two_points(self):
        with pytest.raises(ValidationError):
            effective_noise([1.0])

    def test_bit_equal_to_written_order_of_operations(self, rng):
        # seeded u_boot and lambda stay reproducible across versions only while
        # the statistic keeps this order of floating-point operations
        for _ in range(20):
            n = int(rng.integers(2, 3000))
            u = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            s = np.cumsum(u)
            stats = -s[:-1] / n + np.arange(1, n) * s[-1] / n**2
            assert effective_noise(u) == 2.0 * np.max(np.abs(stats))


class TestBootstrap:
    def test_piecewise_constant_signal_gives_zero_lambda(self):
        y = np.where(np.arange(50) < 20, 3.0, 1.0)
        result = bootstrap_lambda(y, TuningConfig(seed=1, l_boot=64))
        assert result.lam == 0.0
        assert np.all(result.residuals == 0)
        assert np.all(result.u_boot == 0)
        # the final fit reproduces the signal exactly
        assert np.array_equal(flsa_solve(y, result.lam).alpha, y)

    @pytest.mark.parametrize("y", [[], [1.0]], ids=["empty", "one"])
    def test_requires_two_points(self, y):
        with pytest.raises(ValidationError, match=f"need at least 2 observations, got {len(y)}"):
            bootstrap_lambda(y, TuningConfig(l_boot=5))

    def test_pilot_disagreement_is_logged(self, rng, caplog, monkeypatch):
        y = np.repeat([3.0, 1.0, 2.0], 40) + rng.normal(size=120)
        lam0 = pilot_lambda(y, 2)
        with caplog.at_level(logging.WARNING, logger="hazstep.tuning"):
            bootstrap_lambda(y, TuningConfig(k_max=2, l_boot=20, seed=1))
            assert not caplog.records
            # a lambda below the true lambda0 stands in for a path that is off
            monkeypatch.setattr(tuning, "pilot_lambda", lambda y, k_max: 0.5 * lam0)
            result = bootstrap_lambda(y, TuningConfig(k_max=2, l_boot=20, seed=1))
        assert result.lambda0 == 0.5 * lam0
        [record] = caplog.records
        assert "more than k_max = 2" in record.message and "disagree" in record.message

    def test_deterministic_given_seed(self, rng):
        y = rng.normal(size=80)
        a = bootstrap_lambda(y, TuningConfig(seed=123, l_boot=50))
        b = bootstrap_lambda(y, TuningConfig(seed=123, l_boot=50))
        assert a.lam == b.lam
        assert np.array_equal(a.u_boot, b.u_boot)
        assert a.to_json() == b.to_json()

    def test_order_statistic_convention(self, rng):
        y = rng.normal(size=60)
        result = bootstrap_lambda(y, TuningConfig(q=0.9, l_boot=1000, seed=5))
        assert result.u_boot.size == 1000
        assert result.lam == np.sort(result.u_boot)[899]  # ceil(0.9*1000) = 900th

    def test_lambda_nondecreasing_in_q(self, rng):
        y = rng.normal(size=60)
        lams = [
            bootstrap_lambda(y, TuningConfig(q=q, l_boot=200, seed=9)).lam
            for q in (0.1, 0.5, 0.9, 0.99)
        ]
        assert all(b >= a for a, b in zip(lams[:-1], lams[1:]))

    def test_scaling_by_positive_constant(self, rng):
        y = rng.normal(size=70)
        c = 3.0
        a = bootstrap_lambda(y, TuningConfig(seed=11, l_boot=100))
        b = bootstrap_lambda(c * y, TuningConfig(seed=11, l_boot=100))
        assert np.allclose(b.residuals, c * a.residuals, atol=1e-12)
        assert np.allclose(b.u_boot, c * a.u_boot, rtol=1e-12)
        assert b.lam == pytest.approx(c * a.lam, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TuningConfig(q=1.0)
        with pytest.raises(ValidationError):
            TuningConfig(l_boot=0)
        with pytest.raises(ValidationError):
            TuningConfig(k_max=-1)
        with pytest.raises(ValidationError, match="seed"):
            TuningConfig(seed=-1)

    def test_streamed_rows_match_single_draw(self, rng):
        # the rows are drawn in blocks; u_boot must equal the statistics of
        # one (L, m) draw bit for bit, the ragged last block included
        m, l_boot, seed = 30_000, 101, 17
        rows = _BLOCK // m
        assert 1 < rows < l_boot and l_boot % rows != 0
        y = np.repeat([2.0, 0.5, 1.5], m // 3) + rng.normal(size=m)
        result = bootstrap_lambda(y, TuningConfig(q=0.9, l_boot=l_boot, seed=seed))
        eps = np.random.default_rng(seed).standard_normal((l_boot, m))
        for row in range(l_boot):
            assert result.u_boot[row] == effective_noise(result.residuals * eps[row])
        assert result.lam == np.sort(result.u_boot)[90]  # ceil(0.9*101) = 91st

    def test_memory_linear_in_m(self, rng):
        # one (L, m) float64 matrix alone would take 80 MB here; a small m
        # keeps the pilot's Python loops quick under tracemalloc
        m, l_boot = 2_000, 5_000
        y = np.repeat([2.0, 0.5], m // 2) + rng.normal(size=m)
        tracemalloc.start()
        try:
            bootstrap_lambda(y, TuningConfig(l_boot=l_boot, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
