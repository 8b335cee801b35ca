import numpy as np
import pytest

from conftest import (
    elementwise_bound_check,
    fused_objective,
    reparametrized_check,
    tv_denoise_oracle,
)
from hazstep import ValidationError, Window, flsa_path, flsa_solve, interpolate, kkt_residual


def random_instance(rng, max_m=60):
    m = int(rng.integers(1, max_m))
    kind = rng.integers(0, 3)
    if kind == 0:
        y = rng.normal(size=m)
    elif kind == 1:
        y = np.round(rng.normal(size=m) * 2) / 2  # heavy ties
    else:
        y = np.repeat(rng.normal(size=m // 4 + 1), 4)[:m] + 0.1 * rng.normal(size=m)
    lam = float(rng.uniform(0, 1.0)) * 10.0 ** rng.integers(-3, 1)
    return y, lam


class TestSolveBasics:
    def test_lambda_zero_returns_data(self, rng):
        y = rng.normal(size=17)
        assert np.array_equal(flsa_solve(y, 0.0).alpha, y)

    def test_saturation_returns_mean(self, rng):
        y = rng.normal(size=23)
        sat = flsa_path(y)[-1].lam
        fit = flsa_solve(y, sat * 1.01)
        assert np.allclose(fit.alpha, np.mean(y), atol=1e-12)
        assert fit.changepoints.size == 0

    def test_hand_solved_two_block_instance(self):
        # stationarity per block gives c1 = m*lam/4, c2 = 1 - m*lam/4
        fit = flsa_solve([0.0, 0.0, 1.0, 1.0], 0.25, m=4)
        assert np.allclose(fit.alpha, [0.25, 0.25, 0.75, 0.75], atol=1e-12)
        assert fit.blocks == [(0, 1, 0.25), (2, 3, 0.75)]
        assert fit.changepoints.tolist() == [2]

    def test_degenerate_single_point(self):
        fit = flsa_solve([3.0], 5.0)
        assert fit.alpha.tolist() == [3.0]

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            flsa_solve([1.0, np.nan], 0.1)
        with pytest.raises(ValidationError):
            flsa_solve([1.0, 2.0], -0.1)
        with pytest.raises(ValidationError):
            flsa_solve([1.0, 2.0], 0.1, m=3)


class TestOptimality:
    def test_kkt_certificate_and_exact_oracle(self, rng):
        worst_kkt = 0.0
        worst_gap = 0.0
        worst_diff = 0.0
        for _ in range(120):
            y, lam = random_instance(rng)
            fit = flsa_solve(y, lam)
            scale = max(1.0, float(np.max(np.abs(y))))
            worst_kkt = max(worst_kkt, kkt_residual(fit) / scale)
            oracle = tv_denoise_oracle(y, lam)
            gap = fused_objective(y, fit.alpha, lam) - fused_objective(y, oracle, lam)
            worst_gap = max(worst_gap, gap / max(1.0, scale**2))
            worst_diff = max(worst_diff, float(np.max(np.abs(fit.alpha - oracle))) / scale)
        assert worst_kkt <= 1e-9
        assert worst_gap <= 1e-9
        assert worst_diff <= 1e-9

    def test_block_boundary_identity(self, rng):
        # (2/m) * sum_block (c - y_j) = lam * (sigma_right - sigma_left)
        for _ in range(60):
            y, lam = random_instance(rng)
            if lam == 0:
                lam = 0.05
            fit = flsa_solve(y, lam)
            m = y.size
            for b, (s, e, c) in enumerate(fit.blocks):
                sig_l = 0.0 if b == 0 else np.sign(c - fit.blocks[b - 1][2])
                sig_r = 0.0 if b == len(fit.blocks) - 1 else np.sign(fit.blocks[b + 1][2] - c)
                lhs = (2.0 / m) * np.sum(c - y[s : e + 1])
                assert lhs == pytest.approx(lam * (sig_r - sig_l), abs=1e-9)

    def test_scaling_equivariance(self, rng):
        y, lam = random_instance(rng)
        for c in (2.0, 0.5, 7.0):
            a1 = flsa_solve(c * y, c * lam).alpha
            a2 = c * flsa_solve(y, lam).alpha
            assert np.allclose(a1, a2, atol=1e-12 * max(1, c))

    def test_scaling_equivariance_extreme_scales(self, rng):
        # all tolerances are scale-relative, so powers of two rescale exactly
        y = rng.normal(size=40)
        lam = 0.1
        base = flsa_solve(y, lam)
        for c in (2.0**-40, 2.0**40):
            scaled = flsa_solve(c * y, c * lam)
            assert np.array_equal(scaled.alpha, c * base.alpha)
            assert np.array_equal(scaled.changepoints, base.changepoints)

    def test_shift_equivariance(self, rng):
        y, lam = random_instance(rng)
        for c in (1.0, -3.5):
            a1 = flsa_solve(y + c, lam).alpha
            a2 = flsa_solve(y, lam).alpha + c
            assert np.allclose(a1, a2, atol=1e-10)


class TestPath:
    def test_constant_input(self):
        path = flsa_path(np.full(5, 2.5))
        assert len(path) == 1
        assert path[0].lam == 0.0
        assert path[0].changepoint_count == 0

    def test_two_point_merge(self):
        path = flsa_path([0.0, 1.0])
        assert [p.changepoint_count for p in path] == [1, 0]
        assert path[1].lam == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(flsa_solve([0.0, 1.0], 0.6).alpha, [0.5, 0.5], atol=1e-12)

    def test_symmetric_cascade(self):
        path = flsa_path([0.0, 1.0, 1.0, 0.0])
        assert path[-1].changepoint_count == 0
        assert path[-1].lam == pytest.approx(0.25, abs=1e-14)
        sol = flsa_solve([0.0, 1.0, 1.0, 0.0], 0.2)
        assert np.allclose(sol.alpha, [0.4, 0.6, 0.6, 0.4], atol=1e-12)

    def test_counts_monotone_and_end_at_zero(self, rng):
        y = rng.normal(size=50)
        path = flsa_path(y)
        lams = [p.lam for p in path]
        counts = [p.changepoint_count for p in path]
        assert all(b > a for a, b in zip(lams[:-1], lams[1:]))
        assert all(b < a for a, b in zip(counts[:-1], counts[1:]))
        assert counts[-1] == 0
        assert counts[0] == int(np.sum(np.diff(y) != 0))

    @pytest.mark.parametrize("tie_grid", [False, True])
    def test_agreement_with_solver_at_breakpoints(self, rng, tie_grid):
        for _ in range(25):
            m = int(rng.integers(2, 70))
            y = rng.normal(size=m)
            if tie_grid:
                y = np.round(y, 1)
            path = flsa_path(y)
            for prev, bp in zip(path[:-1], path[1:]):
                above = flsa_solve(y, bp.lam * (1 + 1e-6)).changepoints.size
                below = flsa_solve(y, bp.lam * (1 - 1e-6)).changepoints.size
                assert above == bp.changepoint_count
                assert below == prev.changepoint_count


class TestInterpolate:
    def test_constant(self):
        fit = flsa_solve(np.full(6, 3.0), 0.1)
        step = interpolate(fit, Window(0, 1))
        assert step.breaks.size == 0
        assert step.levels.tolist() == [3.0]

    def test_break_at_grid_point_of_new_block(self):
        # coefficient j (1-based) covers the cell (t_{j-1}, t_j]; the block
        # change between coefficients 2 and 3 sits at t_2 = 2/4
        fit = flsa_solve([1.0, 1.0, 2.0, 2.0], 0.0)
        step = interpolate(fit, Window(0, 1))
        assert step.breaks.tolist() == [0.5]
        assert step.levels.tolist() == [1.0, 2.0]

    def test_single_point(self):
        fit = flsa_solve([2.5], 1.0)
        step = interpolate(fit, Window(0, 1))
        assert step.breaks.size == 0
        assert step.levels.tolist() == [2.5]

    def test_window_mapping(self):
        fit = flsa_solve([1.0, 1.0, 2.0, 2.0], 0.0)
        step = interpolate(fit, Window(2.0, 4.0))
        assert step.breaks.tolist() == [2.0 + 2 * 0.5]


class TestReparametrization:
    def test_lambda_zero_reproduces_data(self, rng):
        y = rng.normal(size=12)
        assert np.array_equal(reparametrized_check(y, 0.0), y)

    def test_hand_instance(self):
        out = reparametrized_check([0.0, 0.0, 1.0, 1.0], 0.25)
        assert np.allclose(out, [0.25, 0.25, 0.75, 0.75], atol=1e-8)

    def test_agreement_with_solver(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 21))
            y = rng.normal(size=m)
            lam = float(rng.uniform(0.001, 0.8))
            a_direct = flsa_solve(y, lam).alpha
            a_lasso = reparametrized_check(y, lam)
            assert np.max(np.abs(a_direct - a_lasso)) <= 1e-6


class TestElementwiseBound:
    def test_noiseless_reduces_to_penalty_term(self):
        m = 40
        truth = np.where(np.arange(1, m + 1) <= 10, 4.0, 1.0)
        lam = 0.05
        fit = flsa_solve(truth, lam)
        assert elementwise_bound_check(fit, truth)
        # with kappa = 0 the bound is exactly 2*m*lam / r_{k(j)}
        jump_idx = 11  # 1-based first index of the second segment
        r1, r2 = jump_idx - 1, m + 1 - jump_idx
        bound = np.where(np.arange(1, m + 1) < jump_idx, 2 * m * lam / r1, 2 * m * lam / r2)
        assert np.all(np.abs(fit.alpha - truth) <= bound + 1e-9)

    def test_random_instances_hold(self, rng):
        for _ in range(100):
            m = 100
            truth = np.where(np.arange(1, m + 1) <= 30, 4.0, 1.0)
            truth[60:] = 2.0
            u = rng.normal(size=m) * float(rng.uniform(0.2, 2.0))
            y = truth + u
            prefix = np.concatenate(([0.0], np.cumsum(u)))
            diffs = prefix[None, :] - prefix[:, None]
            lengths = np.arange(m + 1)[None, :] - np.arange(m + 1)[:, None]
            kappa = np.max(np.abs(diffs)[lengths > 0] / np.sqrt(lengths[lengths > 0]))
            fit = flsa_solve(y, kappa / np.sqrt(m))
            assert elementwise_bound_check(fit, truth)

    def test_wrong_solution_is_falsified(self, rng):
        m = 50
        truth = np.where(np.arange(1, m + 1) <= 25, 2.0, 0.5)
        y = truth + 0.05 * rng.normal(size=m)
        lam = 0.02
        fit = flsa_solve(y, lam)
        # corrupt the fitted vector far beyond the bound
        from dataclasses import replace

        bad = replace(fit, alpha=fit.alpha + 25.0)
        assert not elementwise_bound_check(bad, truth)

    def test_requires_positive_lambda_and_matching_grid(self, rng):
        y = rng.normal(size=10)
        fit = flsa_solve(y, 0.1)
        with pytest.raises(ValidationError):
            elementwise_bound_check(fit, np.zeros(9))
        with pytest.raises(ValidationError):
            elementwise_bound_check(flsa_solve(y, 0.0), np.zeros(10))
