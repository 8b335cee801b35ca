import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dp_solve_oracle,
    elementwise_bound_check,
    fresh_solve,
    fused_objective,
    merge_path_oracle,
    reparametrized_check,
    tv_denoise_oracle,
)
from hazstep import (
    PathBreakpoint,
    ValidationError,
    Window,
    flsa_path,
    flsa_solve,
    interpolate,
    kkt_residual,
    pilot_lambda,
)


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


def same_path(a, b):
    """Equal change-point counts, and lambdas equal to 1e-9 (relative)."""
    return [bp.changepoint_count for bp in a] == [bp.changepoint_count for bp in b] and all(
        abs(p.lam - q.lam) <= 1e-9 * max(p.lam, q.lam) for p, q in zip(a, b)
    )


def merge_close_splits(path, rtol):
    """Merge each breakpoint within rtol (relative) of the previous kept one into it."""
    out = []
    for bp in path:
        if out and out[-1].lam > 0 and bp.lam <= out[-1].lam * (1.0 + rtol):
            out[-1] = PathBreakpoint(out[-1].lam, bp.changepoint_count)
        else:
            out.append(bp)
    return out


def above_floor(path, y):
    """The breakpoints the merge-path oracle resolves.

    Its touching tolerance is 1e-9 * max|y|, and subnormal lambdas carry no
    relative precision in either path algorithm.
    """
    floor = max(1e-8 * float(np.max(np.abs(y))), np.finfo(float).tiny)
    return [bp for bp in path if bp.lam > floor]


# Inputs with two true splits 1e-12..1e-8 apart (relative) that the merge-path
# oracle reports as one breakpoint, through its 1e-9 breakpoint collapse or its
# 1e-9 * max|y| touching tolerance: the first (splits 2.6e-10 apart) gave the
# merge path's pilot a fit with too many change points; the others are
# mixed-magnitude draws from the pool of the property below.
ORACLE_MERGES = [
    [1e-24, 7.8125e-15, 0.0],
    [0.0, 0.0, 0.0, 0.0, -1e-06, -200.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, -1e-07, -200.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [5.3034116573757834e-17, -3.157e-321, -5.298265356453068e-26, -5.298265356453068e-26,
     -5.298265356453068e-26, 5.3034116573757834e-17, -5.298265356453068e-26,
     -5.298265356453068e-26, 5.3034116573757834e-17, -5.298265356453068e-26,
     5.3034116573757834e-17],
    [-9.01205e-319, 0.0, 0.0, -9.01205e-319, -3.75e-322, 4e-32, 4e-32, 0.0, -9.01205e-319,
     -9.01205e-319, -1.6059940851480354e-43, 0.0],
]


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
        fit = flsa_solve([0.0, 0.0, 1.0, 1.0], 0.25)
        assert np.allclose(fit.alpha, [0.25, 0.25, 0.75, 0.75], atol=1e-12)
        assert fit.alpha.tolist() == [0.25, 0.25, 0.75, 0.75]
        assert fit.changepoints.tolist() == [2]

    def test_degenerate_single_point(self):
        fit = flsa_solve([3.0], 5.0)
        assert fit.alpha.tolist() == [3.0]

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            flsa_solve([1.0, np.nan], 0.1)
        with pytest.raises(ValidationError):
            flsa_solve([1.0, 2.0], -0.1)


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
            bounds = np.r_[0, fit.changepoints, m]
            levels = fit.alpha[bounds[:-1]]
            for b, c in enumerate(levels):
                sig_l = 0.0 if b == 0 else np.sign(c - levels[b - 1])
                sig_r = 0.0 if b == levels.size - 1 else np.sign(levels[b + 1] - c)
                lhs = (2.0 / m) * np.sum(c - y[bounds[b] : bounds[b + 1]])
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

    def test_tiny_block_between_huge_ones(self):
        # a round takes blocks near 1e12 and near 1e-3 together: the tiny
        # block's partial sums must not start from the huge one's rounding,
        # and a jump against its boundary's sign is rounding, not a change point
        rng = np.random.default_rng(18)
        y = np.concatenate(
            (1e12 * (1 + rng.normal(size=60)), 1e-3 * rng.normal(size=120), 1e12 * (3 + rng.normal(size=60)))
        )
        fit = flsa_solve(y, 1e-4)
        assert np.max(np.abs(fit.alpha[60:180] - tv_denoise_oracle(y, 1e-4)[60:180])) <= 1e-12

    def test_deep_split_tree_matches_condat(self):
        # a noise-free convex ramp peels about one run off each side of a
        # block per round: some 1000 rounds for the ~1900 change points here
        y = np.arange(2000.0) ** 2
        lam = flsa_path(y, 0)[-1].lam * 1e-3
        fit = flsa_solve(y, lam)
        oracle = tv_denoise_oracle(y, lam)
        scale = float(np.max(np.abs(y)))
        assert fit.changepoints.size >= 500
        assert np.array_equal(fit.changepoints, np.flatnonzero(np.diff(oracle) > 1e-9 * scale) + 1)
        assert np.max(np.abs(fit.alpha - oracle)) <= 1e-12 * scale


@st.composite
def adversarial_instance(draw):
    """y from a family with ties or near-ties, and lambda log-uniform or at a split lambda."""
    m = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["constant", "normal", "integer", "exponential", "rounded", "near-step", "walk"]
        )
    )
    if kind == "constant":
        y = np.full(m, rng.normal())
    elif kind == "normal":
        y = rng.normal(size=m)
    elif kind == "integer":
        y = rng.integers(-3, 4, size=m).astype(float)
    elif kind == "exponential":
        y = np.round(rng.exponential(size=m), 1)
    elif kind == "rounded":
        y = np.round(rng.normal(size=m), 1)
    elif kind == "near-step":
        y = (np.arange(m) >= int(rng.integers(1, m))) + 1e-3 * rng.normal(size=m)
    else:
        y = np.cumsum(rng.normal(size=m))
    y = y * draw(st.sampled_from([1.0, 1e-12, 1e12]))
    splits = [bp.lam for bp in flsa_path(y) if bp.lam > 0]
    if splits and draw(st.booleans()):
        lam = draw(st.sampled_from(splits))
    else:
        lam = float(np.max(np.abs(y))) * 10.0 ** draw(st.floats(-4.0, 1.0))
    return y, lam


@settings(max_examples=300)
@given(adversarial_instance())
def test_solver_agrees_with_oracles_on_adversarial_inputs(instance):
    # ties from integer and rounded y make splits whose blocks keep equal
    # slopes, and a lambda at a split lambda puts a block on its split
    y, lam = instance
    fit = flsa_solve(y, lam)
    scale = float(np.max(np.abs(y)))
    condat = tv_denoise_oracle(y, lam)
    assert fit.changepoints.size == np.count_nonzero(np.abs(np.diff(condat)) > 1e-9 * scale)
    assert fit.changepoints.size == np.count_nonzero(np.diff(dp_solve_oracle(y, lam)))
    assert kkt_residual(fit) <= 1e-9 * scale
    assert np.max(np.abs(fit.alpha - condat)) <= 1e-12 * scale


@settings(max_examples=15)
@given(adversarial_instance())
@example((np.full(7, -0.3), 0.0))  # constant
@example((np.array([0.25, -1.5]), 0.0))  # m = 2
@example((1e12 * np.random.default_rng(3).integers(-3, 4, size=60).astype(float), 0.0))
@example((1e-12 * np.round(np.random.default_rng(4).normal(size=60), 1), 0.0))
def test_path_and_pilot_agree_with_solver_on_adversarial_inputs(instance):
    # the solver property's family against the path, which the same split rounds
    # compute: every breakpoint above the oracles' floor separates the solver's
    # counts, and the pilot brackets k_max
    y, _ = instance
    path = flsa_path(y)
    floor = 1e-8 * float(np.max(np.abs(y)))
    for prev, bp in zip(path, path[1:]):
        if bp.lam > floor:
            assert flsa_solve(y, bp.lam * (1 + 1e-6)).changepoints.size == bp.changepoint_count
            assert flsa_solve(y, bp.lam * (1 - 1e-6)).changepoints.size == prev.changepoint_count
    for k_max in (0, 1, 5):
        lam0 = pilot_lambda(y, k_max)
        assert flsa_solve(y, lam0).changepoints.size <= k_max
        assert flsa_solve(y, lam0 * (1 + 1e-6)).changepoints.size <= k_max
        if lam0 > 0:
            assert flsa_solve(y, lam0 * (1 - 1e-6)).changepoints.size > k_max


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

    def test_tiny_gap_is_a_run_at_lambda_zero(self):
        # the 1.2e-50 gap is far below 1e-9 * max|y|, but y has three runs
        path = flsa_path([0.0, 1.2e-50, 1e-12])
        assert path[0] == PathBreakpoint(0.0, 2)
        assert flsa_solve([0.0, 1.2e-50, 1e-12], 0.0).changepoints.tolist() == [1, 2]

    def test_subnormal_gap_still_fuses(self):
        # gap / closing rate underflows to 0 here; the pair still closes
        assert flsa_path([0.0, 5e-324]) == [PathBreakpoint(0.0, 1), PathBreakpoint(5e-324, 0)]
        assert pilot_lambda([0.0, 5e-324], 0) == 5e-324
        # rounding makes the merged block and its neighbour cross, so they fuse
        assert flsa_path([5e-324, 0.0, 5e-324])[-1].changepoint_count == 0

    @given(
        st.lists(
            st.just(0.0)
            | st.builds(
                lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
                st.sampled_from([-1.0, 1.0]),
                st.floats(1.0, 10.0),
                st.integers(-60, 2),
            )
            | st.builds(
                lambda sign, units: sign * units * 5e-324,
                st.sampled_from([-1.0, 1.0]),
                st.integers(1, 2**20),
            ),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    def test_path_starts_at_the_runs_and_ends_fused(self, pool, data):
        # values drawn from a small pool give ties; magnitudes span the
        # subnormals (multiples of 5e-324) and 1e-60..1e3
        m = data.draw(st.integers(2, 12))
        y = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
        path = flsa_path(y)
        assert path[0] == PathBreakpoint(0.0, int(np.count_nonzero(np.diff(y))))
        lams = [p.lam for p in path]
        counts = [p.changepoint_count for p in path]
        assert all(b > a for a, b in zip(lams[:-1], lams[1:]))
        assert all(b < a for a, b in zip(counts[:-1], counts[1:]))
        assert counts[-1] == 0

    @given(
        st.lists(
            st.just(0.0)
            | st.builds(
                lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
                st.sampled_from([-1.0, 1.0]),
                st.floats(1.0, 10.0),
                st.integers(-60, 2),
            )
            | st.builds(
                lambda sign, units: sign * units * 5e-324,
                st.sampled_from([-1.0, 1.0]),
                st.integers(1, 2**20),
            ),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    def test_split_path_matches_merge_oracle(self, pool, data):
        # the pool of test_path_starts_at_the_runs_and_ends_fused, subnormals included
        m = data.draw(st.integers(2, 12))
        y = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
        path = flsa_path(y)
        for k in range(6):
            cut = flsa_path(y, k)
            assert path[-len(cut):] == cut
            assert cut[0].lam == 0.0 or cut[0].changepoint_count > k >= cut[1].changepoint_count
        oracle = above_floor(merge_path_oracle(y), y)
        assert same_path(above_floor(path, y), oracle) or y.tolist() in ORACLE_MERGES, y.tolist()

    @pytest.mark.parametrize("y", ORACLE_MERGES)
    def test_oracle_merges_true_splits(self, y):
        path = flsa_path(y)
        oracle = above_floor(merge_path_oracle(y), y)
        assert not same_path(above_floor(path, y), oracle)
        assert same_path(above_floor(merge_close_splits(path, 1e-7), y), oracle)
        # Condat's exact algorithm sees the count between the two close splits
        close = [
            (a, b) for a, b in zip(path, path[1:]) if a.lam > 0 and b.lam <= a.lam * (1 + 1e-7)
        ]
        assert close
        for low, high in close:
            lam = (low.lam * high.lam) ** 0.5
            fit = tv_denoise_oracle(np.array(y), lam)
            assert np.count_nonzero(np.diff(fit)) == low.changepoint_count
            # and so does the solver, whose jumps are not snapped to a tolerance
            assert flsa_solve(y, lam).changepoints.size == low.changepoint_count

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


def _cache_inputs():
    rng = np.random.default_rng(21)
    steps = np.repeat([2.0, 5.0, 3.0, 3.5], 100) + rng.normal(size=400)
    ties = 1.3 * rng.poisson(1.0, size=400)  # a few distinct values, long runs
    ramp = np.arange(200.0) ** 2  # about one round per two splits
    return {"steps": steps, "ties": ties, "ramp": ramp}


class TestSplitTreeCache:
    @pytest.mark.parametrize("order", range(3))
    @pytest.mark.parametrize("kind", ["steps", "ties", "ramp"])
    def test_solves_after_the_path_equal_fresh_solves(self, split_trees, kind, order):
        y = _cache_inputs()[kind]
        path = flsa_path(y, 5)
        lam0 = pilot_lambda(y, 5)
        # above lambda0, at it, at the top breakpoint, and below the path's
        # stop, where the rounds resume
        lams = [3.0 * lam0, lam0, path[-1].lam, 0.5 * path[0].lam, 1e-3 * path[0].lam]
        fresh = {lam: fresh_solve(y, lam).alpha.tobytes() for lam in lams}
        for lam in np.random.default_rng(order).permutation(lams):
            fit = flsa_solve(y, lam)
            assert fit.lam == lam and fit.alpha.tobytes() == fresh[lam], lam
        assert len(split_trees) == 1 + len(lams)  # the path's and the fresh ones

    def test_y_changed_in_place_gets_a_new_tree(self, split_trees):
        y = _cache_inputs()["steps"]
        lam = pilot_lambda(y, 5)
        flsa_solve(y, lam)
        y[150] += 0.25
        fit = flsa_solve(y, lam)
        assert len(split_trees) == 2 and split_trees[1].tobytes() == y.tobytes()
        assert fit.alpha.tobytes() == fresh_solve(y, lam).alpha.tobytes()

    def test_signed_zero_is_another_y(self, split_trees):
        pair = ([-0.0, 1.0], [0.0, 1.0])
        fits = [flsa_solve(y, 0.1) for y in pair]
        assert [t.tobytes() for t in split_trees] == [np.array(y).tobytes() for y in pair]
        for y, fit in zip(pair, fits):
            assert fit.alpha.tobytes() == fresh_solve(y, 0.1).alpha.tobytes()

    def test_threads_do_not_share_a_tree(self):
        # for each y the two threads split a new deep tree side by side
        ys = [np.arange(600.0) ** 2 + r for r in range(5)]
        lams = (1e-3, 1e-2)
        expected = [[fresh_solve(y, lam).alpha.tobytes() for lam in lams] for y in ys]
        start = threading.Barrier(2)
        results, errors = ([], []), []

        def solve(i):
            try:
                for y in ys:
                    start.wait(timeout=30)
                    results[i].append(flsa_solve(y, lams[i]).alpha.tobytes())
            except Exception as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert list(zip(*results)) == [tuple(e) for e in expected]


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
