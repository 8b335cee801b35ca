import logging
import os
import threading
import time

import numpy as np
import pytest

from conftest import (
    RecordingGenerator,
    bootstrap_stats_single_draw,
    effective_noise,
    traced_peak,
)
from hazstep import (
    TuningConfig,
    ValidationError,
    bootstrap_lambda,
    flsa_path,
    flsa_solve,
    pilot_lambda,
)
from hazstep import flsa, tuning
from hazstep.tuning import _BLOCK


TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def bootstrap_stats(residuals, seed, l_boot):
    """The bootstrap statistics of ``residuals`` as ``bootstrap_lambda`` forms them."""
    with tuning._normal_blocks(seed, l_boot, residuals.size) as blocks:
        return tuning._bootstrap_stats(residuals, blocks, l_boot)


@pytest.fixture(params=["serial", "ahead"])
def bootstrap_path(request, monkeypatch):
    """Force the bootstrap's serial or draw-ahead path for every size; yield a
    ``default_rng`` stand-in and check afterwards that the caller drew every
    block, or a helper did."""
    ahead = request.param == "ahead"
    if ahead and not TWO_CPUS:
        pytest.skip("drawing ahead needs 2 usable CPUs")
    monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(int(ahead)))
    monkeypatch.setattr(tuning, "_DRAW_AHEAD", 1)
    drawers = set()
    yield lambda seed: RecordingGenerator(seed, drawers)
    threads = {thread for thread, _ in drawers}
    assert threads and (threading.current_thread() in threads) != ahead
    assert len(threads) == 1


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

    def test_lambda_exactly_at_a_tied_split(self):
        # both splits of [0, 1, 1, 0] sit at lambda = 1/4: the count goes 2 -> 0
        y = [0.0, 1.0, 1.0, 0.0]
        assert pilot_lambda(y, 1) == 0.25
        assert flsa_solve(y, 0.25).changepoints.size == 0
        assert flsa_solve(y, 0.25 * (1 - 1e-6)).changepoints.size == 2

    def test_subnormal_pair_splits(self):
        # D underflows to 0, yet a block of two runs splits at the least lambda
        assert pilot_lambda([0.0, 5e-324], 0) == 5e-324

    @pytest.mark.parametrize(
        "y, k_max",
        [
            (np.tile([0.0, 1.0], 50), 0),
            (np.tile([0.0, 1.0], 50), 5),
            (np.tile([0.0, 3.0, 1.0], 40), 1),
            (np.tile([0.0, 3.0, 1.0], 40), 20),
            (np.round(np.random.default_rng(7).exponential(size=3000), 1), 20),
            (np.round(np.random.default_rng(8).exponential(size=3000), 2), 20),
        ],
        ids=["alternating-0", "alternating-5", "periodic-1", "periodic-20", "exp-1dp", "exp-2dp"],
    )
    def test_counts_bracket_kmax_on_tied_splits(self, y, k_max):
        # alternating and rounded signals split at exactly tied lambdas
        lam0 = pilot_lambda(y, k_max)
        assert lam0 > 0
        assert flsa_solve(y, lam0).changepoints.size <= k_max
        assert flsa_solve(y, lam0 * (1 + 1e-6)).changepoints.size <= k_max
        assert flsa_solve(y, lam0 * (1 - 1e-6)).changepoints.size > k_max

    def test_pilot_splits_off_only_kmax_plus_one_change_points(self, monkeypatch):
        # a count, not a clock: the pilot at m = 1e5 must not walk the whole path
        blocks = []
        split_lambdas = flsa._split_lambdas

        def counted(w, v, rel, off, lens, *args):
            blocks.append(lens.size)
            return split_lambdas(w, v, rel, off, lens, *args)

        monkeypatch.setattr(flsa, "_split_lambdas", counted)
        y = np.round(np.random.default_rng(9).exponential(size=100_000), 2)
        path = flsa_path(y, 20)
        assert len(path) <= 20 + 2
        assert path[0].changepoint_count > 20 >= path[1].changepoint_count
        # one block for the whole of y and two per split taken, 69 here: the
        # rounds take a few more than k_max + 2 splits; the whole path
        # evaluates about two per run of y, here about 2e5
        assert sum(blocks) <= 4 * (20 + 2)


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
        # +0.0, not -0.0: the sign reaches tuning.json and hazard.json
        assert repr(result.lam) == "0.0"
        assert not np.signbit(result.u_boot).any()
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

    def test_disagreement_is_logged_on_mixed_magnitudes(self, caplog):
        # unpatched: the path and the solver share the split rounds, yet here the
        # path's slope history counts 3 change points on [lambda0, next breakpoint)
        # where the solver's evaluated jumps give 4, so the warning keeps its power
        y = [-9.01205e-319, 0.0, 0.0, -9.01205e-319, -3.75e-322, 4e-32, 4e-32, 0.0, -9.01205e-319,
             -9.01205e-319, -1.6059940851480354e-43, 0.0]
        lam0 = pilot_lambda(y, 3)
        assert lam0 == pytest.approx(8.92e-45, rel=1e-3)
        assert flsa_solve(y, lam0).changepoints.size == 4
        with caplog.at_level(logging.WARNING, logger="hazstep.tuning"):
            bootstrap_lambda(y, TuningConfig(k_max=3, l_boot=20, seed=1))
        [record] = caplog.records
        assert "has 4 change points, more than k_max = 3" in record.message
        assert "disagree" in record.message

    def test_tiny_magnitudes_pilot_agrees_with_solver(self, caplog):
        # two true splits 2.6e-10 apart (relative): the split path keeps both, so
        # the pilot fit has no more than k_max change points
        y = [1e-24, 7.8125e-15, 0.0]
        with caplog.at_level(logging.WARNING, logger="hazstep.tuning"):
            for k_max in (0, 1):
                bootstrap_lambda(y, TuningConfig(k_max=k_max, l_boot=20, seed=1))
        assert not caplog.records
        for k_max in (0, 1):
            lam0 = pilot_lambda(y, k_max)
            assert flsa_solve(y, lam0).changepoints.size <= k_max
            assert flsa_solve(y, lam0 * (1 + 1e-6)).changepoints.size <= k_max
            assert flsa_solve(y, lam0 * (1 - 1e-6)).changepoints.size > k_max

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

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("l_boot", 2.5), ("k_max", 1.5), ("seed", "3"), ("l_boot", None),
         ("seed", True), ("k_max", False)],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        # a float or a non-number used to be accepted here and to fail later
        # with a TypeError, and a bool passed as 1 or 0
        with pytest.raises(ValidationError, match=f"^{field} must be >= "):
            TuningConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = TuningConfig(k_max=np.int64(3), l_boot=np.int32(20), seed=np.uint64(7))
        assert bootstrap_lambda(np.arange(40.0), config).u_boot.size == 20

    def test_pilot_k_max_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="^k_max must be >= 0, got 1.5$"):
            pilot_lambda(np.arange(10.0), 1.5)

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

    @pytest.mark.parametrize(
        "m, l_boot, zero",
        [
            (500, 131, False),  # one block of 131 rows
            (1000, 100, False),  # the study shape: blocks of 65 and 35 rows
            (_BLOCK + 4464, 3, False),  # one row per block
            (2, 5, False),  # l_boot below the block height
            (2, _BLOCK // 2 + 7, False),  # several blocks of m = 2
            (3001, 67, False),  # 21-row blocks, a ragged last one
            (3001, 67, True),
        ],
        ids=["one-block", "study", "one-row-blocks", "short", "m2", "ragged", "zero-residuals"],
    )
    def test_bytes_independent_of_block_shape(self, rng, m, l_boot, zero, bootstrap_path):
        residuals = np.zeros(m) if zero else rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        got = bootstrap_stats(residuals, bootstrap_path(29), l_boot)
        assert got.tobytes() == bootstrap_stats_single_draw(residuals, 29, l_boot).tobytes()

    @pytest.mark.parametrize(
        "m, l_boot, bound",
        [(20_000, 1000, 3 * _BLOCK * 8), (100_000, 100, 3 * 100_000 * 8 + 64 * 1024)],
        ids=["multi-row-blocks", "one-row-blocks"],
    )
    def test_memory_two_reused_blocks(self, rng, m, l_boot, bound, bootstrap_path):
        # two draw buffers of about _BLOCK values each, or of one row each when
        # m > _BLOCK (one buffer when the caller draws), plus the caller's
        # 4096-column statistic scratch and O(m + l_boot)
        residuals = rng.normal(size=m)
        _, peak = traced_peak(bootstrap_stats, residuals, bootstrap_path(4), l_boot)
        assert peak < bound

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize(
        "step", ["draw 5", "reduce 5", "reduce 16"], ids=["draw", "reduce", "last-reduce"]
    )
    def test_failure_mid_stream_returns_the_token(self, rng, monkeypatch, error, step):
        # 16 blocks of 65 rows: whichever thread fails at whichever block, the
        # error reaches the caller, the helper is joined and the token given back
        if not TWO_CPUS:
            pytest.skip("drawing ahead needs 2 usable CPUs")
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        kind, at = step.split()
        draws, reduces = [], []

        class Failing(np.random.Generator):
            def standard_normal(self, out):
                draws.append(threading.current_thread())
                if kind == "draw" and len(draws) == int(at):
                    raise error(step)
                return super().standard_normal(out=out)

        noise_max = tuning._noise_max

        def reduce(*args):
            reduces.append(threading.current_thread())
            if kind == "reduce" and len(reduces) == int(at):
                raise error(step)
            noise_max(*args)

        monkeypatch.setattr(tuning, "_noise_max", reduce)
        start = threading.active_count()
        with pytest.raises(error, match=step):
            bootstrap_stats(rng.normal(size=1000), Failing(np.random.PCG64(3)), 1000)
        assert threading.active_count() == start
        assert budget.acquire(blocking=False)
        # the helper draws, the caller reduces, and no more than one block is
        # drawn past the failed one
        assert threading.current_thread() not in draws and len(set(draws)) == 1
        assert set(reduces) <= {threading.current_thread()} and len(draws) <= int(at) + 1

    @pytest.mark.skipif(not TWO_CPUS, reason="drawing ahead needs 2 usable CPUs")
    def test_helper_waits_for_a_free_buffer(self, rng, monkeypatch):
        # with a slow caller, block k + 2 is not drawn into block k's buffer
        # before block k is reduced
        monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(1))
        noise_max = tuning._noise_max

        def slow(*args):
            time.sleep(0.01)
            noise_max(*args)

        monkeypatch.setattr(tuning, "_noise_max", slow)
        residuals = rng.normal(size=3001)
        got = bootstrap_stats(residuals, 29, 400)
        assert got.tobytes() == bootstrap_stats_single_draw(residuals, 29, 400).tobytes()

    @pytest.mark.skipif(not TWO_CPUS, reason="drawing ahead needs 2 usable CPUs")
    def test_helper_runs_off_the_callers_cpu(self, rng, monkeypatch):
        monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(1))
        usable = os.sched_getaffinity(0)
        assert tuning._cpu() in usable
        caller_cpu = max(usable)
        monkeypatch.setattr(tuning, "_cpu", lambda: caller_cpu)
        drawers = set()
        bootstrap_stats(rng.normal(size=1000), RecordingGenerator(1, drawers), 1000)
        assert {affinity for _, affinity in drawers} == {frozenset(usable - {caller_cpu})}
        assert threading.current_thread() not in {thread for thread, _ in drawers}
        assert os.sched_getaffinity(0) == usable  # the caller's own is never touched

    def test_small_bootstraps_take_no_token(self, rng, monkeypatch):
        # below _DRAW_AHEAD normals the caller draws them
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        monkeypatch.setattr(budget, "acquire", None)
        residuals, drawers = rng.normal(size=100), set()
        assert 100 * 100 < tuning._DRAW_AHEAD
        got = bootstrap_stats(residuals, RecordingGenerator(5, drawers), 100)
        assert got.tobytes() == bootstrap_stats_single_draw(residuals, 5, 100).tobytes()
        assert {thread for thread, _ in drawers} == {threading.current_thread()}

    @pytest.mark.skipif(not TWO_CPUS, reason="drawing ahead needs 2 usable CPUs")
    def test_bootstrap_lambda_draws_ahead_of_its_pilot(self, rng, monkeypatch):
        # given no normals, bootstrap_lambda starts its draw before its pilot
        # path, so the spare CPU is taken while the path runs
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        held, path = [], tuning.flsa_path

        def observed(*args):
            held.append(not budget.acquire(blocking=False))
            return path(*args)

        monkeypatch.setattr(tuning, "flsa_path", observed)
        y = np.repeat([1.0, 3.0], 500) + rng.normal(size=1000)
        result = bootstrap_lambda(y, TuningConfig(l_boot=100, seed=8))
        assert held == [True] and budget.acquire(blocking=False)
        expected = bootstrap_stats_single_draw(result.residuals, 8, 100)
        assert result.u_boot.tobytes() == expected.tobytes()

    def test_memory_linear_in_m(self, rng):
        # one (L, m) float64 matrix alone would take 80 MB here; a small m
        # keeps the pilot's Python loops quick under tracemalloc
        m, l_boot = 2_000, 5_000
        y = np.repeat([2.0, 0.5], m // 2) + rng.normal(size=m)
        _, peak = traced_peak(bootstrap_lambda, y, TuningConfig(l_boot=l_boot, seed=4))
        assert peak < 64e6
