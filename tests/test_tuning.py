import logging
import multiprocessing
import os
import threading

import numpy as np
import pytest

from conftest import (
    bootstrap_stats_serial,
    effective_noise,
    group_normals,
    record_reducers,
    reset_tuning,
    spare_tokens,
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
    with tuning._normal_draw(seed, l_boot, residuals.size) as stats:
        return stats(residuals).copy()


def take_spare_token():
    """Whether this process's spare-CPU token was free; it stays taken."""
    return tuning._SPARE_CPUS.acquire(blocking=False)


def package_noise(u):
    """The package's effective-noise statistic of one vector u."""
    u = np.array(u, dtype=float).reshape(1, -1)
    out = np.empty(1)
    tuning._effective_noise(u, np.ones(u.shape[1]), out)
    return float(out[0])


@pytest.fixture(params=["serial", "worker"])
def bootstrap_path(request, monkeypatch):
    """Force the bootstrap's serial path, or the worker beside the caller, for every size
    of the test's ``l_boot``, and check afterwards who reduced: the caller alone, unless
    the worker shares a bootstrap of more than one group, which both then reduce."""
    worker = request.param == "worker"
    if worker and not TWO_CPUS:
        pytest.skip("the worker needs 2 usable CPUs")
    monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(int(worker)))
    monkeypatch.setattr(tuning, "_DRAW_AHEAD", 1)
    shared = worker and request.node.callspec.params["l_boot"] > 64
    seen = record_reducers(monkeypatch, wait_for_worker=shared)
    yield
    caller = threading.current_thread()
    others = {thread for thread, _, _ in seen} - {caller}
    assert caller in {thread for thread, _, _ in seen}
    assert len(others) == shared  # the one worker reduced a block, or no other thread did


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
        assert package_noise(np.zeros(10)) == 0.0
        assert repr(package_noise(-np.zeros(10))) == "0.0"  # +0.0, whatever the signs

    def test_hand_computed_two_point(self):
        # U_2 = 2*|-(1/2)*1 + (1/4)*0| = 1
        assert package_noise([1.0, -1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_matches_dense_matrix_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 120))
            u = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
            assert package_noise(u) == pytest.approx(
                centered_design_noise(u), abs=1e-12 * max(1.0, np.max(np.abs(u)))
            )

    def test_matches_defining_formula(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 3000))
            u = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            assert package_noise(u) == pytest.approx(effective_noise(u), rel=1e-12, abs=0)

    def test_bit_equal_to_written_order_of_operations(self, rng):
        # seeded u_boot and lambda stay reproducible across versions only while
        # the statistic keeps this order of floating-point operations, whatever
        # the number of rows reduced at once
        for _ in range(20):
            n, k = int(rng.integers(2, 3000)), int(rng.integers(1, 9))
            u = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4)
            residuals = rng.normal(size=n)
            expected = []
            for row in u:
                v = residuals * row
                sums = np.cumsum(v - v.mean())
                expected.append(2.0 / n * np.max(np.abs(sums[:-1])))
            out = np.empty(k)
            tuning._effective_noise(u, residuals, out)
            assert out.tobytes() == np.array(expected).tobytes()


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

    def test_one_split_tree_per_call(self, split_trees, rng):
        # given an array, the pilot path and the pilot solve read one new tree
        y = np.repeat([3.0, 1.0, 2.0], 40) + rng.normal(size=120)
        result = bootstrap_lambda(y, TuningConfig(k_max=2, l_boot=20, seed=1))
        assert len(split_trees) == 1 and split_trees[0].tobytes() == y.tobytes()
        pilot = flsa_solve(y, result.lambda0)
        assert (y - pilot.alpha).tobytes() == result.residuals.tobytes()

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

    def test_streamed_rows_match_the_group_streams(self, rng):
        # the rows are drawn in blocks, group by group; u_boot must equal the
        # statistics of each group's one draw, the ragged last block and group included
        m, l_boot, seed = 21_000, 101, 17
        rows = _BLOCK // m
        assert 1 < rows and 64 % rows != 0 and l_boot % 64 != 0
        y = np.repeat([2.0, 0.5, 1.5], m // 3) + rng.normal(size=m)
        result = bootstrap_lambda(y, TuningConfig(q=0.9, l_boot=l_boot, seed=seed))
        expected = bootstrap_stats_serial(result.residuals, seed, l_boot)
        assert result.u_boot.tobytes() == expected.tobytes()
        eps = group_normals(seed, l_boot, m)
        for row in range(l_boot):
            assert result.u_boot[row] == pytest.approx(
                effective_noise(result.residuals * eps[row]), rel=1e-12, abs=0
            )
        assert result.lam == np.sort(result.u_boot)[90]  # ceil(0.9*101) = 91st

    @pytest.mark.parametrize("l_boot", [1, 63, 64, 65, 100, 1000])
    def test_u_boot_independent_of_cpus_and_block_size(self, rng, monkeypatch, l_boot):
        # the grouped contract: the seed, L and the residuals fix u_boot, whether the
        # worker shares the bootstrap or not and however many rows a block holds
        if not TWO_CPUS:
            pytest.skip("the worker needs 2 usable CPUs")
        monkeypatch.setattr(tuning, "_DRAW_AHEAD", 1)
        residuals = rng.normal(size=3001)
        expected = bootstrap_stats_serial(residuals, 41, l_boot).tobytes()
        for spare in (0, 1):
            for block in (_BLOCK // 2, _BLOCK, 2 * _BLOCK):  # 10, 21 and 43 rows of m = 3001
                monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(spare))
                monkeypatch.setattr(tuning, "_BLOCK", block)
                assert bootstrap_stats(residuals, 41, l_boot).tobytes() == expected, (spare, block)

    def test_each_group_is_its_own_stream(self, rng):
        # rows 64g ... 64g + 63 are the statistics of SeedSequence(seed, spawn_key=(g,))
        # alone, so a group's rows do not depend on how many rows come before it
        m, l_boot, seed = 700, 200, 23
        residuals = rng.normal(size=m)
        u_boot = bootstrap_stats(residuals, seed, l_boot)
        for g, lo in enumerate(range(0, l_boot, 64)):
            eps = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(g,)))
            v = residuals * eps.standard_normal((min(64, l_boot - lo), m))
            sums = np.cumsum(v - v.mean(axis=1, keepdims=True), axis=1)[:, :-1]
            expected = 2.0 / m * np.max(np.abs(sums), axis=1)
            assert u_boot[lo : lo + 64].tobytes() == expected.tobytes(), g

    @pytest.mark.parametrize(
        "m, l_boot, zero",
        [
            (500, 131, False),  # three groups of one block each
            (1000, 100, False),  # the study shape: groups of 64 and 36 rows
            (_BLOCK + 4464, 67, False),  # one row per block
            (2, 5, False),  # l_boot below the group size
            (2, _BLOCK // 2 + 7, False),  # many groups of m = 2
            (3001, 67, False),  # 21-row blocks, a ragged last one
            (3001, 67, True),
        ],
        ids=["three-groups", "study", "one-row-blocks", "short", "m2", "ragged", "zero-residuals"],
    )
    def test_bytes_independent_of_block_shape(self, rng, m, l_boot, zero, bootstrap_path):
        residuals = np.zeros(m) if zero else rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        got = bootstrap_stats(residuals, 29, l_boot)
        assert got.tobytes() == bootstrap_stats_serial(residuals, 29, l_boot).tobytes()
        assert not zero or (got == 0).all() and not np.signbit(got).any()

    @pytest.mark.parametrize(
        "m, l_boot, bound",
        [(20_000, 1000, 3 * _BLOCK * 8), (100_000, 100, 3 * 100_000 * 8 + 64 * 1024)],
        ids=["multi-row-blocks", "one-row-blocks"],
    )
    def test_memory_one_block_per_thread(self, rng, m, l_boot, bound, bootstrap_path):
        # one draw block of about _BLOCK values, or of one row when m > _BLOCK, for
        # each thread that draws, plus O(m + l_boot)
        residuals = rng.normal(size=m)
        _, peak = traced_peak(bootstrap_stats, residuals, 4, l_boot)
        assert peak < bound

    @pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
    def test_worker_is_long_lived_and_shares_each_bootstrap(self, rng, monkeypatch):
        # one thread, started once, takes groups of every bootstrap beside its caller
        monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(1))
        seen = record_reducers(monkeypatch, wait_for_worker=True)
        residuals = rng.normal(size=1000)
        expected = bootstrap_stats_serial(residuals, 3, 300).tobytes()
        counts = []
        for _ in range(3):
            assert bootstrap_stats(residuals, 3, 300).tobytes() == expected
            counts.append(threading.active_count())
        workers = {t for t, _, _ in seen} - {threading.current_thread()}
        assert len(workers) == 1 and len({id(b) for _, _, b in seen}) == 3
        assert counts[0] == counts[-1]
        assert tuning._WORKER.empty()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("step", ["draw", "reduce"])
    def test_error_in_the_worker_reaches_the_caller(self, rng, monkeypatch, error, step):
        # the worker fails in its first draw or reduction: the caller raises that error
        # rather than return rows nobody wrote, and the worker stays to serve the next call
        if not TWO_CPUS:
            pytest.skip("the worker needs 2 usable CPUs")
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        caller, failed = threading.current_thread(), threading.Event()
        default_rng, reduce = np.random.default_rng, tuning._effective_noise

        class Failing(np.random.Generator):
            def standard_normal(self, out):
                if threading.current_thread() is caller:
                    failed.wait(10)  # so the worker takes a group first
                elif step == "draw":
                    failed.set()
                    raise error(step)
                return super().standard_normal(out=out)

        def failing_reduce(u, residuals, out):
            if threading.current_thread() is not caller:
                failed.set()
                raise error(step)
            reduce(u, residuals, out)

        monkeypatch.setattr(np.random, "default_rng", lambda s: Failing(np.random.PCG64(s)))
        if step == "reduce":
            monkeypatch.setattr(tuning, "_effective_noise", failing_reduce)
        residuals = rng.normal(size=1000)
        with pytest.raises(error, match=step):
            bootstrap_stats(residuals, 3, 1000)
        assert failed.is_set() and tuning._WORKER.empty()
        assert budget.acquire(blocking=False)
        budget.release()
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        monkeypatch.setattr(tuning, "_effective_noise", reduce)
        got = bootstrap_stats(residuals, 3, 1000)
        assert got.tobytes() == bootstrap_stats_serial(residuals, 3, 1000).tobytes()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_in_the_caller_stops_the_worker(self, rng, monkeypatch, error):
        # the caller fails in its first reduction: it waits for the worker to stop at its
        # next block, gives the token back and raises its own error
        if not TWO_CPUS:
            pytest.skip("the worker needs 2 usable CPUs")
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        seen = record_reducers(monkeypatch, wait_for_worker=True)
        recorded, caller = tuning._effective_noise, threading.current_thread()

        def failing(u, residuals, out):
            recorded(u, residuals, out)
            if threading.current_thread() is caller:
                raise error("caller")

        monkeypatch.setattr(tuning, "_effective_noise", failing)
        with pytest.raises(error, match="caller"):
            bootstrap_stats(rng.normal(size=1000), 3, 1000)
        workers = [t for t, _, _ in seen if t is not caller]
        blocks = len(seen)
        assert workers and blocks < 1000 // 64  # the worker did not finish the groups
        assert tuning._WORKER.empty() and budget.acquire(blocking=False)
        budget.release()
        assert len(seen) == blocks  # and it reduces nothing more

    @pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
    def test_worker_that_cannot_start_raises(self, rng, monkeypatch):
        # a thread that cannot start fails the call rather than hang it, gives the token
        # back, and leaves no worker for a later call to queue to
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        monkeypatch.setattr(tuning, "_WORKER", None)

        def refused(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        with pytest.raises(RuntimeError, match="can't start"):
            bootstrap_stats(rng.normal(size=1000), 3, 1000)
        assert tuning._WORKER is None and budget.acquire(blocking=False)
        budget.release()

    @pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
    def test_worker_runs_off_the_callers_cpu(self, rng, monkeypatch):
        # a new worker is pinned to the usable CPUs other than the one its starter runs on
        usable = os.sched_getaffinity(0)
        assert tuning._cpu() in usable
        starter_cpu = max(usable)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", threading.Semaphore(1))
        monkeypatch.setattr(tuning, "_WORKER", None)
        monkeypatch.setattr(tuning, "_cpu", lambda: starter_cpu)
        seen = record_reducers(monkeypatch, wait_for_worker=True)
        bootstrap_stats(rng.normal(size=1000), 1, 1000)
        [worker_cpus] = {cpus for t, cpus, _ in seen if t is not threading.current_thread()}
        assert worker_cpus == usable - {starter_cpu}
        assert os.sched_getaffinity(0) == usable  # the caller's own is never touched

    @pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
    def test_concurrent_callers_do_not_wait_on_each_other(self, rng, monkeypatch):
        # the budget holds one token, for the one worker, however many CPUs are spare: a
        # second caller, on another thread or nested in the first, finds it taken and works
        # alone rather than queue behind a job that waits for it
        reset_tuning(monkeypatch, 2)
        assert spare_tokens(tuning._SPARE_CPUS) == 1
        residuals = rng.normal(size=1000)
        expected = bootstrap_stats_serial(residuals, 8, 300).tobytes()
        entered, second_done, first = threading.Event(), threading.Event(), {}

        def first_caller():
            with tuning._normal_draw(8, 300, residuals.size) as stats:
                entered.set()
                first["released"] = second_done.wait(10)
                first["nested"] = bootstrap_stats(residuals, 8, 300).tobytes()
                first["u_boot"] = stats(residuals).tobytes()

        thread = threading.Thread(target=first_caller, daemon=True)
        thread.start()
        try:
            assert entered.wait(10) and spare_tokens(tuning._SPARE_CPUS) == 0
            assert bootstrap_stats(residuals, 8, 300).tobytes() == expected
        finally:
            second_done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert first == {"released": True, "nested": expected, "u_boot": expected}

    @pytest.mark.skipif(not TWO_CPUS, reason="a process has a token with 2 usable CPUs")
    def test_forked_child_has_its_own_token(self, monkeypatch):
        # the thread that holds the parent's token is not in a forked child, which would
        # otherwise never see the token back and run every bootstrap on its caller
        reset_tuning(monkeypatch, 1)
        taken, release = threading.Event(), threading.Event()

        def holder():
            with tuning._SPARE_CPUS:
                taken.set()
                release.wait(30)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        try:
            assert taken.wait(10)
            with multiprocessing.get_context("fork").Pool(1) as pool:
                assert pool.apply_async(take_spare_token).get(60)
        finally:
            release.set()
            thread.join(30)
        assert take_spare_token()  # and the parent's is back once its holder gives it
        tuning._SPARE_CPUS.release()

    @pytest.mark.parametrize("m, l_boot", [(100, 100), (100_000, 64)], ids=["small", "one-group"])
    def test_small_bootstraps_take_no_token(self, rng, monkeypatch, m, l_boot):
        # below _DRAW_AHEAD normals, or with one group, the caller draws and reduces them
        budget = threading.Semaphore(1)
        monkeypatch.setattr(tuning, "_SPARE_CPUS", budget)
        monkeypatch.setattr(budget, "acquire", None)
        seen = record_reducers(monkeypatch)
        residuals = rng.normal(size=m)
        assert m * l_boot < tuning._DRAW_AHEAD or l_boot <= 64
        got = bootstrap_stats(residuals, 5, l_boot)
        assert got.tobytes() == bootstrap_stats_serial(residuals, 5, l_boot).tobytes()
        assert {thread for thread, _, _ in seen} == {threading.current_thread()}

    @pytest.mark.skipif(not TWO_CPUS, reason="the worker needs 2 usable CPUs")
    def test_bootstrap_lambda_draws_ahead_of_its_pilot(self, rng, monkeypatch):
        # given no normals, bootstrap_lambda queues the worker's draw before its pilot
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
        budget.release()
        expected = bootstrap_stats_serial(result.residuals, 8, 100)
        assert result.u_boot.tobytes() == expected.tobytes()

    def test_memory_linear_in_m(self, rng):
        # one (L, m) float64 matrix alone would take 80 MB here; a small m
        # keeps the pilot's Python loops quick under tracemalloc
        m, l_boot = 2_000, 5_000
        y = np.repeat([2.0, 0.5], m // 2) + rng.normal(size=m)
        _, peak = traced_peak(bootstrap_lambda, y, TuningConfig(l_boot=l_boot, seed=4))
        assert peak < 64e6
