import numpy as np
import pytest

from conftest import (
    cox_information_oracle,
    nelson_aalen_reference,
    risk_set_sums_sort_per_call,
    traced_peak,
)
from hazstep import (
    SurvivalFrame,
    ValidationError,
    Window,
    breslow_fit,
    build_increments,
    choose_window,
    cox_fit,
    risk_set_sums,
)
from hazstep import estimators


def frame_of(time, status, cov=None, entry=None):
    time = np.asarray(time, float)
    cov = np.empty((time.size, 0)) if cov is None else np.asarray(cov, float).reshape(time.size, -1)
    entry = np.zeros(time.size) if entry is None else np.asarray(entry, float)
    return SurvivalFrame(time=time, status=status, entry=entry, covariates=cov)


def partial_loglik_1d(frame, b):
    """Hand-written Breslow partial log-likelihood for one covariate."""
    out = 0.0
    w = frame.covariates[:, 0]
    for t in np.unique(frame.time[frame.status == 1]):
        dead = (frame.time == t) & (frame.status == 1)
        at_risk = (frame.entry < t) & (t <= frame.time)
        out += b * w[dead].sum() - dead.sum() * np.log(np.sum(np.exp(b * w[at_risk])))
    return out


def golden_section_max(f, lo, hi, iters=300):
    invphi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return (a + b) / 2


class TestCoxFit:
    def test_constant_covariate_returns_zero(self):
        frame = frame_of([1, 2, 3], [1, 1, 0], cov=[[2.0], [2.0], [2.0]])
        fit = cox_fit(frame)
        assert fit.converged
        assert fit.beta.tolist() == [0.0]

    def test_matches_grid_plus_golden_section_oracle(self):
        frame = frame_of([1, 2, 3, 4], [1, 1, 1, 1], cov=[[0.0], [1.0], [0.0], [1.0]])
        # oracle: dense grid + golden-section refinement of the hand-written
        # partial likelihood
        grid = np.linspace(-8, 8, 40001)
        vals = [partial_loglik_1d(frame, b) for b in grid]
        b0 = grid[int(np.argmax(vals))]
        oracle = golden_section_max(lambda b: partial_loglik_1d(frame, b), b0 - 1e-2, b0 + 1e-2)
        fit = cox_fit(frame)
        assert fit.converged
        assert fit.beta[0] == pytest.approx(oracle, abs=1e-6)
        assert fit.beta[0] == pytest.approx(-0.9406136095682442, abs=1e-6)

    def test_separation_flagged(self):
        # L(beta) = exp(beta)/(exp(beta)+1) is strictly increasing, so the
        # maximizer runs to infinity and the guard must trip
        frame = frame_of([1, 2], [1, 1], cov=[[1.0], [0.0]])
        fit = cox_fit(frame)
        assert not fit.converged

    def test_requires_covariates_and_events(self):
        with pytest.raises(ValidationError):
            cox_fit(frame_of([1, 2], [1, 0]))
        with pytest.raises(ValidationError):
            cox_fit(frame_of([1, 2], [0, 0], cov=[[1.0], [0.0]]))

    def test_gradient_small_at_optimum_by_finite_differences(self, rng):
        n = 200
        cov = np.column_stack((rng.integers(0, 2, n) * 2.0 - 1, rng.uniform(-1, 1, n)))
        time = rng.exponential(np.exp(-cov @ np.array([0.3, 0.6])))
        status = (time < rng.exponential(2.0, n)).astype(int)
        frame = SurvivalFrame(time=time, status=status, entry=np.zeros(n), covariates=cov)
        fit = cox_fit(frame)
        assert fit.converged

        def loglik(b):
            out = 0.0
            for t in np.unique(frame.time[frame.status == 1]):
                dead = (frame.time == t) & (frame.status == 1)
                at_risk = t <= frame.time
                out += float(
                    (frame.covariates[dead] @ b).sum()
                    - dead.sum() * np.log(np.sum(np.exp(frame.covariates[at_risk] @ b)))
                )
            return out

        h = 1e-5
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (loglik(fit.beta + e) - loglik(fit.beta - e)) / (2 * h)
            assert abs(fd) <= 1e-4 * max(1.0, abs(loglik(fit.beta)))

    def test_memory_linear_in_n_times_d(self):
        # the d(d + 1)/2 covariate products of every record alone would take
        # twice the bound here
        n, d = 20_000, 30
        rng = np.random.default_rng(3)
        cov = rng.normal(size=(n, d))
        time = rng.exponential(np.exp(-cov @ np.full(d, 0.1)))
        frame = frame_of(time, (rng.random(n) < 0.8).astype(int), cov)
        fit, peak = traced_peak(cox_fit, frame)
        assert fit.converged
        assert peak < 8 * n * (1 + d) * 8

    @pytest.mark.parametrize("constant", [1.0, 0.3])
    def test_aliased_columns_keep_the_one_column_fit(self, constant):
        # a constant or collinear column adds no information, so the fit keeps
        # the one-column answer; which columns are aliased is not reported yet,
        # so converged stays False
        rng = np.random.default_rng(23)
        n = 2000
        x = rng.normal(size=n)
        t = rng.exponential(np.exp(-0.7 * x))
        c = rng.exponential(2.0, n)
        time, status = np.minimum(t, c), (t <= c).astype(int)
        one = cox_fit(frame_of(time, status, x))
        assert one.converged
        with_constant = cox_fit(frame_of(time, status, np.column_stack((np.full(n, constant), x))))
        assert with_constant.beta[0] == 0.0
        assert abs(with_constant.beta[1] - one.beta[0]) <= 1e-12
        doubled = cox_fit(frame_of(time, status, np.column_stack((x, 2 * x))))
        assert abs(doubled.beta[0] + 2 * doubled.beta[1] - one.beta[0]) <= 1e-12
        assert not with_constant.converged and not doubled.converged


class TestBreslow:
    def test_hand_counted_jumps(self):
        curve = breslow_fit(frame_of([1, 2, 3], [1, 1, 1]))
        assert curve.jump_times.tolist() == [1.0, 2.0, 3.0]
        assert np.allclose(curve.jump_sizes, [1 / 3, 1 / 2, 1.0], atol=1e-15)
        assert curve.cumhaz(3.0) == pytest.approx(11 / 6, abs=1e-15)

    def test_no_events(self):
        curve = breslow_fit(frame_of([1, 2], [0, 0]))
        assert curve.jump_times.size == 0
        assert curve.cumhaz(2.0) == 0.0

    def test_tied_events_summed(self):
        curve = breslow_fit(frame_of([1, 1], [1, 1], cov=[[1.0], [0.0]]), beta=[0.0])
        assert curve.jump_times.tolist() == [1.0]
        assert curve.jump_sizes.tolist() == [1.0]  # 2 * (1/2)

    def test_equals_nelson_aalen_reference(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 80))
            time = np.round(rng.exponential(1.0, n), 2) + 0.01  # force ties
            status = rng.integers(0, 2, n)
            entry = np.where(rng.random(n) < 0.3, time * rng.uniform(0, 0.8, n), 0.0)
            frame = SurvivalFrame(
                time=time, status=status, entry=entry, covariates=np.empty((n, 0))
            )
            curve = breslow_fit(frame)
            ref_t, ref_s = nelson_aalen_reference(time, status, entry)
            assert np.array_equal(curve.jump_times, ref_t)
            assert np.allclose(curve.jump_sizes, ref_s, atol=1e-12, rtol=0)

    def test_permutation_invariance(self, rng):
        n = 50
        time = rng.exponential(1.0, n)
        status = rng.integers(0, 2, n)
        frame = frame_of(time, status)
        perm = rng.permutation(n)
        shuffled = frame_of(time[perm], status[perm])
        a, b = breslow_fit(frame), breslow_fit(shuffled)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.allclose(a.jump_sizes, b.jump_sizes, atol=1e-15)

    def test_truncation_shrinks_risk_sets(self):
        # the late subject enters at 1.5, so each event sees a risk set of one
        frame = frame_of([1.0, 3.0], [1, 1], entry=[0.0, 1.5])
        curve = breslow_fit(frame)
        assert curve.jump_times.tolist() == [1.0, 3.0]
        assert curve.cumhaz(3.0) == pytest.approx(2.0)

    def test_overflowing_weights_name_the_cause(self):
        # the beta a separated Cox fit stopped at in a 20-row fuzz frame;
        # exp(W @ beta) overflows, and no numpy warning may escape
        rng = np.random.default_rng(7)
        time = rng.exponential(1.0, 20) + 0.5
        frame = frame_of(time, rng.integers(0, 2, 20), cov=3.0 * rng.normal(size=(20, 2)))
        with pytest.raises(ValidationError, match=r"overflows at beta = \[304.0, 434.0\].*converged"):
            breslow_fit(frame, [304.0, 434.0])


class TestWindowChoice:
    def test_min_max(self):
        frame = frame_of([1, 2, 3, 4], [1, 1, 1, 1])
        w = choose_window(frame, 0.0, 1.0)
        assert (w.tau_min, w.tau_max) == (1.0, 4.0)

    def test_config_quantiles_accepted(self):
        frame = frame_of(np.arange(1, 101, dtype=float), np.ones(100, dtype=int))
        for p in (0.8, 0.975, 0.99):
            w = choose_window(frame, 0.0, p)
            assert w.tau_max == pytest.approx(np.ceil(p * 100))

    def test_single_event_time_rejected(self):
        frame = frame_of([2.0, 2.0, 3.0], [1, 1, 0])
        with pytest.raises(ValidationError):
            choose_window(frame)


class TestIncrements:
    def test_single_jump_lands_in_half_open_cell(self):
        from hazstep.estimators import BreslowCurve

        curve = BreslowCurve(jump_times=[0.55], jump_sizes=[0.5], tau=1.0)
        y = build_increments(curve, Window(0, 1), 10)
        expected = np.zeros(10)
        expected[5] = 5.0  # jump at 0.55 lies in (0.5, 0.6], cell j=6 (1-based)
        assert np.allclose(y, expected, atol=1e-15)

    def test_zero_curve(self):
        from hazstep.estimators import BreslowCurve

        curve = BreslowCurve(jump_times=[], jump_sizes=[], tau=1.0)
        y = build_increments(curve, Window(0, 1), 7)
        assert np.all(y == 0)

    def test_linear_curve_gives_constant_increments(self):
        from hazstep.estimators import BreslowCurve

        # approximate A(t) = t by many small jumps on a fine lattice
        times = np.linspace(0.0005, 1.0, 2000)
        curve = BreslowCurve(jump_times=times, jump_sizes=np.full(2000, 0.0005), tau=1.0)
        y = build_increments(curve, Window(0, 1), 40)
        assert np.allclose(y, 1.0, atol=1e-12)

    def test_telescoping(self, rng):
        from hazstep.estimators import BreslowCurve

        times = np.sort(rng.uniform(0.01, 0.99, 100))
        curve = BreslowCurve(jump_times=times, jump_sizes=rng.exponential(0.01, 100), tau=1.0)
        y = build_increments(curve, Window(0, 1), 64)
        total = curve.cumhaz(1.0) - curve.cumhaz(0.0)
        assert np.sum(y) / 64 == pytest.approx(total, abs=1e-12)

    def test_jump_at_tau_max_lands_in_last_cell(self):
        from hazstep.estimators import BreslowCurve

        # 0 + 10 * (0.9 / 10) rounds below 0.9: a grid built from that formula
        # ends short of tau_max and drops the jump there
        curve = BreslowCurve(jump_times=[0.45, 0.9], jump_sizes=[0.2, 0.3], tau=0.9)
        y = build_increments(curve, Window(0.0, 0.9), 10)
        assert np.sum(y) / 10 == pytest.approx(curve.cumhaz(0.9) - curve.cumhaz(0.0), abs=1e-15)
        assert y[-1] == pytest.approx(3.0, abs=1e-14)

    def test_window_outside_support(self):
        from hazstep.estimators import BreslowCurve

        curve = BreslowCurve(jump_times=[0.5], jump_sizes=[0.1], tau=1.0)
        with pytest.raises(ValidationError):
            build_increments(curve, Window(0, 2.0), 10)


def tied_frame(truncated: bool, n: int = 400, seed: int = 12) -> SurvivalFrame:
    """Times on a 0.1 lattice (heavy ties), two covariates, optional entries."""
    rng = np.random.default_rng(seed)
    entry = np.round(rng.uniform(0, 1, n), 1) if truncated else np.zeros(n)
    cov = rng.normal(size=(n, 2))
    time = entry + 0.1 + np.round(rng.exponential(np.exp(-cov @ [0.5, -1.0])), 1)
    return SurvivalFrame(time=time, status=rng.random(n) < 0.7, entry=entry, covariates=cov)


@pytest.mark.parametrize("truncated", [False, True], ids=["no-entry", "left-truncated"])
class TestRiskSetCache:
    """The frame's cached sort orders give the bits of sorting on every call."""

    def test_risk_set_sums_bit_equal(self, truncated):
        frame = tied_frame(truncated)
        W = frame.covariates
        w = np.exp(W @ [0.3, -0.7])
        # event times, exact ties with entry times, and points outside the data
        times = np.concatenate((frame._event_ties[0], frame.entry[:50], [-1.0, 0.0, 1e9]))
        for weights in (w, W * w[:, None], (W[:, :, None] * W[:, None, :]) * w[:, None, None]):
            for _ in range(2):  # the second call reads the cache
                got = risk_set_sums(frame, weights, times)
                want = risk_set_sums_sort_per_call(frame, weights, times)
                assert got.shape == want.shape == times.shape + weights.shape[1:]
                assert got.tobytes() == want.tobytes()

    def test_stacked_weights_sum_as_separate_calls(self, truncated):
        # cox_fit sums its s0 and s1 summands in one call, column by column
        frame = tied_frame(truncated)
        W = frame.covariates
        w = np.exp(W @ [0.3, -0.7])
        parts = (w[:, None], W * w[:, None], ((W[:, :, None] * W[:, None, :]) * w[:, None, None]))
        times = frame._event_ties[0]
        stacked = risk_set_sums(frame, np.column_stack([p.reshape(frame.n, -1) for p in parts]), times)
        separate = [risk_set_sums(frame, p, times).reshape(times.size, -1) for p in parts]
        assert stacked.tobytes() == np.column_stack(separate).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_information_matches_the_s2_oracle(self, truncated, d):
        # cox_fit gets the information from the Breslow cumulative hazard over
        # each record's risk interval, on centred covariates
        rng = np.random.default_rng(d)
        n = 300
        entry = np.round(rng.uniform(0, 1, n), 1) if truncated else np.zeros(n)
        cov = rng.normal(loc=np.linspace(-2.0, 3.0, d), size=(n, d))
        beta = rng.normal(scale=0.3, size=d)
        time = entry + 0.1 + np.round(rng.exponential(np.exp(-(cov - cov.mean(0)) @ beta)), 1)
        frame = SurvivalFrame(time=time, status=rng.random(n) < 0.7, entry=entry, covariates=cov)
        constants = estimators._likelihood_constants(frame)
        info = estimators._partial_loglik_parts(frame, beta, constants)[2]
        want = cox_information_oracle(frame, beta)
        # entries near 0 are held to the scale of the largest
        np.testing.assert_allclose(info, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_cox_and_breslow_bit_equal(self, truncated, monkeypatch):
        fit = cox_fit(tied_frame(truncated))
        curve = breslow_fit(tied_frame(truncated), fit.beta)
        monkeypatch.setattr(estimators, "risk_set_sums", risk_set_sums_sort_per_call)
        ref = cox_fit(tied_frame(truncated))
        ref_curve = breslow_fit(tied_frame(truncated), ref.beta)
        assert fit.iterations == ref.iterations >= 3
        assert fit.converged and ref.converged
        assert fit.beta.tobytes() == ref.beta.tobytes()
        assert fit.log_partial_likelihood == ref.log_partial_likelihood
        assert curve.jump_times.tobytes() == ref_curve.jump_times.tobytes()
        assert curve.jump_sizes.tobytes() == ref_curve.jump_sizes.tobytes()

    def test_frame_sorts_once(self, truncated, monkeypatch):
        frame = tied_frame(truncated)
        sorts = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorts.append(a.size)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        fit = cox_fit(frame)
        breslow_fit(frame, fit.beta)
        assert fit.iterations >= 3
        # one stable sort of time, plus one of entry under left truncation
        assert sorts == [frame.n] * (1 + truncated)

    def test_frame_looks_up_its_event_times_once(self, truncated, monkeypatch):
        frame = tied_frame(truncated)
        ev_times = frame._event_ties[0]
        lookups = []
        searchsorted = np.searchsorted

        def counting_searchsorted(a, v, *args, **kwargs):
            if v is ev_times:
                lookups.append(a.size)
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting_searchsorted)
        fit = cox_fit(frame)
        breslow_fit(frame, fit.beta)
        assert fit.iterations >= 3
        # one search of the sorted times, plus one of the sorted entries under
        # left truncation
        assert lookups == [frame.n] * (1 + truncated)

    def test_event_times_by_default(self, truncated):
        frame = tied_frame(truncated)
        W = frame.covariates
        w = np.exp(W @ [0.3, -0.7])
        for weights in (w, W * w[:, None]):
            for _ in range(2):  # the second call reads the cached lookup
                got = risk_set_sums(frame, weights)
                assert got.tobytes() == risk_set_sums_sort_per_call(frame, weights).tobytes()
