"""Acceptance suite: one test per criterion, one printed line per check.

The Monte-Carlo reproduction targets come from the published simulation
tables (1000-run averages); this suite reruns each (scenario, n) cell with
R = 200 seeded replications (100 for n = 2000) and accepts a cell when

    |mean - target| <= 0.0005 + 3 * sd * sqrt(1/R + 1/1000).

The first term is the rounding of the target: the tables print three
decimals, so a published 0.001 only places the value in [0.0005, 0.0015).
The second is three standard errors of the difference of two independent
Monte-Carlo means, the rerun over R replications and the published one over
1000, both with the published sd.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import os

import numpy as np
import pytest

from conftest import (
    elementwise_bound_check,
    fused_objective,
    group_normals,
    nelson_aalen_reference,
    reparametrized_check,
    rk4_state_probabilities,
    tv_denoise_oracle,
)
from hazstep import (
    FitConfig,
    IllnessDeathModel,
    StepFunction,
    SurvivalFrame,
    TuningConfig,
    Window,
    bootstrap_lambda,
    breslow_fit,
    fit_hazard,
    fit_illness_death_detailed,
    flsa_solve,
    gen_scenario,
    kkt_residual,
    metric_dasym,
    named_scenario,
    run_study,
    simulate_illness_death,
    state_probabilities,
    survival_curves,
)
from hazstep.flsa import interpolate
from hazstep.simulate import _simulate_paths

# published 1000-run averages: mean (sd) of the squared l2-error
PAPER_TABLE3 = {
    ("A1", 500): (0.102, 0.062),
    ("A1", 1000): (0.058, 0.033),
    ("A1", 2000): (0.031, 0.017),
    ("B1", 500): (0.124, 0.080),
    ("B1", 1000): (0.071, 0.042),
    ("B1", 2000): (0.037, 0.021),
    ("A2", 500): (0.118, 0.056),
    ("A2", 1000): (0.069, 0.032),
    ("A2", 2000): (0.038, 0.017),
    ("B2", 500): (0.134, 0.071),
    ("B2", 1000): (0.078, 0.039),
    ("B2", 2000): (0.044, 0.019),
}

# published 1000-run averages: mean (sd) of the asymmetric change-point distance
PAPER_TABLE4 = {
    ("A1", 500): (0.002, 0.003),
    ("A1", 1000): (0.001, 0.001),
    ("A1", 2000): (0.001, 0.001),
    ("B1", 500): (0.003, 0.003),
    ("B1", 1000): (0.001, 0.002),
    ("B1", 2000): (0.001, 0.001),
    ("A2", 500): (0.016, 0.022),
    ("A2", 1000): (0.008, 0.009),
    ("A2", 2000): (0.004, 0.005),
    ("B2", 500): (0.019, 0.026),
    ("B2", 1000): (0.009, 0.011),
    ("B2", 2000): (0.004, 0.005),
}

REPS = {500: 200, 1000: 200, 2000: 100}  # n=2000 cells run at 100 replications
PUBLISHED_REPS = 1000  # replications behind each published mean
PUBLISHED_HALF_UNIT = 0.0005  # half a unit in the last printed decimal

CELL_SEEDS = {
    ("A1", 500): 101,
    ("A1", 1000): 102,
    ("A1", 2000): 103,
    ("B1", 500): 201,
    ("B1", 1000): 202,
    ("B1", 2000): 203,
    ("A2", 500): 301,
    ("A2", 1000): 302,
    ("A2", 2000): 303,
    ("B2", 500): 401,
    ("B2", 1000): 402,
    ("B2", 2000): 403,
}


@pytest.fixture(scope="session")
def studies():
    # reports do not depend on the process count, so the cells use the cores there are
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    )
    threads = min(4, cores)
    out = {}
    for (name, n), seed in CELL_SEEDS.items():
        out[(name, n)] = run_study(named_scenario(name, n), REPS[n], seed, threads=threads)
    return out


def _check_cells(studies, paper, metric_key, label):
    lines = []
    failures = []
    for (name, n), (target, sd) in paper.items():
        report = studies[(name, n)]
        agg = report.aggregates()[metric_key]
        assert agg["n_infinite"] == 0, f"{name}/n={n}: non-finite {metric_key}"
        assert not report.failures, f"{name}/n={n}: failed replications"
        tol = PUBLISHED_HALF_UNIT + 3.0 * sd * math.sqrt(1.0 / REPS[n] + 1.0 / PUBLISHED_REPS)
        ok = abs(agg["mean"] - target) <= tol
        status = "PASS" if ok else "FAIL"
        lines.append(
            f"[{status}] {label} {name}/n={n}: mean {agg['mean']:.4f} "
            f"vs target {target} +- {tol:.4f}"
        )
        if not ok:
            failures.append(lines[-1])
    print()
    for line in lines:
        print(line)
    return failures


def test_table3_reproduction(studies):
    failures = _check_cells(studies, PAPER_TABLE3, "l2_sq", "table3 l2")
    assert not failures, "\n".join(failures)


def test_table4_reproduction(studies):
    failures = _check_cells(studies, PAPER_TABLE4, "d_asym", "table4 d_asym")
    assert not failures, "\n".join(failures)


def test_snr_range(studies):
    means = []
    failures = []
    print()
    for (name, n), report in studies.items():
        snr = report.aggregates()["snr"]["mean"]
        means.append(snr)
        ok = 0.20 <= snr <= 0.36
        print(f"[{'PASS' if ok else 'FAIL'}] snr {name}/n={n}: {snr:.3f} in [0.20, 0.36]")
        if not ok:
            failures.append((name, n, snr))
    overall = float(np.mean(means))
    ok = 0.23 <= overall <= 0.33
    print(f"[{'PASS' if ok else 'FAIL'}] snr suite average: {overall:.3f} in [0.23, 0.33]")
    assert not failures
    assert ok


def test_censoring_fraction(studies):
    failures = []
    print()
    for (name, n), report in studies.items():
        frac = report.aggregates()["censored_fraction"]["mean"]
        ok = 0.18 <= frac <= 0.27  # 20-25% +- 2 percentage points
        print(f"[{'PASS' if ok else 'FAIL'}] censoring {name}/n={n}: {frac:.3f} in [0.18, 0.27]")
        if not ok:
            failures.append((name, n, frac))
    assert not failures


def test_rate_monotonicity(studies):
    failures = []
    print()
    for name in ("A1", "B1", "A2", "B2"):
        for key in ("l2_sq", "d_asym"):
            means = [studies[(name, n)].aggregates()[key]["mean"] for n in (500, 1000, 2000)]
            ok = means[0] > means[1] > means[2]
            print(
                f"[{'PASS' if ok else 'FAIL'}] {key} decreasing for {name}: "
                f"{means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}"
            )
            if not ok:
                failures.append((name, key, means))
    assert not failures


# -- property suite (criterion 5) ----------------------------------------------


def _random_flsa_instance(rng, max_m):
    m = int(rng.integers(1, max_m + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        y = rng.normal(size=m)
    elif kind == 1:
        y = np.round(rng.normal(size=m) * 2) / 2
    else:
        y = np.repeat(rng.normal(size=m // 5 + 1), 5)[:m] + 0.2 * rng.normal(size=m)
    lam = float(rng.uniform(0, 1.2)) * 10.0 ** rng.integers(-3, 1)
    return y, lam


def test_property_a_kkt_and_exact_oracle():
    rng = np.random.default_rng(7001)
    worst_kkt, worst_gap, worst_diff = 0.0, 0.0, 0.0
    for _ in range(1000):
        y, lam = _random_flsa_instance(rng, 200)
        fit = flsa_solve(y, lam)
        scale = max(1.0, float(np.max(np.abs(y))))
        worst_kkt = max(worst_kkt, kkt_residual(fit) / scale)
        oracle = tv_denoise_oracle(y, lam)
        gap = fused_objective(y, fit.alpha, lam) - fused_objective(y, oracle, lam)
        worst_gap = max(worst_gap, gap / max(1.0, scale * scale))
        worst_diff = max(worst_diff, float(np.max(np.abs(fit.alpha - oracle))) / scale)
    ok = worst_kkt <= 1e-9 and worst_gap <= 1e-9 and worst_diff <= 1e-9
    print(f"\n[{'PASS' if ok else 'FAIL'}] flsa KKT {worst_kkt:.2e} <= 1e-9, "
          f"objective excess over the exact TV-denoising oracle (Condat) {worst_gap:.2e} "
          f"<= 1e-9, max|alpha - oracle| {worst_diff:.2e} <= 1e-9 (1000 instances)")
    assert ok


def test_property_b_elementwise_bound():
    rng = np.random.default_rng(7002)
    bad = 0
    for _ in range(1000):
        m = int(rng.integers(20, 160))
        k = int(rng.integers(1, 4))
        idx = np.sort(rng.choice(np.arange(2, m), size=k, replace=False))
        levels = rng.uniform(0.5, 4.0, k + 1)
        truth = np.empty(m)
        bounds = np.concatenate(([0], idx, [m]))
        for seg in range(k + 1):
            truth[bounds[seg] : bounds[seg + 1]] = levels[seg]
        u = rng.normal(size=m) * float(rng.uniform(0.1, 2.0))
        y = truth + u
        prefix = np.concatenate(([0.0], np.cumsum(u)))
        diffs = prefix[None, :] - prefix[:, None]
        lengths = np.arange(m + 1)[None, :] - np.arange(m + 1)[:, None]
        kappa = np.max(np.abs(diffs)[lengths > 0] / np.sqrt(lengths[lengths > 0]))
        lam = float(kappa / np.sqrt(m)) if kappa > 0 else 0.01
        fit = flsa_solve(y, lam)
        if not elementwise_bound_check(fit, truth):
            bad += 1
    print(f"\n[{'PASS' if bad == 0 else 'FAIL'}] deterministic elementwise bound held on "
          f"{1000 - bad}/1000 instances")
    assert bad == 0


def test_property_c_reparametrization():
    rng = np.random.default_rng(7003)
    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(2, 26))
        y = rng.normal(size=m)
        lam = float(rng.uniform(0.001, 0.8))
        diff = np.max(np.abs(flsa_solve(y, lam).alpha - reparametrized_check(y, lam)))
        worst = max(worst, diff)
    ok = worst <= 1e-6
    print(f"\n[{'PASS' if ok else 'FAIL'}] reparametrized-lasso agreement {worst:.2e} <= 1e-6")
    assert ok


def test_property_d_effective_noise_oracle():
    # the package's bootstrap statistics against the dense centred-design formula on the
    # normals of each row's group stream, drawn here on their own
    rng = np.random.default_rng(7004)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 200))
        y = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        l_boot = (3, 70)[i % 2]  # one group, or two with a ragged second
        result = bootstrap_lambda(y, TuningConfig(l_boot=l_boot, seed=i))
        u = result.residuals * group_normals(i, l_boot, n)
        X = (np.arange(1, n + 1)[:, None] >= np.arange(2, n + 1)[None, :]).astype(float)
        Xc = X - X.mean(axis=0, keepdims=True)
        uc = u - u.mean(axis=1, keepdims=True)
        dense = 2.0 * np.max(np.abs(uc @ Xc), axis=1) / n
        scale = max(1.0, np.max(np.abs(u)))
        worst = max(worst, np.max(np.abs(result.u_boot - dense)) / scale)
    ok = worst <= 1e-12
    print(f"\n[{'PASS' if ok else 'FAIL'}] bootstrap noise vs dense oracle {worst:.2e} <= 1e-12")
    assert ok


def test_property_e_nelson_aalen_equivalence():
    rng = np.random.default_rng(7005)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        time = np.round(rng.exponential(1.0, n), 2) + 0.01
        status = rng.integers(0, 2, n)
        entry = np.where(rng.random(n) < 0.3, time * rng.uniform(0, 0.8, n), 0.0)
        frame = SurvivalFrame(time=time, status=status, entry=entry, covariates=np.empty((n, 0)))
        curve = breslow_fit(frame)
        ref_t, ref_s = nelson_aalen_reference(time, status, entry)
        assert np.array_equal(curve.jump_times, ref_t)
        if ref_s.size:
            worst = max(worst, float(np.max(np.abs(curve.jump_sizes - ref_s))))
    ok = worst <= 1e-12
    print(f"\n[{'PASS' if ok else 'FAIL'}] Breslow(d=0) vs Nelson-Aalen reference {worst:.2e} <= 1e-12")
    assert ok


def test_property_f_kolmogorov_closed_form():
    rng = np.random.default_rng(7006)
    w = Window(0, 1)
    worst = 0.0
    for _ in range(10):
        model = IllnessDeathModel(
            a01=StepFunction(w, [0.4], rng.uniform(0.3, 2.5, 2)),
            a02=StepFunction(w, [0.6], rng.uniform(0.3, 2.5, 2)),
            a12=StepFunction(w, [0.2, 0.55], rng.uniform(0.3, 2.5, 3)),
        )
        for t_end in (0.7, 1.6):
            p00, p01 = state_probabilities(model, np.array([t_end]))
            r00, r01 = rk4_state_probabilities(model.a01, model.a02, model.a12, t_end)
            worst = max(worst, abs(p00[0] - r00), abs(p01[0] - r01))
    ok_rk4 = worst <= 1e-8
    print(f"\n[{'PASS' if ok_rk4 else 'FAIL'}] closed-form curves vs RK4 {worst:.2e} <= 1e-8")

    # million-path simulation against the closed form, within 3 binomial SEs
    model = IllnessDeathModel(
        a01=StepFunction(w, [0.3], [2.0, 1.0]),
        a02=StepFunction(w, [], [0.75]),
        a12=StepFunction(w, [0.25, 0.7], [2.5, 1.5, 1.0]),
    )
    n = 1_000_000
    exit0, to_illness, death12, _ = _simulate_paths(model, n, 0.0, np.random.default_rng(7007))
    os_times = np.where(to_illness, death12, exit0)
    grid = np.array([0.25, 0.5, 1.0, 1.8])
    pfs, os_curve = survival_curves(model, grid)
    ok_mc = True
    for t, s_pfs, s_os in zip(os_curve.grid[1:], pfs.values[1:], os_curve.values[1:]):
        emp_pfs = float(np.mean(exit0 > t))
        emp_os = float(np.mean(os_times > t))
        se_pfs = math.sqrt(s_pfs * (1 - s_pfs) / n)
        se_os = math.sqrt(s_os * (1 - s_os) / n)
        if abs(emp_pfs - s_pfs) > 3 * se_pfs or abs(emp_os - s_os) > 3 * se_os:
            ok_mc = False
    print(f"[{'PASS' if ok_mc else 'FAIL'}] closed-form curves vs 1e6-path Markov simulation "
          f"within 3 SE")
    assert ok_rk4 and ok_mc


def test_property_g_equivariance_and_determinism():
    rng = np.random.default_rng(7008)
    y = rng.normal(size=80)
    lam = 0.15
    ok_scale = np.allclose(
        flsa_solve(3.0 * y, 3.0 * lam).alpha, 3.0 * flsa_solve(y, lam).alpha, atol=1e-12
    )
    ok_shift = np.allclose(
        flsa_solve(y + 2.5, lam).alpha, flsa_solve(y, lam).alpha + 2.5, atol=1e-10
    )

    sc = named_scenario("A1", 300)
    f1, f2 = gen_scenario(sc, 99), gen_scenario(sc, 99)
    ok_gen = np.array_equal(f1.time, f2.time) and np.array_equal(f1.status, f2.status)

    cfg = FitConfig(window=Window(0, 1), tuning=TuningConfig(seed=4, l_boot=60))
    ok_fit = fit_hazard(f1, cfg).to_json() == fit_hazard(f2, cfg).to_json()

    # exact units round trip under a power-of-two time rescaling
    fit1 = fit_hazard(f1, cfg)
    scaled = SurvivalFrame(
        time=f1.time * 2.0, status=f1.status, entry=f1.entry * 2.0, covariates=f1.covariates
    )
    fit2 = fit_hazard(scaled, FitConfig(window=Window(0, 2), tuning=TuningConfig(seed=4, l_boot=60)))
    ok_units = np.array_equal(fit2.hazard.breaks, 2.0 * fit1.hazard.breaks) and np.array_equal(
        fit2.hazard.levels, fit1.hazard.levels / 2.0
    )

    all_ok = ok_scale and ok_shift and ok_gen and ok_fit and ok_units
    print(f"\n[{'PASS' if all_ok else 'FAIL'}] scaling {ok_scale}, shift {ok_shift}, "
          f"seeded generation {ok_gen}, fit determinism {ok_fit}, exact unit round trip {ok_units}")
    assert all_ok


def test_illness_death_round_trip():
    # replaces the proprietary-data figures: simulate 5000 subjects from a
    # known model, fit all transitions, and compare the derived survival
    # curves on the window interior; the 0.03 band and this protocol
    # (q = 0.5 as recommended for curve fitting in applications) were
    # calibrated on a 12-seed pilot run and frozen
    w = Window(0, 1)
    model = IllnessDeathModel(
        a01=StepFunction(w, [0.3], [2.0, 1.0]),
        a02=StepFunction(w, [], [0.75]),
        a12=StepFunction(w, [0.25, 0.7], [2.5, 1.5, 1.0]),
    )
    failures = []
    print()
    for seed in (1, 5, 11):
        records = simulate_illness_death(model, 5000, 0.25, seed)
        cfg = {
            (0, 1): FitConfig(window=Window(0, 1.4), tuning=TuningConfig(q=0.5, l_boot=1000, seed=seed)),
            (0, 2): FitConfig(window=Window(0, 1.4), tuning=TuningConfig(q=0.5, l_boot=1000, seed=seed + 1)),
            (1, 2): FitConfig(tuning=TuningConfig(q=0.5, l_boot=1000, seed=seed + 2)),
        }
        fits = fit_illness_death_detailed(records, cfg)
        fitted = IllnessDeathModel(
            a01=fits[(0, 1)].hazard, a02=fits[(0, 2)].hazard, a12=fits[(1, 2)].hazard
        )
        lo = max(f.window.tau_min for f in fits.values())
        hi = min(f.window.tau_max for f in fits.values())
        grid = np.linspace(lo, hi, 201)
        pfs_t, os_t = survival_curves(model, grid)
        pfs_f, os_f = survival_curves(fitted, grid)
        dev = max(
            float(np.max(np.abs(pfs_t.values - pfs_f.values))),
            float(np.max(np.abs(os_t.values - os_f.values))),
        )
        ok = dev <= 0.03
        print(f"[{'PASS' if ok else 'FAIL'}] illness-death round trip seed {seed}: "
              f"max curve deviation {dev:.4f} <= 0.03")
        if not ok:
            failures.append((seed, dev))
    assert not failures
