"""Illness-death model: simulate, fit all three transitions, derive curves.

The three-state model (initial -> progression -> death) is simulated with
known piecewise constant intensities; each transition is re-fitted from the
long-format multi-state frame, and the fitted model is converted to survival curves
of the state-0 sojourn (progression-free survival) and of overall survival,
overlaid against Kaplan-Meier estimates.
"""

import numpy as np

import hazstep as hs

w = hs.Window(0.0, 1.0)
truth = hs.IllnessDeathModel(
    a01=hs.StepFunction(w, [0.3], [2.0, 1.0]),
    a02=hs.StepFunction(w, [], [0.75]),
    a12=hs.StepFunction(w, [0.25, 0.7], [2.5, 1.5, 1.0]),
)

trajectories = hs.simulate_illness_death(truth, n=5000, censoring_rate=0.25, seed=11)
n_moves = np.count_nonzero(trajectories.to_state != hs.CENSORED_STATE)
print(f"simulated 5000 subjects -> {len(trajectories)} sojourn rows, {n_moves} observed moves")

# ---------------------------------------------------------------- fits
fits = hs.fit_illness_death_detailed(
    trajectories, hs.FitConfig(tuning=hs.TuningConfig(q=0.5, l_boot=500, seed=11))
)
for (src, dst), fit in fits.items():
    print(f"transition {src}->{dst}: window ({fit.window.tau_min:.3f}, "
          f"{fit.window.tau_max:.3f}), levels {np.round(fit.hazard.levels, 2)}")

fitted = hs.IllnessDeathModel(
    a01=fits[(0, 1)].hazard, a02=fits[(0, 2)].hazard, a12=fits[(1, 2)].hazard
)

# ------------------------------------------------------- survival curves
grid = np.linspace(0.0, 1.5, 7)
pfs_true, os_true = hs.survival_curves(truth, grid)
pfs_fit, os_fit = hs.survival_curves(fitted, grid)

# progression-free: the time until leaving state 0, by progression or by death
km_pfs = hs.kaplan_meier(hs.sojourn_frame(trajectories, 0))

print("\n   t    S_PFS true   fitted    S_OS true   fitted")
for i, t in enumerate(pfs_true.grid):
    print(f"  {t:.2f}     {pfs_true.values[i]:.3f}     {pfs_fit.values[i]:.3f}"
          f"       {os_true.values[i]:.3f}     {os_fit.values[i]:.3f}")

dev = max(np.max(np.abs(pfs_true.values - pfs_fit.values)),
          np.max(np.abs(os_true.values - os_fit.values)))
print(f"\nmax curve deviation on this grid: {dev:.4f}")
print(f"Kaplan-Meier (PFS) has {km_pfs.grid.size - 1} distinct event times; "
      f"S_KM(0.5) = {km_pfs.values[np.searchsorted(km_pfs.grid, 0.5, 'right') - 1]:.3f}")
