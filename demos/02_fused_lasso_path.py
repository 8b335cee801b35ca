"""The exact fused-lasso solver, its solution path, and the tuning rule.

Works directly on a toy signal-plus-noise vector, away from any survival
machinery: solve at fixed penalties, enumerate the merge path, pick the
pilot penalty and calibrate the final one with the multiplier bootstrap.
"""

import numpy as np

import hazstep as hs

rng = np.random.default_rng(7)

# a two-jump step signal in heavy noise
m = 200
signal = np.where(np.arange(m) < 60, 3.0, 1.0)
signal[140:] = 2.0
y = signal + rng.normal(scale=1.2, size=m)

# ------------------------------------------------ fixed-penalty solves
for lam in (0.0, 0.05, 0.5):
    fit = hs.flsa_solve(y, lam)
    print(f"lambda={lam:<5} change points: {fit.changepoints.size:3d}   "
          f"KKT residual: {hs.kkt_residual(fit):.2e}")

# ------------------------------------------------ the merge path
path = hs.flsa_path(y)
print(f"\npath has {len(path)} breakpoints; last merges:")
for bp in path[-4:]:
    print(f"  lambda >= {bp.lam:.4f}: {bp.changepoint_count} change points")

# ------------------------------------------------ data-driven penalty
lam0 = hs.pilot_lambda(y, k_max=20)
result = hs.bootstrap_lambda(y, hs.TuningConfig(q=0.9, k_max=20, l_boot=500, seed=1))
print(f"\npilot lambda0 (<= 20 change points): {lam0:.4f}")
print(f"bootstrap-selected lambda:           {result.lam:.4f}")

fit = hs.flsa_solve(y, result.lam)
step = hs.interpolate(fit, hs.Window(0.0, 1.0))
print(f"tuned fit: {fit.changepoints.size} change points at "
      f"{np.round(step.breaks, 3)}, levels {np.round(step.levels, 2)}")
print(f"true jumps at 0.305 and 0.705 (indices 60 and 140 of {m})")
