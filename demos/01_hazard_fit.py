"""Fit a piecewise constant hazard to simulated censored survival data.

Generates a sample whose hazard drops from 4 to 1 at t = 0.25, runs the
full pipeline (Breslow curve -> increment regression -> bootstrap-tuned
fused lasso) and prints the fitted step function.
"""

import numpy as np

import hazstep as hs

rng_seed = 2024

# ---------------------------------------------------------------- data
scenario = hs.named_scenario("A1", n=1000)
frame = hs.gen_scenario(scenario, rng_seed)
print(f"simulated n={frame.n} subjects, {np.mean(frame.status == 0):.1%} censored")

# ---------------------------------------------------------------- fit
config = hs.FitConfig(
    window=hs.Window(0.0, 1.0),
    tuning=hs.TuningConfig(q=0.9, k_max=20, l_boot=100, seed=rng_seed),
)
fit = hs.fit_hazard(frame, config)

print(f"pilot lambda0 = {fit.tuning.lambda0:.4f}, selected lambda = {fit.tuning.lam:.4f}")
print(f"estimated change points: {np.round(fit.changepoints, 3)}")
print(f"estimated levels:        {np.round(fit.hazard.levels, 3)}")
print(f"true hazard:             4.0 on [0, 0.25), 1.0 on [0.25, 1]")

# ---------------------------------------------------------------- diagnostics
truth = hs.discretize_truth(scenario.hazard, scenario.window, fit.flsa.m)
print(f"squared l2 error of the discretized fit: "
      f"{hs.metric_l2(fit.flsa.alpha, truth):.4f}")
print(f"integral gap vs Breslow increment: {fit.integral_gap():+.4f}")

# to plot the fitted steps:
#   h = fit.hazard
#   plt.stairs(h.levels, [h.domain.tau_min, *h.breaks, h.domain.tau_max])
