"""A small Monte-Carlo study cell with seeded, reproducible replications.

Runs one (scenario, sample size) cell of the simulation design at reduced
replication count and prints the aggregate metrics table row.  The full
acceptance-scale runs live in tests/test_acceptance.py.
"""

import numpy as np

import hazstep as hs

scenario = hs.named_scenario("A2", n=500)
report = hs.run_study(scenario, replications=50, seed=20240613)

agg = report.aggregates()
print(f"scenario {report.scenario}, n={report.n}, {report.replications} replications")
print(f"  squared l2 error : {agg['l2_sq']['mean']:.3f} ({agg['l2_sq']['sd']:.3f})")
print(f"  d(S_hat | S*)    : {agg['d_asym']['mean']:.4f} ({agg['d_asym']['sd']:.4f})")
print(f"  SNR              : {agg['snr']['mean']:.3f}")
print(f"  censored fraction: {agg['censored_fraction']['mean']:.3f}")
print(f"  change points    : {agg['n_changepoints']['mean']:.2f} on average")
print(f"  failed runs      : {agg['n_failed']}")

# per-replication rows carry seeds and change-point lists for audit
row = report.rows[0]
print(f"\nfirst replication: l2={row['l2_sq']:.3f}, lambda={row['lambda']:.3f}, "
      f"change points at {np.round(row['changepoint_times'], 3)}")

hs.report_table_csv([report], "study_report_demo.csv")
print("\nwrote study_report_demo.csv")
