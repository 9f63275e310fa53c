"""A scaled-down run of the Monte Carlo evaluation harness.

Each repetition draws a fresh 60-month panel pair, holds out the last H
months, standardizes on the training window, fits every method, forecasts,
and scores. Reported metrics are relative errors against the AR baseline
plus interval coverage/length. Deterministic for a fixed seed at any worker
count.

Run: python3 demos/05_monte_carlo_study.py   (about half a minute)
"""

import os
import tempfile

from surrocast import ExperimentGrid, run_experiment

grid = ExperimentGrid(
    rhos=(0.1, 0.4),
    horizons=(8,),
    B=300,             # bootstrap replicates per repetition
    workers=1,
)
report = run_experiment(grid, Q=120, seed=2026)

print(f"{'rho':>5} {'H':>3} {'method':>11} {'metric':>9} {'value':>8}")
for row in report.rows:
    print(f"{row.rho:>5} {row.H:>3} {row.method:>11} {row.metric:>9} "
          f"{row.value:>8.3f}")

print("""
reading the table:
  - rpmse/rsign below 1 beat the AR baseline; the joint model sits far
    below it while the random walk and historical average sit above;
  - both joint intervals are several times shorter than the AR interval
    at comparable coverage, and tighten as the correlation grows.
""")
path = os.path.join(tempfile.gettempdir(), "surrocast_demo_report.csv")
report.to_csv(path)
print(f"full report written to {path}")
