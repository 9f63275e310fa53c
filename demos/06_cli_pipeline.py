"""End-to-end command-line pipeline on generated CSV files.

Builds a daily index, aggregates it into the per-month surrogate panel,
fits the joint model, then produces forecasts and both interval kinds,
exactly as one would from a shell:

    surrocast aggregate-daily --daily daily.csv --out surrogate.csv
    surrocast fit --monthly monthly.csv --surrogate surrogate.csv ...
    surrocast forecast ... / surrocast interval ...

Run: python3 demos/06_cli_pipeline.py
"""

import csv
import pathlib
import tempfile

import numpy as np

from surrocast import benchmark_dgp, generate
from surrocast.cli import main

work = pathlib.Path(tempfile.mkdtemp(prefix="surrocast_demo_"))
total, H = 48, 6
mp, sp = generate(benchmark_dgp(rho=0.3, T=total), 99)
T = total - H

with open(work / "monthly.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["month", "y", "x_1", "x_2"])
    for t in range(T):
        w.writerow([mp.times[t], repr(float(mp.y[t])),
                    repr(float(mp.x[t, 0])), repr(float(mp.x[t, 1]))])

with open(work / "surrogate.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["month", "ys_1", "ys_2", "ys_3"])
    for t in range(T):
        w.writerow([sp.times[t]] + [repr(float(v)) for v in sp.ys[t]])

with open(work / "future.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["month", "x_1", "x_2", "ys_1", "ys_2", "ys_3"])
    for t in range(T, total):
        w.writerow([mp.times[t], repr(float(mp.x[t, 0])),
                    repr(float(mp.x[t, 1]))]
                   + [repr(float(v)) for v in sp.ys[t]])

steps = [
    ["fit", "--monthly", str(work / "monthly.csv"),
     "--surrogate", str(work / "surrogate.csv"),
     "--q1", "2", "--q2", "1",
     "--out", str(work / "fit.json"),
     "--residual-pairs", str(work / "pairs.csv")],
    ["forecast", "--fit", str(work / "fit.json"),
     "--monthly", str(work / "monthly.csv"),
     "--surrogate", str(work / "surrogate.csv"),
     "--future", str(work / "future.csv"),
     "--horizon", str(H), "--out", str(work / "forecast.csv")],
    ["interval", "--fit", str(work / "fit.json"),
     "--monthly", str(work / "monthly.csv"),
     "--surrogate", str(work / "surrogate.csv"),
     "--future", str(work / "future.csv"),
     "--horizon", str(H), "--method", "boot", "--B", "300", "--seed", "1",
     "--alpha", "0.05", "--out", str(work / "interval.csv")],
]
for argv in steps:
    print(f"\n$ surrocast {' '.join(argv)}")
    rc = main(argv)
    assert rc == 0, rc

print(f"\nartifacts in {work}:")
for name in ("fit.json", "pairs.csv", "forecast.csv", "interval.csv"):
    print(f"  {name}")

print("\nbootstrap interval rows (h,point,lower,upper):")
print((work / "interval.csv").read_text().strip())

truth = np.array([mp.y[T + h] for h in range(H)])
print("\nholdout truth for comparison:", np.round(truth, 3))
