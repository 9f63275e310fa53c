"""Workloads of the surrocast benchmark: their inputs, operations and checks.

Every workload visits a fixed pool of operations whose outputs were recorded
in ``reference/<workload>.json`` (see ``record.py``). The workload seed only
chooses the order in which the pool is visited, so the same seed gives the
same inputs and every operation can be checked against its recorded output.
The pool is visited in rounds that hold each kind of operation once (every
grid cell, or every command of the pipeline), and a run times whole rounds,
so that every run times the same mix whatever its seed.

- ``mc-boot``  one operation is a single-cell ``run_experiment`` call with the
  residual bootstrap on: base variant, rho in {0.1, 0.4}, H = 8, 60 months,
  B = 500, Q = 10 repetitions, ``workers=1``.
- ``mc-point`` the same harness with ``include_boot=False`` (BJ intervals on)
  over all four variants and rho in {0.1, 0.4}, each call covering both
  H = 8 and H = 15, Q = 50. One call per horizon would split the operation
  times into two clusters of equal size, a ratio of 1.25 apart, and put
  their median in the gap between them.
- ``cli-pipeline`` one operation is one ``surrocast`` process of the shell
  pipeline in ``pipeline_commands``, run on CSV files written at set-up.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference"

# Every number in an output may differ from the reference by this much,
# relative to max(1, |reference|); all other text must match exactly.
TOLERANCE = 1e-9

# What the installed ``surrocast`` console script runs.
CLI_SHIM = "import sys; from surrocast.cli import main; sys.exit(main())"

WORKLOADS = ("mc-boot", "mc-point", "cli-pipeline")


def require_sources() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    if not (SRC / "surrocast" / "__init__.py").is_file():
        sys.exit(f"perfbench: no surrocast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import surrocast

    if Path(surrocast.__file__).resolve().parent != SRC / "surrocast":
        sys.exit(f"perfbench: imported surrocast from {surrocast.__file__}")


def child_env() -> dict:
    """Environment for child processes: the checkout's sources, nothing else
    changed (BLAS thread settings stay whatever the user has)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def mismatch(text: str, ref: str) -> str | None:
    """None when ``text`` equals ``ref`` up to TOLERANCE on every number."""
    got, want = _NUMBER.split(text), _NUMBER.split(ref)
    if got != want:
        return "text differs from the reference"
    for a, b in zip(_NUMBER.findall(text), _NUMBER.findall(ref)):
        fa, fb = float(a), float(b)
        if not abs(fa - fb) <= TOLERANCE * max(1.0, abs(fb)):
            return f"{a} differs from the reference {b}"
    return None


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Monte Carlo workloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McWorkload:
    name: str
    variants: tuple[str, ...]
    rhos: tuple[float, ...]
    horizons: tuple[int, ...]
    include_boot: bool
    Q: int
    master_seeds: int
    B: int = 500
    total_months: int = 60

    @property
    def cells(self) -> int:
        return len(self.variants) * len(self.rhos)

    def pool(self) -> list[tuple[str, float, int]]:
        """Operation k runs cell k % cells, over every horizon, with master
        seed k // cells."""
        return [(v, rho, s) for s in range(self.master_seeds)
                for v in self.variants for rho in self.rhos]

    def grid(self, variant: str, rho: float, workers: int = 1):
        from surrocast.simulation import ExperimentGrid

        return ExperimentGrid(
            rhos=(rho,), horizons=self.horizons, variant=variant,
            total_months=self.total_months, B=self.B,
            include_intervals=True, include_boot=self.include_boot,
            workers=workers,
        )


MC = {
    "mc-boot": McWorkload("mc-boot", ("base",), (0.1, 0.4), (8,),
                          include_boot=True, Q=10, master_seeds=32),
    "mc-point": McWorkload("mc-point", ("base", "omitted", "overfit", "student-t"),
                           (0.1, 0.4), (8, 15), include_boot=False, Q=50,
                           master_seeds=24),
}


def report_text(report) -> str:
    """The report rows as ``SimulationReport.to_csv`` writes them."""
    return "\n".join(
        f"{r.variant},{float(r.rho)!r},{r.H},{r.method},{r.metric},{float(r.value)!r}"
        for r in report.rows
    )


class McRunner:
    """Runs and checks the operations of one Monte Carlo workload."""

    def __init__(self, workload: McWorkload, seed: int):
        ref = load_reference(workload.name)
        if ref["Q"] != workload.Q or len(ref["ops"]) != len(workload.pool()):
            sys.exit(f"perfbench: reference/{workload.name}.json does not match "
                     "the workload; rerun perfbench/record.py")
        self.w = workload
        self.pool = workload.pool()
        self.expected = [op["report"] for op in ref["ops"]]
        # Round r: master seed seeds[r], all cells in an order of their own.
        rng = random.Random(seed)
        cells = workload.cells
        self.order = [s * cells + c
                      for s in rng.sample(range(workload.master_seeds), workload.master_seeds)
                      for c in rng.sample(range(cells), cells)]
        self.round = cells

    def op(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def warm_up(self) -> None:
        from surrocast import simulation

        variant, rho, s = self.pool[self.op(0)]
        simulation.run_experiment(self.w.grid(variant, rho), 2, s)

    def run(self, i: int, workers: int = 1) -> tuple[float, str | None, str]:
        """Run operation i; returns (seconds, failure or None, report text)."""
        from surrocast import simulation

        k = self.op(i)
        variant, rho, s = self.pool[k]
        grid = self.w.grid(variant, rho, workers)
        t0 = time.perf_counter()
        try:
            report = simulation.run_experiment(grid, self.w.Q, s)
        except Exception as exc:  # an operation failure, counted by the caller
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", ""
        elapsed = time.perf_counter() - t0
        text = report_text(report)
        return elapsed, mismatch(text, self.expected[k]), text


# ---------------------------------------------------------------------------
# CLI pipeline workload.
# ---------------------------------------------------------------------------

CLI_DATASETS = 8
CLI_T = 52            # history months
CLI_H = 8             # forecast horizon
CLI_CANDIDATES = 20   # x_ columns offered to ``select``
CLI_B = 500

# Each command: (name, argv, output files). Paths are relative to the
# dataset directory the command runs in. ``monthly.csv`` and ``select.csv``
# are joined by the client from ``std.csv`` between ``standardize`` and
# ``fit``, as a shell script would with ``paste``.
_HISTORY = ["--monthly", "monthly.csv", "--surrogate", "surrogate.csv",
            "--future", "future.csv", "--horizon", str(CLI_H)]


def pipeline_commands(i: int) -> list[tuple[str, list[str], tuple[str, ...]]]:
    return [
        ("aggregate-daily",
         ["aggregate-daily", "--daily", "daily.csv", "--K", "3",
          "--out", "surrogate.csv"], ("surrogate.csv",)),
        ("standardize",
         ["standardize", "--input", "raw.csv", "--mode", "cpi", "--base", "100",
          "--train-size", str(CLI_T), "--out", "std.csv"], ("std.csv",)),
        ("fit",
         ["fit", "--monthly", "monthly.csv", "--surrogate", "surrogate.csv",
          "--q1", "2", "--q2", "1", "--out", "fit.json",
          "--residual-pairs", "pairs.csv"], ("fit.json", "pairs.csv")),
        ("forecast",
         ["forecast", "--fit", "fit.json", *_HISTORY, "--out", "forecast.csv"],
         ("forecast.csv",)),
        ("interval-bj",
         ["interval", "--fit", "fit.json", *_HISTORY, "--method", "bj",
          "--alpha", "0.05", "--out", "interval_bj.csv"], ("interval_bj.csv",)),
        ("interval-boot",
         ["interval", "--fit", "fit.json", *_HISTORY, "--method", "boot",
          "--B", str(CLI_B), "--seed", str(i), "--alpha", "0.05",
          "--out", "interval_boot.csv"], ("interval_boot.csv",)),
        ("select",
         ["select", "--monthly", "select.csv", "--q-max", "4",
          "--out", "selection.csv"], ("selection.csv",)),
        ("efficiency",
         ["efficiency", "--sigma-tt", "1.0", "--rho", repr((2 + i) / 20),
          "--K", "3"], ()),
    ]


COMMAND_NAMES = tuple(name for name, _, _ in pipeline_commands(0))
PER_ITERATION = len(COMMAND_NAMES)
_DERIVED = ("monthly.csv", "select.csv")


def _write(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _draw_panels(i: int):
    """Dataset i's monthly target, covariates and surrogate readings: an AR(2)
    target and a VAR(1) K=3 surrogate driven by two AR(1) covariates, with
    innovations equicorrelated at 0.3 (the shape of ``benchmark_dgp``). Drawn
    here rather than by the package, so that the inputs stay the same when
    the package's generator changes."""
    import numpy as np

    rng = np.random.default_rng(1000 + i)
    burn, n = 100, CLI_T + CLI_H
    total = burn + n
    chol = np.linalg.cholesky(np.full((4, 4), 0.3) + 0.7 * np.eye(4))
    eps = rng.standard_normal((total, 4)) @ chol.T
    x = np.zeros((total, 2))
    y = np.zeros(total)
    ys = np.zeros((total, 3))
    A = np.array([[0.2] * 3, [-0.2] * 3, [-0.1] * 3])
    B = np.array([[0.1, 0.1], [-0.1, -0.1], [-0.3, -0.3]])
    for t in range(2, total):
        x[t] = 0.5 * x[t - 1] + 6.0 * np.sqrt(0.75) * rng.standard_normal(2)
        ys[t] = A @ ys[t - 1] + B @ x[t] + eps[t, 1:]
        y[t] = 0.5 * y[t - 1] - 0.3 * y[t - 2] + x[t] @ [0.7, -0.2] + eps[t, 0]
    return y[burn:], x[burn:], ys[burn:], rng


def write_dataset(i: int, directory: Path) -> None:
    """Input CSVs of dataset i: a daily index, a raw monthly index, the
    covariates with 18 noise candidates, and the future rows."""
    directory.mkdir(parents=True, exist_ok=True)
    y, x, ys, rng = _draw_panels(i)
    first = dt.date(2019, 1, 1)
    months = [f"{first.year + t // 12}-{t % 12 + 1:02d}" for t in range(CLI_T + CLI_H)]

    daily = []
    for t in range(CLI_T):
        year, month = first.year + t // 12, t % 12 + 1
        day = dt.date(year, month, 1)
        while day.month == month:
            k = 0 if day.day <= 10 else 1 if day.day <= 20 else 2
            daily.append([day.isoformat(),
                          repr(float(ys[t, k] + 0.5 * rng.standard_normal()))])
            day += dt.timedelta(days=1)
    _write(directory / "daily.csv", ["date", "score"], daily)

    _write(directory / "raw.csv", ["month", "cpi"],
           [[months[t], repr(float(100.0 + y[t]))] for t in range(CLI_T)])

    noise = rng.standard_normal((CLI_T, CLI_CANDIDATES - 2))
    _write(directory / "covariates.csv",
           ["month"] + [f"x_{j + 1}" for j in range(CLI_CANDIDATES)],
           [[months[t]] + [repr(float(v)) for v in x[t]]
            + [repr(float(v)) for v in noise[t]] for t in range(CLI_T)])

    _write(directory / "future.csv",
           ["month", "x_1", "x_2", "ys_1", "ys_2", "ys_3"],
           [[months[t]] + [repr(float(v)) for v in x[t]]
            + [repr(float(v)) for v in ys[t]] for t in range(CLI_T, CLI_T + CLI_H)])


def join_standardized(directory: Path) -> None:
    """monthly.csv (y, x_1, x_2) and select.csv (y, all candidates) from the
    standardized index and the covariates."""
    with open(directory / "std.csv", newline="") as fh:
        std = list(csv.reader(fh))[1:]
    with open(directory / "covariates.csv", newline="") as fh:
        cov = list(csv.reader(fh))
    _write(directory / "monthly.csv", ["month", "y", "x_1", "x_2"],
           [[m, y] + c[1:3] for (m, y), c in zip(std, cov[1:])])
    _write(directory / "select.csv", ["month", "y"] + cov[0][1:],
           [[m, y] + c[1:] for (m, y), c in zip(std, cov[1:])])


def spawn(argv: list[str], cwd: Path) -> tuple[float, int, str, str]:
    """One ``surrocast`` process, timed from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_SHIM, *argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def call_in_process(argv: list[str], cwd: Path) -> tuple[float, int, str, str]:
    """``surrocast.cli.main(argv)`` in this process, run from ``cwd``."""
    from surrocast import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        elapsed = time.perf_counter() - t0
        os.chdir(old)
    return elapsed, rc, out.getvalue(), err.getvalue()


class CliRunner:
    """Runs and checks the commands of the pipeline, one at a time."""

    def __init__(self, seed: int, directory: Path):
        ref = load_reference("cli-pipeline")
        if len(ref["datasets"]) != CLI_DATASETS:
            sys.exit("perfbench: reference/cli-pipeline.json does not match the "
                     "workload; rerun perfbench/record.py")
        self.expected = ref["datasets"]
        self.dir = directory
        self.order = random.Random(seed).sample(range(CLI_DATASETS), CLI_DATASETS)
        self.round = PER_ITERATION

    def set_up(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        for i in range(CLI_DATASETS):
            write_dataset(i, self.dir / f"ds{i}")

    def dataset(self, iteration: int) -> int:
        return self.order[iteration % CLI_DATASETS]

    def run(self, n: int, runner=spawn) -> tuple[str, float, str | None]:
        """Run command n of the sequence (command n % 8 of iteration n // 8).

        Returns (command name, seconds, failure or None)."""
        i = self.dataset(n // PER_ITERATION)
        d = self.dir / f"ds{i}"
        name, argv, outputs = pipeline_commands(i)[n % PER_ITERATION]
        if name == "aggregate-daily":  # a new iteration: no stale outputs
            for _, _, outs in pipeline_commands(i):
                for f in outs:
                    (d / f).unlink(missing_ok=True)
            for f in _DERIVED:
                (d / f).unlink(missing_ok=True)
        elapsed, rc, out, err = runner(argv, d)
        if rc != 0:
            return name, elapsed, f"exit {rc}: {err.strip()[-300:]}"
        want = self.expected[i][name]
        bad = mismatch(out, want["stdout"])
        for f in outputs:
            if bad:
                break
            path = d / f
            bad = (mismatch(path.read_text(), want["files"][f])
                   if path.exists() else f"{f} not written")
        if bad:
            return name, elapsed, bad
        if name == "standardize":
            join_standardized(d)
        return name, elapsed, None


def record_dataset(i: int, directory: Path) -> dict:
    """Outputs of every command on dataset i, for the reference file."""
    out = {}
    for name, argv, outputs in pipeline_commands(i):
        _, rc, stdout, err = spawn(argv, directory)
        if rc != 0:
            sys.exit(f"perfbench: {name} failed on dataset {i}: {err}")
        out[name] = {"stdout": stdout,
                     "files": {f: (directory / f).read_text() for f in outputs}}
        if name == "standardize":
            join_standardized(directory)
    return out
