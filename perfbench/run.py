"""surrocast benchmark.

    python3 perfbench/run.py --workload {mc-boot,mc-point,cli-pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics listed in
BENCHMARK.json, with ``--trace 1`` the per-layer ones (see README.md).
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

PROBES = 8         # fresh benchmark processes per run for setup_s and cold_start_s
PROBE_KERNELS = 3  # spawn-kernel runs between two probes on mc-*
TRACE_COUNTED_OPS = {"mc-boot": 8, "mc-point": 32, "cli-pipeline": wl.PER_ITERATION}
WORKERS2_OPS = 8   # mc-boot operations rerun at workers=2 in the traced run
IMPORTTIME_SAMPLES = 3

_FORECAST_LAYERS = [f"forecasting.forecast_{m}" for m in ("joint", "arx", "rw", "ave")]
_HARNESS_LAYERS = ["simulation.harness", "simulation.generate", "panels.standardize",
                   "estimation.fit", "selection.select_ar_order", *_FORECAST_LAYERS,
                   "intervals.bj"]
# Layers that must record calls in the traced run of each workload.
REQUIRED_LAYERS = {
    "mc-boot": _HARNESS_LAYERS + ["intervals.boot"],
    "mc-point": _HARNESS_LAYERS,
    "cli-pipeline": ["panels.read_csv", "panels.aggregate_daily", "panels.standardize",
                     "estimation.fit", *_FORECAST_LAYERS, "intervals.bj",
                     "intervals.boot", "selection.pursuit"]
                    + [f"cli.{name}" for name in wl.COMMAND_NAMES],
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int, directory: Path):
    """Import, inputs and warm-up: everything before the first timed operation."""
    wl.require_sources()
    if workload in wl.MC:
        runner = wl.McRunner(wl.MC[workload], seed)
        runner.warm_up()
    else:
        runner = wl.CliRunner(seed, directory)
        runner.set_up()
    return runner


class Tally:
    """Operations attempted and failed; failures are echoed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {what} failed: {failure}", file=sys.stderr)


def probe(args, directory: Path, tally: Tally) -> tuple[float, float]:
    """Spawn a fresh benchmark process and time, from the spawn, its cold
    start (import, then `surrocast efficiency` through the CLI entry point)
    and its set-up (up to its first timed operation). The probe signals
    each by printing a line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    cwd = directory / "probe"
    cwd.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True) as proc:
        cold = proc.stdout.readline()
        t_cold = time.perf_counter() - t0
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    tally.add("cold start", json.loads(cold))
    return t_cold, t_ready


def run_probe(args) -> None:
    wl.require_sources()
    _, argv, _ = wl.pipeline_commands(0)[-1]
    _, rc, out, err = wl.call_in_process(argv, Path.cwd())
    want = wl.load_reference("cli-pipeline")["datasets"][0]["efficiency"]["stdout"]
    failure = f"efficiency exit {rc}: {err.strip()[-300:]}" if rc else wl.mismatch(out, want)
    print(json.dumps(failure), flush=True)
    set_up(args.workload, args.seed, Path.cwd() / "data")
    print("ready", flush=True)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, read without changing it."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
                if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


def middle_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value."""
    return statistics.mean(sorted(values)[1:-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# End-to-end run (tracing off).
# ---------------------------------------------------------------------------

def measure(args, work: Path, tally: Tally) -> tuple[dict, dict, dict]:
    """Within about ``--seconds`` of wall time, time PROBES fresh benchmark
    processes and then whole rounds of operations. Every sample is bracketed
    by a calibration kernel and normalised by it (see calibrate.py); the
    metrics are taken from the normalised samples."""
    t0 = time.perf_counter()
    runner = set_up(args.workload, args.seed, work / "data")
    mc = args.workload in wl.MC
    spawn = calibrate.Spawn()
    # On cli-pipeline commands and probes are all child processes, bracketed
    # by one chain of single spawn-kernel runs.
    around_probe = calibrate.Bracket(spawn, PROBE_KERNELS if mc else 1)
    kernel = calibrate.Compute() if mc else spawn
    around_op = calibrate.Bracket(kernel) if mc else around_probe
    per_op = runner.w.Q if mc else 1
    ops, colds, setups = calibrate.Timings(), calibrate.Timings(), calibrate.Timings()

    # The probes come first: an operation that runs right after a child
    # process has evicted this process's caches is slower than the others.
    for _ in range(PROBES):
        factor, (cold, setup) = around_probe(lambda: probe(args, work, tally))
        colds.add(cold, factor)
        setups.add(setup, factor)
    if mc:
        runner.warm_up()

    round_start = time.perf_counter()
    n = 0
    while True:
        now = time.perf_counter()
        # Start another round only if it is expected to end in time.
        if n % runner.round == 0 and n:
            if now + (now - round_start) - t0 > args.seconds:
                break
            round_start = now
        if mc:
            factor, (elapsed, failure, _) = around_op(lambda: runner.run(n))
            what = f"operation {n}"
        else:
            factor, (what, elapsed, failure) = around_op(lambda: runner.run(n))
        kernel.seen(elapsed)
        ops.add(elapsed, factor)
        tally.add(what, failure)
        n += 1

    def stats(t: list[float]) -> dict:
        return {"reps_per_s": per_op * n / sum(t), "cmd_s_p50": statistics.median(t),
                "cmd_s_p90": p90(t)}

    values = {**stats(ops.norm), "cold_start_s": middle_mean(colds.norm),
              "setup_s": middle_mean(setups.norm), "peak_rss_mb": peak_rss_mb()}
    raw = {**stats(ops.raw), "cold_start_s": middle_mean(colds.raw),
           "setup_s": middle_mean(setups.raw)}
    samples = {
        "reps_per_s": f"{per_op * n} {'repetitions' if mc else 'commands'}",
        "cmd_s_p50": f"{n} operations", "cmd_s_p90": f"{n} operations",
        "cold_start_s": f"middle {PROBES - 2} of {PROBES} processes",
        "setup_s": f"middle {PROBES - 2} of {PROBES} processes",
        "peak_rss_mb": "1 run",
        "machine": f"{'compute' if mc else 'spawn'} kernel {statistics.median(ops.factors):.4f} "
                   f"x nominal around operations, spawn kernel "
                   f"{statistics.median(colds.factors):.4f} x nominal around probes "
                   f"(medians; above 1: slower than nominal)",
    }
    return values, samples, raw


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------

def _command_name(argv: list[str]) -> str:
    if argv[0] == "interval":
        return "interval-" + argv[argv.index("--method") + 1]
    return argv[0]


def trace(args, work: Path, tally: Tally) -> tuple[dict, dict]:
    workload = args.workload
    runner = set_up(workload, args.seed, work / "data")
    mc = workload in wl.MC
    counted = TRACE_COUNTED_OPS[workload]

    def run_op(n: int, call=wl.call_in_process):
        if mc:
            elapsed, failure, text = runner.run(n)
            name = "run_experiment"
        else:
            name, elapsed, failure = runner.run(n, call)
            text = ""
        tally.add(f"{name} {n}", failure)
        return name, elapsed, text

    tracer = tracing.Tracer()
    tracer_calls = tracer_counts = None

    def traced_call(argv, cwd):
        with tracer.span("cli." + _command_name(argv)):
            return wl.call_in_process(argv, cwd)

    # Each operation runs untraced, then traced (and on mc-boot the first ones
    # again at workers=2), so that drift in machine speed cancels out of the
    # ratios between those runs.
    if not mc:
        importlib.import_module("surrocast.cli")
    plain, traced, workers2 = [], [], []
    by_command = collections.defaultdict(list)
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < args.seconds or n < max(counted, WORKERS2_OPS):
        name, elapsed, text = run_op(n)
        plain.append(elapsed)
        by_command[name].append(elapsed)
        tracer.install()
        try:
            traced.append(run_op(n, traced_call)[1])
        finally:
            tracer.remove()
        if workload == "mc-boot" and n < WORKERS2_OPS:
            elapsed, failure, text2 = runner.run(n, workers=2)
            if not failure and text2 != text:
                failure = "report at workers=2 differs from workers=1"
            tally.add(f"workers=2 operation {n}", failure)
            workers2.append(elapsed)
        n += 1
        if n == counted:
            tracer_calls, tracer_counts = tracer.calls(), collections.Counter(tracer.counts)

    missing = [layer for layer in REQUIRED_LAYERS[workload] if not tracer_calls[layer]]
    if missing:
        sys.exit(f"perfbench: traced {workload} recorded no calls into {', '.join(missing)}")

    layers = tracer.by_layer()

    def spans(layer, kind="self"):
        return layers.get(layer, {}).get(kind, [])

    def p50_ms(layer):
        return tracing.median(spans(layer)) * 1e3

    # Work unit of the per-unit self times: a repetition or a pipeline iteration.
    units = runner.w.Q * n if mc else n / wl.PER_ITERATION
    op_seconds = sum(spans("simulation.harness", "total")) + sum(
        sum(spans(f"cli.{c}", "total")) for c in wl.COMMAND_NAMES)
    m = {
        "tracing.overhead_ratio": sum(traced) / sum(plain),
        "intervals.boot.us_per_replicate":
            sum(spans("intervals.boot")) * 1e6 / max(tracer.counts["intervals.boot.replicates"], 1),
        "intervals.boot.share_of_rep": sum(spans("intervals.boot", "total")) / op_seconds,
        "estimation.rank_deficient": tracer_counts["estimation.rank_deficient"],
        "panels.read_csv.rows": tracer_counts["panels.read_csv.rows"],
    }
    for layer in ("intervals.boot", "intervals.bj", "estimation.fit",
                  "selection.select_ar_order", *_FORECAST_LAYERS,
                  "simulation.generate", "panels.standardize"):
        m[f"{layer}.self_ms_p50"] = p50_ms(layer)
    for layer in ("intervals.boot", "intervals.bj", "estimation.fit",
                  "selection.select_ar_order", "simulation.generate",
                  "simulation.harness", "panels.standardize", "panels.read_csv",
                  "panels.aggregate_daily", "selection.pursuit"):
        m[f"{layer}.calls"] = tracer_calls[layer]
    for layer in ("simulation.harness", "panels.read_csv", "panels.aggregate_daily",
                  "selection.pursuit"):
        m[f"{layer}.self_ms"] = sum(spans(layer)) * 1e3 / units
    for q in range(1, 5):
        m[f"selection.ar_order.q{q}"] = tracer_counts[f"selection.ar_order.q{q}"]
    m.update(tracing.import_times(wl.child_env(), IMPORTTIME_SAMPLES))

    for name in wl.COMMAND_NAMES:
        m[f"cli.{name}.in_process_ms"] = 0.0 if mc else statistics.median(by_command[name]) * 1e3
    m["cli.in_process_over_cold_start"] = 0.0
    if not mc:
        colds = [probe(args, work, tally)[0] for _ in range(IMPORTTIME_SAMPLES)]
        m["cli.in_process_over_cold_start"] = (sum(plain) / n) / statistics.median(colds)

    m["simulation.workers1_reps_per_s"] = m["simulation.workers2_reps_per_s"] = 0.0
    m["simulation.workers2_speedup"] = 0.0
    if workers2:
        reps = runner.w.Q * WORKERS2_OPS
        m["simulation.workers1_reps_per_s"] = reps / sum(plain[:WORKERS2_OPS])
        m["simulation.workers2_reps_per_s"] = reps / sum(workers2)
        m["simulation.workers2_speedup"] = (m["simulation.workers2_reps_per_s"]
                                            / m["simulation.workers1_reps_per_s"])
    samples = {"operations": f"{n} untraced, each followed by its traced rerun",
               "counts": f"first {counted} traced operations"}
    return m, samples


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        run_probe(args)
        return 0

    root = wl.ROOT
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit("perfbench: BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wl.require_sources()

    work = wl.WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    raw = {}
    try:
        if args.trace:
            values, samples = trace(args, work, tally)
            wanted = spec["per_layer"]
        else:
            values, samples, raw = measure(args, work, tally)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            wl.WORK.rmdir()
        except OSError:
            pass

    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        sys.exit(f"perfbench: no measurement for {', '.join(unknown)}")
    error_ratio = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for m in wanted:
        name = m["name"]
        as_timed = f"  (as timed: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<40} {values[name]:>14.6g} {m['unit']:<6} "
              f"{samples.get(name, '')}{as_timed}")
    print(f"  {'error_ratio':<40} {error_ratio:>14.6g} {'':<6} "
          f"{tally.failed} of {tally.attempted} operations")
    for key, text in samples.items():
        if key not in values:
            print(f"  {key}: {text}")
    print("env " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
