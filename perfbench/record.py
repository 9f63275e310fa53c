"""Record the reference outputs that the benchmark checks every operation
against: the report of every Monte Carlo pool operation and the output files
and standard output of every CLI pipeline command on every dataset.

    python3 perfbench/record.py [workload ...]

Run from the root of a checkout whose outputs are known to be right; the
files go to perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def record_mc(w: wl.McWorkload) -> dict:
    from surrocast import simulation

    ops = []
    for variant, rho, s in w.pool():
        report = simulation.run_experiment(w.grid(variant, rho), w.Q, s)
        ops.append({"variant": variant, "rho": rho, "horizons": list(w.horizons), "seed": s,
                    "report": wl.report_text(report)})
    return {"Q": w.Q, "ops": ops}


def record_cli() -> dict:
    root = wl.WORK / "record"
    datasets = []
    try:
        for i in range(wl.CLI_DATASETS):
            wl.write_dataset(i, root / f"ds{i}")
            datasets.append(wl.record_dataset(i, root / f"ds{i}"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"datasets": datasets}


def main(names: list[str]) -> None:
    wl.require_sources()
    wl.REFERENCE.mkdir(exist_ok=True)
    for name in names or wl.WORKLOADS:
        doc = record_mc(wl.MC[name]) if name in wl.MC else record_cli()
        path = wl.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
