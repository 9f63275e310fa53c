import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_demo(name, tmp_path, *prefix):
    """Run demos/<name> in a fresh interpreter with TMPDIR under tmp_path."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *prefix, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", [
    "01_joint_model_basics.py",
    "02_forecasting_benchmarks.py",
    "03_prediction_intervals.py",
    "04_feature_selection.py",
    "05_monte_carlo_study.py",
])
def test_demo_runs_without_scipy(name, tmp_path):
    # the runtime needs numpy only, so every demo runs with scipy unimportable
    blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
               "runpy.run_path(sys.argv[1], run_name='__main__')")
    proc = _run_demo(name, tmp_path, "-c", blocked)
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_runs(tmp_path):
    # the demo writes its CSVs under TMPDIR and drives every CLI step
    proc = _run_demo("06_cli_pipeline.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "bootstrap interval rows (h,point,lower,upper):" in proc.stdout
    (work,) = tmp_path.glob("surrocast_demo_*")
    for name in ("fit.json", "pairs.csv", "forecast.csv", "interval.csv"):
        assert (work / name).stat().st_size > 0
