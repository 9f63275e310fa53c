import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cli_pipeline_demo_runs(tmp_path):
    # the demo writes its CSVs under TMPDIR and drives every CLI step
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_cli_pipeline.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bootstrap interval rows (h,point,lower,upper):" in proc.stdout
    (work,) = tmp_path.glob("surrocast_demo_*")
    for name in ("fit.json", "pairs.csv", "forecast.csv", "interval.csv"):
        assert (work / name).stat().st_size > 0
