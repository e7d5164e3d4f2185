"""Smoke tests: the experiment scripts run from a source checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/slope_scan.py"],
    ["scripts/sim_stats.py", "--runs", "5"],
], ids=["slope_scan", "sim_stats"])
def test_script_runs_from_a_checkout(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr
