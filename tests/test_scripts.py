"""Smoke tests: the experiment scripts and the benchmark's hooks still fit the library."""

import importlib
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


def test_benchmark_trace_targets_exist(monkeypatch):
    # the benchmark's --trace run wraps these library attributes by name,
    # so deleting or renaming one breaks it; its own tests sit outside tier 1
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    importlib.import_module("ops")
    spans = importlib.import_module("spans")
    targets = spans._targets(spans.Tracer())
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
