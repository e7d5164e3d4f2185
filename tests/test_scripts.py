"""Smoke tests: the experiment scripts and the benchmark's hooks still fit the library."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]


def _run(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["scripts/slope_scan.py"],
    ["scripts/sim_stats.py", "--runs", "5"],
], ids=["slope_scan", "sim_stats"])
def test_script_runs_from_a_checkout(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,flag", [
    (["scripts/slope_scan.py", "--index", "01"], "--index"),
    (["scripts/sim_stats.py", "--k", "+3", "--runs", "1"], "--k"),
], ids=["slope_scan", "sim_stats"])
def test_script_refuses_a_noncanonical_integer_flag(argv, flag):
    proc = _run(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"argument {flag}: must be a canonical decimal integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,flag", [
    (["scripts/slope_scan.py", "--prime", "+3,01"], "--prime"),
    (["scripts/slope_scan.py", "--index", "-1"], "--index"),
    (["scripts/slope_scan.py", "--prime", "3,2"], "--prime"),
    (["scripts/slope_scan.py", "--module", "{bad"], "--module"),
    (["scripts/sim_stats.py", "--runs", "-1"], "--runs"),
    (["scripts/sim_stats.py", "--runs", "0"], "--runs"),
    (["scripts/sim_stats.py", "--shape", "x"], "--shape"),
    (["scripts/sim_stats.py", "--pool-size", "4", "--runs", "1"], "--pool-size"),
    (["scripts/sim_stats.py", "--pool-size", "19", "--runs", "1"], "--pool-size"),
    (["scripts/sim_stats.py", "--nongeneric", "-1", "--runs", "1"], "--nongeneric"),
], ids=[
    "slope_scan_signed_prime", "slope_scan_negative_index", "slope_scan_nonmonic_prime",
    "slope_scan_bad_module",
    "sim_stats_negative_runs", "sim_stats_zero_runs", "sim_stats_bad_shape",
    "sim_stats_shallow_pool", "sim_stats_pool_past_ids", "sim_stats_negative_nongeneric",
])
def test_script_refuses_a_flag_out_of_range(argv, flag):
    proc = _run(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"error: argument {flag}: " in proc.stderr
    assert "Traceback" not in proc.stderr


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
