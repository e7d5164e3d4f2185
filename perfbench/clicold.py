"""The cli-cold workload: one fresh ``iwafitt`` process per op.

The op list covers every subcommand family on the fixture documents in
``fixtures/`` (copies of the repository's test fixtures, owned here so the
benchmark's inputs do not move with the tests) and the README examples,
plus one ``euler simulate`` and two ``euler verify --in`` calls on each of
two generated systems. Every answer is checked against stdout frozen from the seed
commit: the exact bytes for the fixture commands, sha256 and length for
the larger simulator payloads.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
GOLDENS = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
FX = "perfbench/fixtures/"

# (name, argv) in cycle order. op_list spreads the generated-system ops,
# the heaviest, evenly through the cycle, so that a partial cycle keeps
# the cost mix.
_FIXED = [
    ("fitt-1", ["fitt", "--in", FX + "diag123.json", "--index", "1"]),
    ("ideal-sqrt", ["ideal", "sqrt", "--in", FX + "sq.json"]),
    ("ideal-ord", ["ideal", "ord", "--in", FX + "ord.json"]),
    ("module-specialize", ["lambda-module", "specialize", "--in", FX + "module.json",
                           "--stratum", "3", "--index", "0"]),
    ("module-parity", ["lambda-module", "parity", "--in", FX + "parity.json"]),
    ("euler-verify-seed7", ["euler", "verify", "--seed", "7", "--k", "5", "--shape", "0:2,1"]),
    ("euler-reconstruct-2", ["euler", "reconstruct", "--in", FX + "reconstruct.json", "--index", "2"]),
    ("euler-stabilize-2", ["euler", "stabilize", "--in", FX + "stabilize.json", "--stratum", "2"]),
    ("ideal-prec", ["ideal", "prec", "--in", FX + "pair.json"]),
    ("ideal-sim", ["ideal", "sim", "--in", FX + "pair.json"]),
    ("ideal-principal", ["ideal", "principal", "--in", FX + "ord.json"]),
    ("module-fitt-class", ["lambda-module", "fitt-class", "--in", FX + "module.json", "--index", "1"]),
    ("module-slope", ["lambda-module", "slope", "--in", FX + "module.json", "--index", "0"]),
    ("c-ideal-kappa", ["euler", "c-ideal", "--in", FX + "c_elements.json", "--index", "1",
                       "--side", "kappa"]),
]


def simulate_argv(index: int) -> list:
    shape, k, pool, seed = gen.CLI_SYSTEMS[index]
    return ["euler", "simulate", "--shape", shape, "--k", str(k), "--pool", pool,
            "--seed", str(seed)]


def system_doc_path(work: Path, index: int) -> Path:
    return work / f"system-{index}.json"


def op_list(seed: int, work: Path) -> list:
    """(name, argv, golden) per op of one cycle of 20.

    Each generated system gets one simulate and two verify --in calls. By
    cost the 14 fixture calls fill 0-70% of a cycle, the simulates 70-80%
    and the verifies 80-100%, so the median and p90 both fall well inside
    a class of equal-cost calls.
    """
    heavy = []
    for index in gen.cli_systems(seed):
        frozen = GOLDENS["systems"][index]
        verify = (f"euler-verify-in-{index}",
                  ["euler", "verify", "--in", str(system_doc_path(work, index))],
                  frozen["verify"])
        heavy += [(f"euler-simulate-{index}", simulate_argv(index), frozen["simulate"]),
                  verify, verify]
    ops = [(name, argv, GOLDENS["commands"][name]) for name, argv in _FIXED]
    for slot, op in zip((0, 3, 7, 10, 13, 17), heavy):
        ops.insert(slot, op)
    return ops


def golden_ok(golden, code: int, out: bytes) -> bool:
    if code != 0:
        return False
    if "stdout" in golden:
        return out == golden["stdout"].encode()
    return len(out) == golden["bytes"] and hashlib.sha256(out).hexdigest() == golden["sha256"]


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IWAFITT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv, root: Path, env: dict):
    """One cold CLI call: (exit code, stdout, wall s, CPU s, peak RSS KiB).

    CPU is the child's user plus system time, which unlike wall time leaves
    out the time a shared host keeps it waiting or steals its CPU.
    """
    t0 = time.perf_counter()
    # wait4 rather than communicate, for the child's own rusage
    proc = subprocess.Popen(
        [sys.executable, "-m", "iwafitt.cli", *argv],
        cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def setup(seed: int, root: Path, work: Path, env: dict):
    """Write the verify --in documents from fresh simulate calls.

    Returns (all outputs matched their goldens, CPU seconds of the calls).
    """
    ok, cpu = True, 0.0
    for index in gen.cli_systems(seed):
        code, out, _, seconds, _ = run_child(simulate_argv(index), root, env)
        cpu += seconds
        ok &= golden_ok(GOLDENS["systems"][index]["simulate"], code, out)
        doc = {"data": json.loads(out) if code == 0 else {}, "shape": gen.CLI_SYSTEMS[index][0]}
        system_doc_path(work, index).write_text(json.dumps(doc), encoding="utf-8")
    return ok, cpu


def run_in_process(argv, main):
    """main(argv) with stdout captured: (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode()
