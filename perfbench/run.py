"""Run one workload of the iwafitt benchmark and print its metrics.

    python3 perfbench/run.py --workload fitting-principal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. Workloads: fitting-principal, lambda-series,
euler-deep (in-process) and cli-cold (one ``iwafitt`` process per op).
Each is a closed loop with one client: the next op starts when the last
one has returned. A workload's ops come in fixed cycles of op shapes, and
the loop stops at the first cycle boundary where the ops have been busy
for ``--seconds`` and at least MIN_OPS have run, so every run has the same
mix. Oracle checks run between ops, outside the timed region.

Times are speed-scaled. On small shared machines the host's speed drifts
by a quarter within seconds, so a fixed loop of small- and big-integer and
dict work is timed between ops, and each op's time is multiplied by
REF_LOOP_S over the mean of the loop's times just before and just after it. The figures read
as if the machine ran at the speed where the loop takes REF_LOOP_S. The
in-process workloads time ops and loop in wall-clock seconds. cli-cold
times each op as the child's CPU seconds (user plus system) and the loop
in the parent's thread CPU seconds: the wall time of a fresh process on a
shared host also holds scheduling waits and stolen time, which no
calibration tracks. The unscaled figures are kept in the record line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a fixed,
seed-determined list of ops three times: untraced, with spans around every
layer boundary, and untraced again. It reports the per-layer metrics and
the tracing overhead; its counts repeat exactly for a given seed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it records the run: seed, interpreter,
CPU count, git commit, the sample counts behind each percentile, the
failure ratio and the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import clicold  # noqa: E402  (standard library only; imports no iwafitt module)
import gen  # noqa: E402

WORKLOADS = ("fitting-principal", "lambda-series", "euler-deep", "cli-cold")
GENERATORS = {
    "fitting-principal": gen.fitting_docs,
    "lambda-series": gen.lambda_docs,
    "euler-deep": gen.euler_docs,
}
# Distinct inputs made per run, whole cycles and well above the ops a run
# gets through at the seed commit; past that the stream repeats, and the
# record line says what share of the ops were repeats.
INPUTS = {"fitting-principal": 500, "lambda-series": 1000, "euler-deep": 300}
# Ops in a traced run: whole cycles, so every op shape is traced.
TRACE_OPS = {"fitting-principal": 40, "lambda-series": 40, "euler-deep": 20, "cli-cold": 20}
MIN_OPS = 100  # leaves >= 10 samples above the 90th percentile
HARD_CAP_S = 150.0
SETUP_REPEATS = 9  # in-process set-ups take about 0.1-0.2 s each
CLI_SETUP_REPEATS = 5  # each runs two simulate processes
PROBE_REPEATS = 5
CALIBRATION_ITERATIONS = 5000
BIGINT_ITERATIONS = 600
REF_LOOP_S = 0.0012
_RAISED = object()


def calibrate_loop(clock=time.perf_counter) -> float:
    """Time on ``clock`` for a fixed loop of work, about REF_LOOP_S.

    Small-integer and dict work, then big-integer products stored under
    tuple keys: the host's slowdowns hit the workloads' small-int and
    big-int work differently, and the two parts together track both.
    """
    t0 = clock()
    acc, table = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    big, memo = 3**40, {}
    for i in range(BIGINT_ITERATIONS):
        big = (big * 7 + i) % 5**40
        memo[i & 511, i >> 3] = big * big
    return clock() - t0


def calibrate_cpu() -> float:
    return calibrate_loop(time.thread_time)


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REF_LOOP_S / (before + after)


def _git_head():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _closed_loop(op, judge, seconds: float, cycle: int, calibrate):
    """op(i) -> (seconds, result) back to back; judge(i, result) -> ok, untimed.

    Runs whole cycles of ``cycle`` ops. One calibration runs between
    consecutive ops and serves both.
    """
    raw, times, failed, busy = [], [], 0, 0.0
    started = time.perf_counter()
    before = calibrate()
    while len(raw) % cycle or (
        (busy < seconds or len(raw) < MIN_OPS)
        and time.perf_counter() - started < HARD_CAP_S
    ):
        i = len(raw)
        dt, result = op(i)
        after = calibrate()
        raw.append(dt)
        times.append(scaled(dt, before, after))
        busy += dt
        failed += not judge(i, result)
        before = after
    return raw, times, failed, busy


def _percentiles(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    rank90 = math.ceil(0.9 * n)
    return n / sum(ordered), statistics.median(ordered), ordered[rank90 - 1], n - rank90


def _loop_metrics(raw, times):
    ops_per_s, p50, p90, above = _percentiles(times)
    raw_ops_per_s, raw_p50, raw_p90, _ = _percentiles(raw)
    metrics = {
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "latency_p50_ms": _metric(p50 * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
    }
    record = {
        "latency_samples": len(times),
        "samples_above_p90": above,
        "unscaled": {"ops_per_s": raw_ops_per_s, "latency_p50_ms": raw_p50 * 1e3,
                     "latency_p90_ms": raw_p90 * 1e3},
    }
    return metrics, record


def _report_failure(context: str) -> None:
    print(f"# op failed ({context}):", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ------------------------------------------------------------ in-process


def _build_all(workload, docs):
    import ops

    build = ops.WORKLOADS[workload][0]
    return [build(doc) for doc in docs]


def setup_probe(workload: str, docs_path: Path) -> None:
    """Child side of a set-up sample: import iwafitt and build every input."""
    docs = json.loads(docs_path.read_text(encoding="utf-8"))
    before = calibrate_loop()
    t0 = time.perf_counter()
    _build_all(workload, docs)
    dt = time.perf_counter() - t0
    print(json.dumps([dt, scaled(dt, before, calibrate_loop())]))


def _setup_samples(workload, docs, work: Path):
    """(raw, scaled) set-up seconds, each from a fresh process."""
    path = work / "docs.json"
    path.write_text(json.dumps([doc for doc, _ in docs]), encoding="utf-8")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _in_process_op(workload, inputs, planted):
    """(op, judge) over the prepared inputs, cycling when they run out."""
    import ops

    _, run_op, check = ops.WORKLOADS[workload]
    n = len(inputs)

    def op(i):
        t0 = time.perf_counter()
        try:
            result = run_op(inputs[i % n])
        except Exception:  # an op that raises counts as failed; the run goes on
            result = _RAISED
            _report_failure(f"{workload} op {i}")
        return time.perf_counter() - t0, result

    def judge(i, result):
        if result is _RAISED:
            return False
        try:
            return check(inputs[i % n], planted[i % n], result)
        except Exception:
            _report_failure(f"{workload} check {i}")
            return False

    return op, judge


def run_in_process(workload, seed, seconds, work: Path):
    docs = GENERATORS[workload](seed, INPUTS[workload])
    setups = _setup_samples(workload, docs, work)
    t0 = time.perf_counter()
    inputs = _build_all(workload, [doc for doc, _ in docs])
    setup_in_run = time.perf_counter() - t0
    op, judge = _in_process_op(workload, inputs, [answer for _, answer in docs])
    raw, times, failed, busy = _closed_loop(op, judge, seconds, gen.CYCLE, calibrate_loop)
    metrics, record = _loop_metrics(raw, times)
    metrics["setup_s"] = _metric(statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mib"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    correct = failed == 0
    extra = {}
    if workload == "euler-deep":
        import ops

        caught = ops.euler_perturbation_caught(inputs[0])
        extra["planted_perturbation_caught"] = caught
        correct = correct and caught
    record.update({
        "inputs_distinct": len(inputs),
        "repeated_op_share": max(0, len(raw) - len(inputs)) / len(raw),
        "setup_samples_s": setups,
        "setup_in_run_s": setup_in_run,
        "busy_s": busy,
        **extra,
    })
    return correct, len(raw), failed, metrics, record


def _cli_probes(env):
    """Medians of `python -c pass` and of `import iwafitt.cli` on top of it.

    Also returns how many of the probe processes exited non-zero.
    """
    nonzero = 0

    def median_of(code):
        nonlocal nonzero
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
            times.append(time.perf_counter() - t0)
            nonzero += done.returncode != 0
        return statistics.median(times)

    interpreter = median_of("pass")
    metrics = {
        "cli.interpreter_s": _metric(interpreter, "s"),
        "cli.import_s": _metric(median_of("import iwafitt.cli") - interpreter, "s"),
    }
    return metrics, nonzero


def _traced_passes(op, judge, count):
    """The same ops untraced, traced, and untraced again.

    Per-layer metrics come from the traced pass. Its overhead is measured
    in speed-scaled op time against the mean of the two untraced passes
    around it, which cancels warm-up and a steady drift in the host's speed.
    """
    import spans

    def scaled_op(i):
        before = calibrate_loop()
        dt, result = op(i)
        return scaled(dt, before, calibrate_loop()), result

    def untraced_pass():
        times = []
        for i in range(count):
            dt, result = scaled_op(i)
            times.append((dt, judge(i, result)))
        return times

    first = untraced_pass()
    tracer = spans.Tracer()
    traced = []
    with spans.installed(tracer):
        for i in range(count):
            tracer.op_id = i
            traced.append(scaled_op(i))
    traced = [(dt, judge(i, result)) for i, (dt, result) in enumerate(traced)]
    second = untraced_pass()
    failed = sum(not ok for _, ok in first + traced + second)
    untraced_s = (sum(dt for dt, _ in first) + sum(dt for dt, _ in second)) / 2
    metrics = {name: _metric(v, unit) for name, (v, unit) in spans.layer_metrics(tracer).items()}
    metrics["trace.overhead_s"] = _metric(sum(dt for dt, _ in traced) - untraced_s, "s")
    return metrics, failed, {"spans": len(tracer.start), "untraced_s": untraced_s}


def trace_in_process(workload, seed, env):
    docs = GENERATORS[workload](seed, TRACE_OPS[workload])
    inputs = _build_all(workload, [doc for doc, _ in docs])
    op, judge = _in_process_op(workload, inputs, [answer for _, answer in docs])
    metrics, failed, record = _traced_passes(op, judge, len(inputs))
    probes, probe_nonzero = _cli_probes(env)
    metrics.update(probes)
    metrics["cli.exit_nonzero"] = _metric(probe_nonzero, "count")
    return failed == 0 and probe_nonzero == 0, 3 * len(inputs), failed, metrics, record


# -------------------------------------------------------------- cli-cold


def run_cli(seed, seconds, work: Path, env):
    setups, setup_ok = [], True
    before = calibrate_cpu()
    for _ in range(CLI_SETUP_REPEATS):
        ok, cpu = clicold.setup(seed, ROOT, work, env)
        after = calibrate_cpu()
        setup_ok &= ok
        setups.append([cpu, scaled(cpu, before, after)])
        before = after
    cycle = clicold.op_list(seed, work)
    walls, peak_kib = [], [0]

    def op(i):
        code, out, wall, cpu, rss_kib = clicold.run_child(cycle[i % len(cycle)][1], ROOT, env)
        walls.append(wall)
        peak_kib[0] = max(peak_kib[0], rss_kib)
        return cpu, (code, out)

    def judge(i, result):
        return clicold.golden_ok(cycle[i % len(cycle)][2], *result)

    raw, times, failed, busy = _closed_loop(op, judge, seconds, len(cycle), calibrate_cpu)
    metrics, record = _loop_metrics(raw, times)
    metrics["setup_s"] = _metric(statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mib"] = _metric(peak_kib[0] / 1024, "MiB")
    wall_ops_per_s, wall_p50, wall_p90, _ = _percentiles(walls)
    record.update({
        "wall_clock": {"ops_per_s": wall_ops_per_s, "latency_p50_ms": wall_p50 * 1e3,
                       "latency_p90_ms": wall_p90 * 1e3},
        "ops_per_cycle": len(cycle),
        "setup_samples_s": setups,
        "busy_s": busy,
    })
    return failed == 0 and setup_ok, len(raw), failed, metrics, record


def trace_cli(seed, work: Path, env):
    setup_ok, _ = clicold.setup(seed, ROOT, work, env)
    cycle = clicold.op_list(seed, work)
    from iwafitt import cli

    def op(i):
        t0 = time.perf_counter()
        result = clicold.run_in_process(cycle[i % len(cycle)][1], cli.main)
        return time.perf_counter() - t0, result

    codes = []

    def judge(i, result):
        codes.append(result[0])
        return clicold.golden_ok(cycle[i % len(cycle)][2], *result)

    count = TRACE_OPS["cli-cold"]
    metrics, failed, record = _traced_passes(op, judge, count)
    traced_codes = codes[count:2 * count]
    probes, probe_nonzero = _cli_probes(env)
    metrics.update(probes)
    metrics["cli.exit_nonzero"] = _metric(
        sum(code != 0 for code in traced_codes) + probe_nonzero, "count")
    return failed == 0 and setup_ok and probe_nonzero == 0, 3 * count, failed, metrics, record


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "iwafitt" / "cli.py").is_file():
        print(f"error: no iwafitt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        setup_probe(args.workload, args.setup_probe)
        return 0

    os.chdir(ROOT)
    env = clicold.child_env(ROOT)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    wall0 = time.perf_counter()
    try:
        if args.workload == "cli-cold" and args.trace:
            outcome = trace_cli(args.seed, work, env)
        elif args.workload == "cli-cold":
            outcome = run_cli(args.seed, args.seconds, work, env)
        elif args.trace:
            outcome = trace_in_process(args.workload, args.seed, env)
        else:
            outcome = run_in_process(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics, record = outcome
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "git_head": _git_head(),
        "fail_ratio": failed / attempted,
        "wall_s": time.perf_counter() - wall0,
        **record,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
