"""Run workloads on several seeds and report how steady each metric is.

    python3 perfbench/steady.py                                # all workloads, seeds 1-10
    python3 perfbench/steady.py --workloads cli-cold --seeds 1-5
    python3 perfbench/steady.py --seeds 9001-9010              # held-out seeds

Each run is ``run.py`` in its own process with ``run_seconds`` from
BENCHMARK.json. For every end-to-end metric the report gives the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread, (q3 - q1) /
median, next to the metric's bound. A spread above the bound makes the
workload unsteady; the target is a third of the bound. Seeds 9001 and up
are held out: use them to confirm a change on seeds it was not tuned on.
Exit code 0 when every run was correct and every spread within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="list and ranges, e.g. 1-5,9001")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    workloads, ok = [], True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
            results.append(result)
        runs_ok = all(r["correct"] and r["failed"] == 0 for r in results)
        metrics = {}
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarize(values, spec["bound"])
        workloads.append(workload)
        ok &= runs_ok
        print(f"{workload}: {len(seeds)} runs, all correct: {runs_ok}")
        for name, m in metrics.items():
            steady = m["spread"] <= m["bound"]
            note = "ok" if m["spread"] <= m["bound"] / 3 else "within bound" if steady else "UNSTEADY"
            print(f"  {name:16s} median {m['median']:12.5g}  q1 {m['q1']:12.5g}  "
                  f"q3 {m['q3']:12.5g}  spread {m['spread']:7.2%} / bound {m['bound']:.0%}  {note}")
            ok &= steady
    print(json.dumps({"ok": ok, "workloads": workloads}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
