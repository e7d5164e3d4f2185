"""Tests of the benchmark itself: its oracles, its counts and its output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clicold  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first(workload, docs, index=0):
    build, run_op, check = ops.WORKLOADS[workload]
    doc, planted = docs[index]
    prepared = build(doc)
    return prepared, planted, run_op(prepared), check


# ------------------------------------------------------------- oracles


def test_fitting_oracle_rejects_a_wrong_exponent():
    docs = gen.fitting_docs(7, 3)
    prepared, planted, (structure, chain), check = _first("fitting-principal", docs, 2)
    assert check(prepared, planted, (structure, chain))
    wrong = list(chain)
    wrong[1] += 1
    assert not check(prepared, planted, (structure, wrong))
    assert structure is not None
    bumped = (structure[0] + 1,) + tuple(structure[1:])
    assert not check(prepared, planted, (bumped, chain))


def test_lambda_oracles_reject_wrong_answers():
    docs = gen.lambda_docs(7, 3)
    by_type = {doc["type"]: i for i, (doc, _) in enumerate(docs)}
    prepared, planted, result, check = _first("lambda-series", docs, by_type["series"])
    assert check(prepared, planted, result)
    forms, inverses, ideal, cls = result
    wrong_mu = [type(forms[0])(forms[0].mu + 1, forms[0].distinguished, forms[0].unit)] + forms[1:]
    assert not check(prepared, planted, (wrong_mu, inverses, ideal, cls))

    prepared, planted, result, check = _first("lambda-series", docs, by_type["matrix"])
    assert check(prepared, planted, result)
    off = dict(planted, v0=[v + 1 for v in planted["v0"]])
    assert not check(prepared, off, result)

    prepared, planted, result, check = _first("lambda-series", docs, by_type["slope"])
    assert check(prepared, planted, result)
    off = dict(planted, predicted=[e + 1 for e in planted["predicted"]])
    assert not check(prepared, off, result)


def test_euler_oracle_rejects_a_mutated_ind_lambda_value():
    docs = gen.euler_docs(7, 2)
    prepared, planted, result, check = _first("euler-deep", docs, 1)
    assert check(prepared, planted, result)
    data = result[0]
    nu = prepared[4]
    key = next(k for k, v in sorted(data.ind_lambda.items())
               if v > 0 and ops._weight(k) < nu)
    data.ind_lambda[key] -= 1
    assert not check(prepared, planted, result)
    assert ops.euler_perturbation_caught(prepared)


def test_cli_oracle_rejects_a_changed_golden_byte():
    exact = clicold.GOLDENS["commands"]["fitt-1"]
    out = exact["stdout"].encode()
    assert clicold.golden_ok(exact, 0, out)
    assert not clicold.golden_ok(exact, 0, out.replace(b"3", b"4"))
    assert not clicold.golden_ok(exact, 1, out)
    hashed = clicold.GOLDENS["systems"][0]["simulate"]
    code, body, _, cpu, _ = clicold.run_child(clicold.simulate_argv(0), ROOT, clicold.child_env(ROOT))
    assert cpu > 0
    assert clicold.golden_ok(hashed, code, body)
    flipped = body[:10] + bytes([body[10] ^ 1]) + body[11:]
    assert not clicold.golden_ok(hashed, code, flipped)


def test_generators_repeat_for_a_seed_and_move_with_it():
    for make in (gen.fitting_docs, gen.lambda_docs, gen.euler_docs):
        assert make(3, 25) == make(3, 25)
        assert make(3, 25) != make(4, 25)


# -------------------------------------------------------------- counts

COUNT_METRICS = ("fitting.minor_slots", "fitting.lambda.gens_raw", "euler.keys", "euler.loc_pairs")


def _counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name in COUNT_METRICS}


def _traced_counts(workload, seed, count):
    docs = run.GENERATORS[workload](seed, count)
    inputs = run._build_all(workload, [doc for doc, _ in docs])
    op, judge = run._in_process_op(workload, inputs, [answer for _, answer in docs])
    metrics, failed, _ = run._traced_passes(op, judge, count)
    assert failed == 0
    return _counts(metrics)


@pytest.mark.parametrize("workload,count", [
    ("fitting-principal", 8), ("lambda-series", 20), ("euler-deep", 9),
])
def test_counts_repeat_exactly_for_a_seed(workload, count):
    first = _traced_counts(workload, 5, count)
    assert first == _traced_counts(workload, 5, count)
    assert any(first.values())


def test_cli_trace_counts_repeat_and_tracing_is_undone(tmp_path):
    from iwafitt import cli, euler

    original = euler.simulate_system
    env = clicold.child_env(ROOT)
    runs = []
    for _ in range(2):
        assert clicold.setup(5, ROOT, tmp_path, env)[0]
        cycle = clicold.op_list(5, tmp_path)

        def op(i, cycle=cycle):
            return 0.0, clicold.run_in_process(cycle[i][1], cli.main)

        def judge(i, result, cycle=cycle):
            return clicold.golden_ok(cycle[i][2], *result)

        metrics, failed, _ = run._traced_passes(op, judge, len(cycle))
        assert failed == 0
        runs.append(_counts(metrics))
    assert runs[0] == runs[1]
    assert runs[0]["cli.main.calls"] == len(cycle)
    assert euler.simulate_system is original and cli.simulate_system is original


# --------------------------------------------------------- output contract


def _result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace,section", [
    ("euler-deep", 0, "end_to_end"), ("euler-deep", 1, "per_layer"),
    ("cli-cold", 0, "end_to_end"), ("cli-cold", 1, "per_layer"),
])
def test_result_line_carries_every_metric_of_the_spec(workload, trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    record, result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["seed"] == 2 and record["cpu_count"] and record["python"]
    if not trace:
        assert record["samples_above_p90"] >= 10


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "fitting-principal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
