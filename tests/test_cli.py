"""End-to-end CLI tests: golden outputs, exit codes, determinism."""

import copy
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from iwafitt.cli import main
from iwafitt.euler import AdmissiblePrimeLabel, SelmerShape, simulate_system

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def fx(name):
    return str(FIXTURES / name)


# ------------------------------------------------------- golden fixtures


GOLDEN = [
    (["fitt", "--in", fx("diag123.json"), "--index", "1"], '{"exponent":3}\n'),
    (["fitt", "--in", fx("diag123.json"), "--index", "0"], '{"exponent":6}\n'),
    (["ideal", "sqrt", "--in", fx("sq.json")], '{"class":{"PI":1,"T":1}}\n'),
    (["ideal", "ord", "--in", fx("ord.json")], '{"ord":1}\n'),
    (["ideal", "prec", "--in", fx("pair.json")], '{"prec":true}\n'),
    (["ideal", "sim", "--in", fx("pair.json")], '{"sim":true}\n'),
    (["ideal", "principal", "--in", fx("ord.json")], '{"class":{"PI":1}}\n'),
    (
        ["lambda-module", "fitt-class", "--in", fx("module.json"), "--index", "1"],
        '{"class":{"PI":1}}\n',
    ),
    (
        ["lambda-module", "specialize", "--in", fx("module.json"),
         "--stratum", "3", "--index", "0"],
        '{"exponents":[1,1,6],"fitting_exponent":8,"j":3,"tower":"unramified"}\n',
    ),
    (["lambda-module", "parity", "--in", fx("parity.json")], '{"balanced":true}\n'),
    (
        ["euler", "reconstruct", "--in", fx("reconstruct.json"), "--index", "0"],
        '{"d":[2,1],"e":1,"sha_exponent":6}\n',
    ),
    (["euler", "c-ideal", "--in", fx("c_elements.json"), "--index", "2"],
     '{"class":{"PI":1}}\n'),
    (
        ["euler", "c-ideal", "--in", fx("c_elements.json"), "--index", "1",
         "--side", "kappa"],
        '{"class":{"PI":1,"T":1}}\n',
    ),
    (["euler", "stabilize", "--in", fx("stabilize.json"), "--stratum", "1"],
     '{"k0":2}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: v[0] if isinstance(v, list) else None)
def test_golden_fixture_outputs(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert out == expected


def test_slope_subcommand_reports_linear_growth(capsys):
    code, out, _ = run(
        ["lambda-module", "slope", "--in", fx("module.json"), "--index", "0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["stabilized_slope"] == rep["predicted_slope"] == 2
    assert rep["values"]["3"] == 8 and rep["values"]["10"] == 22


# --------------------------------------------------- simulator commands


def test_verify_command_passes_and_is_deterministic(capsys):
    argv = ["euler", "verify", "--seed", "7", "--k", "5", "--shape", "0:2,1"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["all_match"] and rep["reciprocity"]
    assert all(s["match"] for s in rep["artsel"]["strata"])
    assert all(b["match"] for b in rep["artkappa"]["bridge"])


def test_simulate_output_feeds_verify(capsys):
    code, out, _ = run(
        ["euler", "simulate", "--shape", "0:1", "--k", "3", "--seed", "11"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta_sim"] == 0 and data["ind_lambda"]["1"] == 1
    wrapped = json.dumps({"data": data, "shape": "0:1"})
    code, out2, _ = run(["euler", "verify", "--in", wrapped], capsys)
    assert code == 0
    assert json.loads(out2)["all_match"]
    # a doctored index must flip the verdict
    data["ind_lambda"]["1"] = 3
    wrapped = json.dumps({"data": data, "shape": "0:1"})
    code, out3, _ = run(["euler", "verify", "--in", wrapped], capsys)
    assert code == 1
    assert not json.loads(out3)["all_match"]


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    argv = ["euler", "simulate", "--shape", "1:", "--k", "4"]
    monkeypatch.setenv("IWAFITT_SEED", "11")
    _, from_env, _ = run(argv, capsys)
    _, from_flag, _ = run(argv + ["--seed", "11"], capsys)
    assert from_env == from_flag
    monkeypatch.setenv("IWAFITT_SEED", "abc")
    code, _, err = run(argv, capsys)
    assert code == 2 and "IWAFITT_SEED" in err


# int() read all but "" as 11 or 0, so two spellings gave one answer
NONCANONICAL = ["+11", " 11", "011", "11 ", "1_1", "-0", ""]


@pytest.mark.parametrize("text", NONCANONICAL)
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fitt", "--in", fx("diag123.json"), "--index", None], "--index"),
        (["fitt", "--in", fx("diag123.json"), "--index", "0", "--K", None], "--K"),
        (["lambda-module", "specialize", "--in", fx("module.json"),
          "--stratum", None, "--index", "0"], "--stratum"),
        (["euler", "c-ideal", "--in", fx("c_elements.json"), "--index", "2",
          "--m", None], "--m"),
        (["euler", "simulate", "--shape", "1:", "--k", None], "--k"),
        (["euler", "verify", "--shape", "1:", "--k", "4", "--seed", None], "--seed"),
    ],
)
def test_noncanonical_integer_flags_are_usage_errors(argv, flag, text, capsys):
    argv = [text if a is None else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"input error at {flag}:" in err


@pytest.mark.parametrize("raw", NONCANONICAL)
def test_noncanonical_seed_environment_is_a_usage_error(raw, capsys, monkeypatch):
    monkeypatch.setenv("IWAFITT_SEED", raw)
    code, out, err = run(["euler", "simulate", "--shape", "1:", "--k", "4"], capsys)
    assert code == 2 and out == ""
    assert "input error at env:IWAFITT_SEED:" in err


def test_canonical_negative_seeds_still_work(capsys, monkeypatch):
    argv = ["euler", "simulate", "--shape", "1:", "--k", "4"]
    code, from_flag, _ = run(argv + ["--seed", "-3"], capsys)
    monkeypatch.setenv("IWAFITT_SEED", "-3")
    code_env, from_env, _ = run(argv, capsys)
    assert code == code_env == 0 and from_flag == from_env
    # the default pool for shape 1: is six generic labels with k_ell = 2k
    pool = [AdmissiblePrimeLabel(i, 8) for i in (2, 3, 5, 7, 11, 13)]
    data, _ = simulate_system(SelmerShape(1, ()), 4, pool, seed=-3, nu_max=1)
    assert json.loads(from_flag) == data.to_dict()


# ------------------------------------------------- formats and plumbing


def test_inline_json_input(capsys):
    doc = json.dumps({"p": 3, "basis": ["PI"], "generators": [[2]]})
    code, out, _ = run(["ideal", "sqrt", "--in", doc], capsys)
    assert code == 0
    assert out == '{"class":{"PI":1}}\n'


def test_text_format_and_out_file(capsys, tmp_path):
    code, out, _ = run(
        ["fitt", "--in", fx("diag123.json"), "--index", "1",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out == "exponent = 3\n"
    target = tmp_path / "result.json"
    code, out, _ = run(
        ["fitt", "--in", fx("diag123.json"), "--index", "1",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == '{"exponent":3}\n'


def test_stderr_carries_banner_not_stdout(capsys):
    _, out, err = run(["fitt", "--in", fx("diag123.json"), "--index", "1"], capsys)
    assert "p=3 K=12" in err
    assert "#" not in out


# ------------------------------------------------------------ exit codes


def test_missing_input_is_a_usage_error(capsys):
    code, _, err = run(["fitt", "--index", "1"], capsys)
    assert code == 2 and "input error" in err
    code, _, err = run(["fitt", "--in", fx("diag123.json")], capsys)
    assert code == 2 and "--index" in err
    code, _, err = run(
        ["euler", "stabilize", "--in", fx("stabilize.json")], capsys
    )
    assert code == 2 and "--stratum" in err


def test_malformed_json_reports_path(capsys):
    code, _, err = run(["fitt", "--in", "{oops", "--index", "0"], capsys)
    assert code == 2 and "invalid JSON" in err
    bad_ring = json.dumps({"ring": {"kind": "dvr", "p": 3}})
    code, _, err = run(["fitt", "--in", bad_ring, "--index", "0"], capsys)
    assert code == 2 and "$.ring.K" in err
    code, _, err = run(["fitt", "--in", fx("missing.json"), "--index", "0"], capsys)
    assert code == 2 and "cannot read" in err


def test_unknown_flags_and_commands_are_rejected(capsys):
    assert run(["fitt", "--wat"], capsys)[0] == 2
    assert run(["nope"], capsys)[0] == 2
    assert run([], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["fitt", "--in", fx("diag123.json"), "--index", "-1"], "--index"),
        (["fitt", "--in", fx("diag123.json"), "--index", "0", "--K", "0"], "--K"),
        (["lambda-module", "fitt-class", "--in", fx("module.json"), "--index", "-1"],
         "--index"),
        (["lambda-module", "slope", "--in", fx("module.json"), "--index", "-1"],
         "--index"),
        (["lambda-module", "specialize", "--in", fx("module.json"),
          "--stratum", "0", "--index", "0"], "--stratum"),
        (["euler", "stabilize", "--in", fx("stabilize.json"), "--stratum", "0"],
         "--stratum"),
        (["euler", "c-ideal", "--in", fx("c_elements.json"), "--index", "2",
          "--K", "0"], "--K"),
        (["euler", "c-ideal", "--in", fx("c_elements.json"), "--index", "2",
          "--m", "0"], "--m"),
        (["euler", "verify", "--k", "0", "--in",
          json.dumps({"data": {"epsilon": 0, "k": 3}, "shape": "0:"})], "--k"),
        (["euler", "reconstruct", "--in", fx("reconstruct.json"), "--index", "-2"],
         "--index"),
        (["euler", "reconstruct", "--in", fx("reconstruct.json"), "--index", "8"],
         "--index"),
        (["euler", "verify", "--shape", "0:+2", "--k", "3", "--seed", "1"],
         "--shape"),
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"input error at {flag}:" in err


@pytest.mark.parametrize("cmd", ["simulate", "verify"])
@pytest.mark.parametrize(
    "pool", ["1,2,3,5,7,11", "0,2,3,5,7,11", "2,2,3,5,7,11", "2,3:4,5,7,3:5:n",
             "02,+3,5,7,11,13", "2,3:04,5,7,11,13", "2,3: 4,5,7,11,13"]
)
def test_pool_ids_must_be_distinct_and_at_least_two(cmd, pool, capsys):
    # id 1 once merged index {1} with the empty product "1"; "02" and "+3"
    # were read as ids 2 and 3, so numbers must be canonical decimals
    argv = ["euler", cmd, "--pool", pool, "--shape", "1:1", "--k", "3",
            "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "input error at --pool:" in err


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"epsilon": 0, "k": 3, "loc_ord": {"2": {"x": 1}}}, "$.data.loc_ord.2.x"),
        ({"epsilon": 0, "k": 3, "ind_lambda": {"a.b": 1}}, "$.data.ind_lambda.a.b"),
        ({"epsilon": 0, "k": 3, "loc_unr": {"3.2": {"5": 1}}}, "$.data.loc_unr.3.2"),
        ({"epsilon": 0, "k": 3, "pool": [{"id": 2}, {"id": 2, "k": 5}]},
         "$.data.pool[1].id"),
    ],
)
def test_verify_refuses_noncanonical_system_data(doc, path, capsys):
    wrapped = json.dumps({"data": doc, "shape": "0:"})
    code, out, err = run(["euler", "verify", "--in", wrapped], capsys)
    assert code == 2 and out == ""
    assert f"input error at {path}:" in err
    assert "Traceback" not in err


def test_unit_ideal_has_a_banner(capsys):
    # an empty basis is the unit ideal; p comes from the document
    unit = {"p": 5, "basis": [], "generators": [[]]}
    code, out, err = run(
        ["ideal", "ord", "--in", json.dumps({**unit, "prime": "PI"})], capsys
    )
    assert code == 0 and out == '{"ord":0}\n'
    assert "# p=5" in err
    for sub in ("principal", "sqrt"):
        code, out, _ = run(["ideal", sub, "--in", json.dumps(unit)], capsys)
        assert code == 0 and out == '{"class":{}}\n'
    pair = json.dumps({"left": unit, "right": unit})
    assert run(["ideal", "prec", "--in", pair], capsys)[:2] == (0, '{"prec":true}\n')
    assert run(["ideal", "sim", "--in", pair], capsys)[:2] == (0, '{"sim":true}\n')


def test_domain_refusals_exit_one(capsys):
    odd = json.dumps({"p": 3, "basis": ["PI"], "generators": [[1]]})
    code, _, err = run(["ideal", "sqrt", "--in", odd], capsys)
    assert code == 1 and "NotASquare" in err
    unbalanced = json.dumps(
        {"rows": [{"j": 3, "exponents": [3]}, {"j": 5, "exponents": [4]}]}
    )
    code, out, _ = run(["lambda-module", "parity", "--in", unbalanced], capsys)
    assert code == 1
    assert out == '{"balanced":false}\n'


# -------------------------------------------------------------- selftest


def test_selftest_filter_runs_named_criteria(capsys):
    code, out, err = run(["selftest", "--filter", "diag"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["all_pass"] and len(rep["criteria"]) == 1
    assert rep["criteria"][0]["ident"] == "fitting-diag-spot"
    assert "[PASS]" in err
    code, _, err = run(["selftest", "--filter", "zzz"], capsys)
    assert code == 2 and "--filter" in err


# ------------------------------------------------------- malformed fields


def load(name):
    return json.loads((FIXTURES / name).read_text())


LAMBDA_1x1 = {"ring": {"kind": "lambda", "p": 3, "K": 4, "m": 3}, "rows": 1, "cols": 1}
QUADRATIC = {"dist": [3, 0, 1]}  # T^2+3 is a prime but starts no tower


MALFORMED = [
    (["lambda-module", "specialize", "--stratum", "3", "--index", "0"],
     {**load("module.json"), "prime": QUADRATIC}, "$.prime"),
    (["lambda-module", "slope", "--index", "0"],
     {**load("module.json"), "prime": QUADRATIC}, "$.prime"),
    (["euler", "stabilize", "--stratum", "1"],
     {**load("stabilize.json"), "prime": QUADRATIC}, "$.prime"),
    (["lambda-module", "parity"],
     {"rows": [{"j": "x", "exponents": [1]}, {"j": 3, "exponents": [1]}]},
     "$.rows[0].j"),
    (["lambda-module", "parity"],
     {"rows": [{"j": 3, "exponents": [1]}, {"j": 4.5, "exponents": [1]}]},
     "$.rows[1].j"),
    (["lambda-module", "parity"],
     {"rows": [{"j": 3, "exponents": "ab"}, {"j": 4, "exponents": "cd"}]},
     "$.rows[0].exponents"),
    (["lambda-module", "parity"],
     {"rows": [{"j": 3, "exponents": [1]}, {"j": 4, "exponents": [-1]}]},
     "$.rows[1].exponents[0]"),
    (["ideal", "ord"],
     {"p": 3, "basis": ["PI"], "generators": [[1]], "prime": {"dist": [3.9, 1]}},
     "$.prime.dist[0]"),
    (["fitt", "--index", "0"], {**LAMBDA_1x1, "entries": [[[3.5]]]},
     "$.entries[0][0][0]"),
    (["fitt", "--index", "0"], {**LAMBDA_1x1, "entries": [[["a"]]]},
     "$.entries[0][0][0]"),
    (["lambda-module", "slope", "--index", "0"], {**load("module.json"), "p": "x"},
     "$.p"),
    (["lambda-module", "specialize", "--stratum", "3", "--index", "0"],
     {**load("module.json"), "p": "x"}, "$.p"),
    (["euler", "c-ideal", "--index", "2"], {**load("c_elements.json"), "p": "x"},
     "$.p"),
    (["euler", "stabilize", "--stratum", "1"], {**load("stabilize.json"), "p": "x"},
     "$.p"),
    (["euler", "c-ideal", "--index", "2"], {**load("c_elements.json"), "K": 0},
     "$.K"),
    (["euler", "c-ideal", "--index", "2"], {**load("c_elements.json"), "m": 0},
     "$.m"),
    (["euler", "c-ideal", "--index", "2"], {**load("c_elements.json"), "e": True},
     "$.e"),
    (["euler", "reconstruct", "--index", "0"], {**load("reconstruct.json"), "e": 5},
     "$.e"),
    (["euler", "reconstruct"], {"e": 1, "delta_values": {"1": 4, "5": 1}},
     "$.delta_values"),
    (["euler", "verify"], {"data": {"epsilon": 0, "k": 3}, "shape": {"e": True}},
     "$.shape.e"),
    (["euler", "verify"], {"data": {"epsilon": 0, "k": "2"}, "shape": "0:"},
     "$.data.k"),
    (["euler", "verify"], {"data": {"epsilon": True, "k": 2}, "shape": "0:"},
     "$.data.epsilon"),
    (["ideal", "prec"],
     {**load("pair.json"), "right": {"basis": ["PI"], "generators": [["x"]]}},
     "$.right.generators[0][0]"),
    (["ideal", "ord"], {**load("ord.json"), "ideal": {"basis": "PI"}},
     "$.ideal.basis"),
    (["lambda-module", "fitt-class", "--index", "0"],
     {"module": {"components": [{"prime": "PI", "exponents": [1.0]}]}},
     "$.module.components[0].exponents[0]"),
    (["euler", "stabilize", "--stratum", "1"],
     {**load("stabilize.json"), "family": {"1": 3, "2": {"basis": 1}}},
     "$.family.2.basis"),
    (["fitt", "--index", "0"],
     {"ring": {"kind": "dvr", "p": 1, "K": 3}, "rows": 0, "cols": 0, "entries": []},
     "$.ring.p"),
    # stratum and family keys are canonical decimals, so no two name one integer
    (["euler", "reconstruct"],
     {"e": 1, "delta_values": {"1": 4, "3": 2, "5": 1, "7": 1, "03": 9}},
     "$.delta_values.03"),
    (["euler", "reconstruct"],
     {"e": 1, "delta_values": {"1": 4, " 3": 2, "5": 1, "7": 1}},
     "$.delta_values. 3"),
    (["euler", "reconstruct"],
     {"e": 1, "delta_values": {"+1": 4, "3": 2, "5": 1, "7": 1}},
     "$.delta_values.+1"),
    (["euler", "stabilize", "--stratum", "1"],
     {**load("stabilize.json"), "family": {"1": 3, "2": 2, "02": 5, "3": 2}},
     "$.family.02"),
    (["euler", "stabilize", "--stratum", "1"],
     {**load("stabilize.json"), "family": {"1": 3, "+2": 2, "3": 2}},
     "$.family.+2"),
    # element keys are index keys, read as EulerSystemData reads them
    (["euler", "c-ideal", "--index", "2"],
     {**load("c_elements.json"), "elements": {"1": [3, 3], "x.y": [9]}},
     "$.elements.x.y"),
    (["euler", "c-ideal", "--index", "2"],
     {**load("c_elements.json"), "elements": {"1": [3, 3], "3.2": [9]}},
     "$.elements.3.2"),
    (["euler", "c-ideal", "--index", "2"],
     {**load("c_elements.json"), "elements": {"1": [3, 3], "02": [0, 3]}},
     "$.elements.02"),
]


@pytest.mark.parametrize("argv,doc,path", MALFORMED)
def test_malformed_fields_name_their_path(argv, doc, path, capsys):
    code, out, err = run(argv + ["--in", json.dumps(doc)], capsys)
    assert code == 2 and out == ""
    assert f"input error at {path}:" in err


def test_malformed_input_prints_no_traceback():
    doc = {**load("module.json"), "prime": QUADRATIC}
    src = pathlib.Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "iwafitt.cli", "lambda-module", "slope",
         "--index", "0", "--in", json.dumps(doc)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "input error at $.prime:" in proc.stderr


# ------------------------------------------------------------------ fuzz


def _small_system():
    pool = [AdmissiblePrimeLabel(i, 6) for i in (2, 3, 5, 7, 11, 13)]
    data, _ = simulate_system(SelmerShape(0, (1,)), 3, pool, seed=11)
    return data.to_dict()


FUZZ_BASES = [
    (["fitt", "--index", "1"], load("diag123.json")),
    (["fitt", "--index", "1", "--K", "3"], {**LAMBDA_1x1, "entries": [[[3, 1]]]}),
    (["ideal", "ord"], load("ord.json")),
    (["ideal", "prec"], load("pair.json")),
    (["ideal", "sim"], load("pair.json")),
    (["ideal", "principal"], load("ord.json")),
    (["ideal", "sqrt"], load("sq.json")),
    (["lambda-module", "fitt-class", "--index", "1"], load("module.json")),
    (["lambda-module", "specialize", "--stratum", "3", "--index", "0"],
     load("module.json")),
    (["lambda-module", "slope", "--index", "0"], load("module.json")),
    (["lambda-module", "parity"], load("parity.json")),
    (["euler", "reconstruct", "--index", "0"], load("reconstruct.json")),
    (["euler", "c-ideal", "--index", "2"], load("c_elements.json")),
    (["euler", "c-ideal", "--index", "1", "--side", "kappa", "--K", "5"],
     load("c_elements.json")),
    (["euler", "stabilize", "--stratum", "1"], load("stabilize.json")),
    (["euler", "stabilize", "--stratum", "2"],
     {**load("stabilize.json"), "prime": {"dist": [0, 1]},
      "family": {"1": load("sq.json"), "2": load("ord.json")["ideal"], "3": 1}}),
    (["euler", "verify"], {"data": _small_system(), "shape": {"e": 0, "d": [1]}}),
] + [(argv, doc) for argv, doc, _ in MALFORMED]

# Replacement values stay small, so no mutant asks for a large computation.
ODD_VALUES = [None, True, False, 0, -1, 1, 2, 1.5, "x", "PI", "", [], [1], {},
              {"dist": [0, 1]}]
ODD_KEYS = ["", "x", "0", "-1", "1.5", " 2", "03", "1"]
INT_FLAGS = ["--index", "--stratum", "--K", "--m", "--k", "--seed"]


def _slots(node):
    """Every (container, key) position inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _perturb(value, draw):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.sampled_from([-2, -1, 1, 2]))
    if isinstance(value, str):
        return value + draw(st.sampled_from(["", "x", ".2", ",1", ":"]))
    if isinstance(value, list):
        return value[1:] if value and draw(st.booleans()) else value + value[:1]
    if isinstance(value, dict):
        return {**value, "x": 1}
    return draw(st.sampled_from(ODD_VALUES))


@st.composite
def mutants(draw):
    argv, doc = draw(st.sampled_from(FUZZ_BASES))
    argv = list(argv)
    holder = {"doc": copy.deepcopy(doc)}
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(list(_slots(holder))))
        op = draw(st.sampled_from(["drop", "retype", "perturb", "rekey"]))
        if op == "drop":
            del node[key]
        elif op == "retype":
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "perturb":
            node[key] = _perturb(node[key], draw)
        elif isinstance(node, dict) and node is not holder:
            node[draw(st.sampled_from(ODD_KEYS))] = node.pop(key)
    else:
        flag = draw(st.sampled_from(INT_FLAGS))
        if flag in argv and draw(st.booleans()):
            at = argv.index(flag)
            del argv[at:at + 2]
        else:
            text = draw(st.one_of(st.integers(-2, 6).map(str),
                                  st.sampled_from(["+1", " 1", "01", "-0", "x"])))
            argv += [flag, text]
    if "doc" in holder:
        argv += ["--in", json.dumps(holder["doc"])]
    return argv


@settings(max_examples=600, deadline=None)
@given(mutants())
def test_cli_contract_holds_for_mutated_inputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2)
    if out:
        assert out.count("\n") == 1
        canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        assert out == canonical + "\n"
