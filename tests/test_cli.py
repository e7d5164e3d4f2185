"""End-to-end CLI tests: golden outputs, exit codes, determinism."""

import json
import pathlib

import pytest

from iwafitt.cli import main

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
    ],
)
def test_out_of_range_flags_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"input error at {flag}:" in err


@pytest.mark.parametrize("cmd", ["simulate", "verify"])
@pytest.mark.parametrize(
    "pool", ["1,2,3,5,7,11", "0,2,3,5,7,11", "2,2,3,5,7,11", "2,3:4,5,7,3:5:n"]
)
def test_pool_ids_must_be_distinct_and_at_least_two(cmd, pool, capsys):
    # id 1 once merged index {1} with the empty product "1"
    argv = ["euler", cmd, "--pool", pool, "--shape", "1:1", "--k", "3",
            "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "input error at --pool:" in err


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"epsilon": 0, "k": 3, "loc_ord": {"2": {"x": 1}}}, "$.loc_ord.2.x"),
        ({"epsilon": 0, "k": 3, "ind_lambda": {"a.b": 1}}, "$.ind_lambda.a.b"),
        ({"epsilon": 0, "k": 3, "loc_unr": {"3.2": {"5": 1}}}, "$.loc_unr.3.2"),
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
