import argparse
import json
import os
import subprocess
import sys

import pytest

import bssyt
from bssyt import cli
from bssyt.reports import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "ssyt", "--shape", "2,1", "--k", "1")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "count", "bssyt", "--shape", "1", "--k", "3")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "count", "rpp", "--shape", "", "--k", "1")
    assert code == 0 and out == "1\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "rpp", "--shape", "2,1", "--k", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"command": "count", "kind": "rpp", "shape": "2,1", "k": 1, "count": 5}


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "ssyt", "--shape", "2", "--k", "3",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "command,kind,shape,k,count"
    assert row == "count,ssyt,2,3,10"


def test_count_malformed_shape(capsys):
    code, _, err = run(capsys, "count", "ssyt", "--shape", "1,2", "--k", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "ssyt", "--shape", "2,1", "--k", "0")
    assert code == 2


def test_verify_conjecture11(capsys):
    code, out, _ = run(capsys, "verify", "conjecture11", "--a", "1", "--b", "1",
                       "--d", "3", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert doc["lhs"] == 5 and doc["rhs"] == 5
    assert "elapsed_ms" in doc


def test_verify_unbalanced_rejected(capsys):
    code, _, err = run(capsys, "verify", "theorem21", "--shape", "3,1", "--k", "1")
    assert code == 2
    assert "not balanced" in err


def test_verify_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "roundtrip", "--shape", "4,4,2,1",
                       "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert doc["lhs"] == doc["rhs"]


def test_verify_togglesym(capsys):
    code, out, _ = run(capsys, "verify", "togglesym", "--shape", "2,1", "--k", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["claim"] == "toggle_symmetry"
    assert doc["equal"] is True
    assert set(doc["lhs"]) == {"1,1", "1,2", "2,1"}
    assert doc["lhs"] == doc["rhs"]


def test_verify_fk14(capsys):
    code, out, _ = run(capsys, "verify", "fk14", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["as_printed_equal"] is False
    assert doc["params"]["doubled_x_equal"] is True


def test_verify_fk36_default_points(capsys):
    code, out, _ = run(capsys, "verify", "fk36", "--shape", "2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["k_values"] == [1, 2, 3]
    for bad in ("0", "-3"):
        code, out, err = run(capsys, "verify", "fk36", "--shape", "2,1", "--k", bad)
        assert code == 2 and out == ""
        assert err == f"error: bound k must be a positive integer, got {bad}\n"


def test_verify_fk37(capsys):
    code, out, _ = run(capsys, "verify", "fk37", "--shape", "3,1", "--k", "1",
                       "--format", "text")
    assert code == 0
    assert out.startswith("PASS fk_ratio_counts_tableaux")


def test_verify_missing_parameter(capsys):
    code, _, err = run(capsys, "verify", "conjecture11", "--a", "1", "--b", "1",
                       "--d", "3")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "verify", "theorem31", "--k", "1")
    assert code == 2 and "--shape" in err


def test_unknown_claim_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem99", "--shape", "1", "--k", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_limit_refusal(capsys):
    code, _, err = run(capsys, "count", "ssyt", "--shape", "8,8,8,8", "--k", "4",
                       "--limit", "10")
    assert code == 3 and "refused" in err
    code, out, _ = run(capsys, "count", "ssyt", "--shape", "1", "--k", "1",
                       "--limit", "1000")
    assert code == 0 and out == "2\n"
    # a negative limit is bad input, not a limit that refuses every run
    code, out, err = run(capsys, "verify", "roundtrip", "--shape", "1", "--k", "1",
                         "--limit", "-1")
    assert code == 2 and out == ""
    assert err == "error: --limit must be a non-negative integer, got -1\n"
    # a zero limit admits only the empty shape
    code, out, _ = run(capsys, "count", "ssyt", "--shape", "", "--k", "1", "--limit", "0")
    assert code == 0 and out == "1\n"


def test_expected_jaggedness_outputs(capsys):
    code, out, _ = run(capsys, "expected-jaggedness", "--shape", "1", "--k", "1")
    assert code == 0
    assert out.startswith("1/1 ")
    code, out, _ = run(capsys, "expected-jaggedness", "--shape", "2,2,1,1", "--k", "2")
    assert code == 0
    assert out.startswith("8/3 ")
    assert "closed form" in out
    code, out, _ = run(capsys, "expected-jaggedness", "--shape", "3,1", "--k", "1")
    assert code == 0
    assert out.startswith("16/7 ")
    assert "unbalanced" in out
    code, out, _ = run(capsys, "expected-jaggedness", "--shape", "3,1", "--k", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["value"] == "16/7" and doc["balanced"] is False
    assert doc["closed_form"] is None


def test_json_output_deterministic_modulo_elapsed(capsys):
    def normalized():
        code, out, _ = run(capsys, "verify", "theorem31", "--shape", "2,1", "--k", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        return json.dumps(doc)

    assert normalized() == normalized()


def test_failing_identity_exits_one(capsys, monkeypatch):
    fake = VerificationReport("corner_sums_match_bssyt", {"shape": "1", "k": 1},
                              1, 2, False)
    monkeypatch.setattr("bssyt.jaggedness.verify_double_sums",
                        lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "doublesums", "--shape", "1", "--k", "1")
    assert code == 1
    assert out.startswith("FAIL")


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_command_parser_matches_subparser():
    choices = _subparsers(cli.build_parser()).choices
    assert set(choices) == {"count", "verify", "expected-jaggedness"}
    for name, sub in choices.items():
        lone = cli.command_parser(name)
        assert lone.format_help() == sub.format_help()
        assert lone.format_usage() == sub.format_usage()


def _full_parser_result(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _main_result(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (["verify", "roundtrip", "--shape", "1", "--k", "1", "--threads", "2"],
     "bssyt: error: unrecognized arguments: --threads 2\n"),
    (["count", "ssyt", "--k", "1"],
     "bssyt count: error: the following arguments are required: --shape\n"),
    (["verify", "theorem99", "--shape", "1", "--k", "1"],
     "bssyt verify: error: argument claim: invalid choice: 'theorem99'"),
    (["expected-jaggedness", "--shape", "1", "--k", "x"],
     "bssyt expected-jaggedness: error: argument --k: invalid int value: 'x'\n"),
])
def test_parse_errors_match_full_parser(capsys, argv, expected):
    code, out, err = _main_result(capsys, argv)
    assert (code, out, err) == _full_parser_result(capsys, argv)
    assert code == 2 and out == "" and expected in err


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["frobnicate"]])
def test_full_parser_lists_commands(capsys, argv):
    code, out, err = _main_result(capsys, argv)
    assert (code, out, err) == _full_parser_result(capsys, argv)
    assert "{count,verify,expected-jaggedness}" in out + err
    assert code == (0 if argv and argv[0].startswith("-") else 2)


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every ArgumentParser built while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_one_parser_per_command_call(capsys, parsers_built):
    code, _, _ = run(capsys, "verify", "theorem31", "--shape", "2,1", "--k", "1")
    assert code == 0
    assert parsers_built == ["bssyt verify"]


def test_main_reads_sys_argv(capsys, monkeypatch, parsers_built):
    monkeypatch.setattr(sys, "argv",
                        ["bssyt", "verify", "theorem31", "--shape", "2,1", "--k", "1"])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("PASS ")
    assert parsers_built == ["bssyt verify"]


def test_python_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bssyt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "bssyt", "verify", "theorem31", "--shape", "2,1", "--k", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS ")
