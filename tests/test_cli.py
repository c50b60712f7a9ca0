import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bssyt
from bssyt import bijections, cli, hecke, jaggedness
from bssyt.reports import VerificationReport
from bssyt.shapes import Partition


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
    assert out == (
        '{\n  "claim": "toggle_symmetry",\n'
        '  "params": {\n    "shape": "2,1",\n    "k": 2,\n    "cells": 3\n  },\n'
        '  "lhs": {\n    "1,1": 6,\n    "1,2": 11,\n    "2,1": 11\n  },\n'
        '  "rhs": {\n    "1,1": 6,\n    "1,2": 11,\n    "2,1": 11\n  },\n'
        '  "equal": true,\n'
        f'  "elapsed_ms": {doc["elapsed_ms"]}\n}}\n'
    )


def test_verify_fk14(capsys):
    code, out, _ = run(capsys, "verify", "fk14", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["as_printed_equal"] is False
    assert doc["params"]["doubled_x_equal"] is True
    code, out, _ = run(capsys, "verify", "fk14", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["method"] == "bruhat-pruned-dp"
    assert doc["params"]["peak_states"] == 6  # the largest Mahonian number of S4


def test_verify_fk36_default_points(capsys, parsers_built):
    code, out, _ = run(capsys, "verify", "fk36", "--shape", "2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert "k_values" not in doc["params"] and "numeric_equal" not in doc["params"]
    # without --k the size heuristic takes k = 1: (1 + 2) * 3 = 9
    code, out, _ = run(capsys, "verify", "fk36", "--shape", "2,1", "--limit", "9")
    assert code == 0 and out.startswith("PASS ")
    code, out, err = run(capsys, "verify", "fk36", "--shape", "2,1", "--limit", "8")
    assert (code, out) == (3, "")
    assert err == "refused: size heuristic (1 + 2) * 3 = 9 exceeds --limit 8\n"
    # a given --k is the heuristic's k: (2 + 2) * 3 = 12
    code, out, err = run(capsys, "verify", "fk36", "--shape", "2,1", "--k", "2",
                         "--limit", "9")
    assert (code, out) == (3, "")
    assert err == "refused: size heuristic (2 + 2) * 3 = 12 exceeds --limit 9\n"
    assert parsers_built == []
    for bad in ("0", "-3"):
        code, out, err = run(capsys, "verify", "fk36", "--shape", "2,1", "--k", bad)
        assert code == 2 and out == ""
        assert err == f"error: bound k must be a positive integer, got {bad}\n"
    # a value beginning with "-" is left to the full parser
    assert parsers_built == FULL_PARSER


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
    # a negative limit is bad input, not a limit that refuses every run,
    # for fk14 (which takes no size check) too
    for argv in (["roundtrip", "--shape", "1", "--k", "1"], ["fk14", "--n", "3"]):
        code, out, err = run(capsys, "verify", *argv, "--limit", "-1")
        assert code == 2 and out == ""
        assert err == "error: --limit must be a non-negative integer, got -1\n"
    # a zero limit admits only the empty shape
    code, out, _ = run(capsys, "count", "ssyt", "--shape", "", "--k", "1", "--limit", "0")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("argv", [
    ["count", "ssyt", "--shape", "1"],
    ["expected-jaggedness", "--shape", "1"],
    ["verify", "theorem31", "--shape", "1"],
    ["verify", "conjecture11", "--a", "1", "--b", "1", "--d", "2"],
    ["verify", "fk36", "--shape", "2,1"],
])
def test_bad_bound_rejected_before_limit(capsys, argv):
    code, out, err = run(capsys, *argv, "--k", "0", "--limit", "0")
    assert (code, out, err) == (2, "", "error: bound k must be a positive integer, got 0\n")


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


P = Partition

# one pinned command line per claim, with the library call that makes its report
_ONE_REPORT = [
    (["verify", "conjecture11", "--a", "1", "--b", "2", "--d", "3", "--k", "1"],
     lambda: jaggedness.verify_conjecture_rect(1, 2, 3, 1)),
    (["verify", "theorem31", "--shape", "3,2,1", "--k", "1"],
     lambda: jaggedness.verify_count_identity(P((3, 2, 1)), 1)),
    (["verify", "theorem21", "--shape", "2,2,2", "--k", "2"],
     lambda: jaggedness.verify_balanced_expectation(P((2, 2, 2)), 2)),
    (["verify", "theorem22", "--shape", "3,3,1", "--k", "1"],
     lambda: jaggedness.verify_weak_expectation_by_subshape(P((3, 3, 1)), 1)),
    (["verify", "doublesums", "--shape", "3,3", "--k", "2"],
     lambda: jaggedness.verify_double_sums(P((3, 3)), 2)),
    (["verify", "togglesym", "--shape", "4,2,1", "--k", "1"],
     lambda: jaggedness.check_toggle_symmetric(P((4, 2, 1)), 1)),
    (["verify", "roundtrip", "--shape", "3,3,3,2", "--k", "1"],
     lambda: bijections.verify_roundtrip(P((3, 3, 3, 2)), 1)),
    (["verify", "fk14", "--n", "4"],
     lambda: hecke.verify_fk_longest(4)),
    (["verify", "fk36", "--shape", "3,2,1", "--k", "1"],
     lambda: hecke.verify_fk_ratio(P((3, 2, 1)))),
    (["verify", "fk37", "--shape", "3,1,1", "--k", "2"],
     lambda: hecke.verify_fk_bssyt_relation(P((3, 1, 1)), 2)),
]


def test_one_report_per_claim_covers_every_claim():
    assert sorted(argv[1] for argv, _ in _ONE_REPORT) == sorted(cli.CLAIMS)
    pinned = list(_pinned_argv())
    for argv, _ in _ONE_REPORT:
        assert argv in pinned, argv


@pytest.mark.parametrize("argv, report", _ONE_REPORT, ids=[a[1] for a, _ in _ONE_REPORT])
def test_json_document_is_the_library_report(capsys, argv, report):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    doc.pop("elapsed_ms")
    assert code == 0
    assert doc == report().as_dict()


_ARGV = {argv[1]: argv for argv, _ in _ONE_REPORT}
_OPTIONAL = {("fk36", "--k")}  # fk36's --k only sizes --limit


def _flags(argv):
    return [token for token in argv if token.startswith("--")]


@pytest.mark.parametrize("claim, flag", [
    (claim, flag) for claim in cli.CLAIMS for flag in _flags(_ARGV[claim])
])
def test_dropping_a_flag_names_it(capsys, claim, flag):
    argv = _ARGV[claim]
    at = argv.index(flag)
    code, out, err = run(capsys, *argv[:at], *argv[at + 2:])
    if (claim, flag) in _OPTIONAL:
        assert code == 0 and out.startswith("PASS ")
    else:
        assert (code, out, err) == (2, "", f"error: claim {claim} requires {flag}\n")


# per claim flag, a valid value and one that is bad wherever the flag is read
_FLAG_VALUES = {"--shape": ("1", "1,2"), "--k": ("1", "0"), "--a": ("1", "0"),
                "--b": ("1", "0"), "--d": ("2", "0"), "--n": ("2", "99")}


def test_each_claim_row_names_the_flags_of_its_pinned_argv():
    assert set(_FLAG_VALUES) == {f"--{name}" for name in cli._VERIFY_FLAGS}
    for claim, argv in _ARGV.items():
        assert {f"--{name}" for name in cli.CLAIMS[claim][4]} == set(_flags(argv)), claim


@pytest.mark.parametrize("claim, flag", [
    (claim, flag) for claim in cli.CLAIMS for flag in _FLAG_VALUES
    if flag[2:] not in cli.CLAIMS[claim][4]
])
def test_a_flag_the_claim_does_not_read_is_refused(capsys, claim, flag):
    # before and after the claim's own flags, whatever the value
    for at in (2, len(_ARGV[claim])):
        for value in _FLAG_VALUES[flag]:
            argv = _ARGV[claim][:at] + [flag, value] + _ARGV[claim][at:]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: claim {claim} does not take {flag}\n")


@pytest.mark.parametrize("claim", list(cli.CLAIMS))
def test_format_and_limit_are_taken_by_every_claim(capsys, claim):
    code, out, _ = run(capsys, *_ARGV[claim], "--format", "json", "--limit", "1000000")
    assert code == 0 and json.loads(out)["equal"] is True


@pytest.mark.parametrize("claim", list(cli.CLAIMS))
def test_library_call_is_looked_up_when_it_runs(capsys, monkeypatch, claim):
    """Patching the module attribute reaches the CLI, as a tracer's wrapper must."""
    module, call = cli.CLAIMS[claim][:2]
    fake = VerificationReport("patched", {"k": 1}, 1, 2, False)
    monkeypatch.setattr(module, call, lambda *a, **kw: fake)
    code, out, _ = run(capsys, *_ARGV[claim])
    assert code == 1
    assert out == 'FAIL patched lhs=1 rhs=2 params={"k": 1}\n'


def test_verify_help_lists_every_claim_with_its_flags(capsys):
    code, out, _ = _main_result(capsys, ["verify", "--help"])
    assert code == 0
    lines = out[out.index("claims:\n"):].splitlines()[1:]
    assert [line.split()[0] for line in lines] == list(cli.CLAIMS)
    for claim, line in zip(cli.CLAIMS, lines):
        assert cli.CLAIMS[claim][3] in line
        for flag in _flags(_ARGV[claim]):
            assert flag in line, (claim, flag)


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


FULL_PARSER = ["bssyt", "bssyt count", "bssyt verify", "bssyt expected-jaggedness"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["frobnicate"]])
def test_full_parser_lists_commands(capsys, parsers_built, argv):
    code, out, err = _main_result(capsys, argv)
    assert parsers_built == FULL_PARSER
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


def test_well_formed_call_builds_no_parser(capsys, parsers_built):
    code, _, _ = run(capsys, "verify", "theorem31", "--shape", "2,1", "--k", "1")
    assert code == 0
    assert parsers_built == []


def test_main_reads_sys_argv(capsys, monkeypatch, parsers_built):
    monkeypatch.setattr(sys, "argv",
                        ["bssyt", "verify", "theorem31", "--shape", "2,1", "--k", "1"])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("PASS ")
    assert parsers_built == []


@pytest.mark.parametrize("argv, spelled_out", [
    (["verify", "theorem31", "--shape", "2,1", "--k=2"],
     ["verify", "theorem31", "--shape", "2,1", "--k", "2"]),
    (["verify", "theorem31", "--sha", "1", "--k", "1"],
     ["verify", "theorem31", "--shape", "1", "--k", "1"]),
])
def test_fallback_accepts_as_full_parser(capsys, parsers_built, argv, spelled_out):
    result = run(capsys, *argv)
    assert parsers_built == FULL_PARSER
    assert result == run(capsys, *spelled_out)
    assert result[0] == 0 and result[1].startswith("PASS ")


def _pinned_argv():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    for slots in pins.values():
        for slot in slots:
            for check in slot:
                yield check["argv"]


def _reader_agrees(argv):
    """The plain reader declines argv or gives argparse's own Namespace."""
    read = cli._read_args(argv)
    if read is None:
        return True
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return read == cli.build_parser().parse_args(argv)
        except SystemExit:
            return False


def test_reader_matches_argparse_on_pinned_argv():
    argvs = list(_pinned_argv())
    assert argvs
    for argv in argvs:
        for suffix in ([], ["--format", "json"], ["--format", "csv", "--limit", "100000"]):
            assert cli._read_args(argv + suffix) is not None, argv + suffix
            assert _reader_agrees(argv + suffix), argv + suffix


_WELL_FORMED = [
    ["count", "ssyt", "--shape", "2,1", "--k", "1"],
    ["verify", "theorem31", "--shape", "2,1", "--k", "1"],
    ["verify", "fk14", "--n", "3"],
    ["expected-jaggedness", "--shape", "1", "--k", "2"],
]
_FLAGS = ["--shape", "--k", "--a", "--b", "--d", "--n", "--format", "--limit",
          "--k=2", "--sha", "--", "-h"]
_WORDS = [*cli._COMMANDS, *cli.CLAIMS, *cli._COUNTERS, "1", "2,1", "0", "json", "csv",
          "text", "-1", "x", "", " 4", "+3", "--k"]


@st.composite
def _argv(draw):
    """A well-formed argv with flag-value pairs and lone words put in
    anywhere, the command's place included, and perhaps one token dropped."""
    argv = list(draw(st.sampled_from(_WELL_FORMED)))
    words = st.sampled_from(_FLAGS + _WORDS)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.one_of(
            st.tuples(st.sampled_from(_FLAGS), words), st.tuples(words),
        ))
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=500, deadline=None, database=None)
@given(st.one_of(_argv(), st.lists(st.sampled_from(_FLAGS + _WORDS), max_size=8)))
@example(["verify", "theorem31", "--shape", "-x", "--k", "1"])
@example(["verify", "theorem31", "--shape", "1", "--k", "-1"])
@example(["count", "--shape", "1", "--k", "1"])
def test_reader_matches_argparse_on_token_lists(argv):
    assert _reader_agrees(argv)


def test_python_m_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bssyt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "bssyt", "verify", "theorem31", "--shape", "2,1", "--k", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS ")
