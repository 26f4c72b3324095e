import contextlib
import copy
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aybe
from aybe.cli import (
    MAX_BRACKET_TERMS,
    MAX_CLOSED_FORM_N,
    MAX_DIMENSION,
    MAX_GENERATORS,
    MAX_TENSOR_NONZEROS,
    build_parser,
    main,
)
from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import RatMatrix, format_rational, matrix_to_json, parse_rational
from aybe.frobenius import make_lambda
from aybe.tensor import Tensor4
from oracles import rand_invertible


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(stdout):
    return json.loads(stdout)


def test_construct_and_verify_round_trip(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    code, out, _ = run(
        ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", str(tensor_path)],
        capsys,
    )
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "pass"
    assert report["inputs"]["mode"] == "DISTINCT"

    on_disk = Tensor4.loads(tensor_path.read_text())
    assert on_disk == r_closed_m1(make_lambda(2, 1, [2, 1]))

    code, out, _ = run(["verify", str(tensor_path)], capsys)
    assert code == 0
    assert read_report(out)["verdict"] == "pass"


def test_construct_degenerate_exit_3(tmp_path, capsys):
    code, out, _ = run(
        ["construct", "--n", "2", "--m", "1", "--lambda", "1,1", "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 3
    report = read_report(out)
    assert report["verdict"] == "degenerate"
    assert not (tmp_path / "r.json").exists()


def test_construct_degenerate_partial_rank(tmp_path, capsys):
    code, out, _ = run(
        ["construct", "--n", "4", "--m", "2", "--lambda", "0,1,0,2", "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 3
    report = read_report(out)
    assert report["verdict"] == "degenerate"
    assert report["details"]["gram_rank"] == 4
    assert not (tmp_path / "r.json").exists()


def test_construct_usage_errors(tmp_path, capsys):
    out_path = str(tmp_path / "r.json")
    # wrong lambda count
    code, _, err = run(["construct", "--n", "2", "--m", "1", "--lambda", "1", "--out", out_path], capsys)
    assert code == 2 and "error" in err
    # decimal lambda rejected
    code, _, _ = run(["construct", "--n", "2", "--m", "1", "--lambda", "1.5,1", "--out", out_path], capsys)
    assert code == 2
    # m not a proper divisor
    code, _, _ = run(["construct", "--n", "4", "--m", "3", "--lambda", "0,1,2,3", "--out", out_path], capsys)
    assert code == 2


def test_verify_failing_tensor(tmp_path, capsys):
    bad = Tensor4(2, {(0, 1, 0, 1): 1})
    path = tmp_path / "bad.json"
    path.write_text(bad.dumps())
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "fail"
    assert report["details"]["skew_violations"]


def test_verify_zero_tensor(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(Tensor4(2).dumps())
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 2
    path.write_text(json.dumps({"n": 2, "entries": [{"upper": [0, 1], "lower": [0, 1], "value": "0.5"}]}))
    code, _, _ = run(["verify", str(path)], capsys)
    assert code == 2
    code, _, _ = run(["verify", str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_verify_deeply_nested_file_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert out == "" and "aybe: error:" in err


def test_transform_deeply_nested_g_exit_2(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text("[" * 100000 + "]" * 100000)
    out_path = tmp_path / "o.json"
    code, out, err = run(["transform", str(tensor_path), "--g", str(g_path), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "" and "aybe: error:" in err
    assert not out_path.exists()


def huge_tensor_text():
    """A skew n=2 tensor failing the AYBE, with 2500-digit entries: its
    residual values have about 5000 digits, past Python's default limit on
    int/str conversion."""
    v = "3" + "1415926535" * 250
    w = "2" + "7182818284" * 250
    entries = [
        ([0, 1], [0, 1], v), ([1, 0], [1, 0], "-" + v),
        ([0, 0], [0, 1], w), ([0, 0], [1, 0], "-" + w),
    ]
    return json.dumps({"n": 2, "entries": [
        {"upper": up, "lower": lo, "value": val} for up, lo, val in entries
    ]})


def test_verify_huge_entries_exit_1(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(huge_tensor_text())
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    report = read_report(out)
    assert report["verdict"] == "fail"
    assert max(len(item["value"]) for item in report["details"]["residual_violations"]) > 4300


def test_transform_huge_entries_exit_1(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(huge_tensor_text())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    out_path = tmp_path / "o.json"
    code, out, _ = run(["transform", str(path), "--g", str(g_path), "--out", str(out_path)], capsys)
    assert code == 1
    assert read_report(out)["verdict"] == "fail"
    assert Tensor4.loads(out_path.read_text()).nnz


def test_rational_codec_round_trips_huge_values(tmp_path, capsys):
    text = "-" + "1234567890" * 10_000 + "1/1024"
    obj = {"n": 2, "entries": [{"upper": [0, 1], "lower": [0, 1], "value": text}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(
        ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1", "--compare", str(path)],
        capsys,
    )
    assert code == 1
    compared = {item["compared"] for item in read_report(out)["details"]["differences"]}
    assert text in compared
    v = parse_rational(text)
    assert format_rational(v) == text
    assert parse_rational(format_rational(v)) == v


def test_write_failure_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("aybe.cli.os.replace", fail)
    argv = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", str(tmp_path / "r.json")]
    for extra in ([], ["--report", str(tmp_path / "rep.json")]):
        code, out, err = run(argv + extra, capsys)
        assert code == 2 and "aybe: error: disk full" in err
        if extra:
            assert out == ""
        else:  # the stdout report is flushed before any rename is tried
            assert read_report(out)["verdict"] == "pass"
        assert sorted(tmp_path.iterdir()) == []


class BrokenStdout(io.StringIO):
    """A stdout whose `write` or `flush` fails, as on a full device."""

    def __init__(self, failing):
        super().__init__()
        setattr(self, failing, self.fail)

    def fail(self, *args):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stdout", [None, "write", "flush"])
def test_closed_or_failing_stdout_writes_nothing(tmp_path, capsys, monkeypatch, stdout):
    old = tmp_path / "old.json"
    old.write_text("old")
    monkeypatch.setattr(sys, "stdout", stdout and BrokenStdout(stdout))
    construct = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out"]
    for out_path in (tmp_path / "new.json", old):
        assert main(construct + [str(out_path)]) == 2
        assert "aybe: error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [old] and old.read_text() == "old"


def test_out_and_report_same_file_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("link.json").symlink_to("r.json")
    construct = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1"]
    same = [("r.json", "r.json"), ("r.json", "./r.json"), (str(tmp_path / "r.json"), "r.json"), ("r.json", "link.json")]
    for out_path, report_path in same:
        code, out, err = run(construct + ["--out", out_path, "--report", report_path], capsys)
        assert code == 2 and out == "" and "aybe: error:" in err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "link.json"]
    # a symlink loop is not the same file as the report, and is no crash
    Path("a").symlink_to("b")
    Path("b").symlink_to("a")
    code, _, _ = run(construct + ["--out", "a", "--report", "rep.json"], capsys)
    assert code == 0 and Tensor4.loads(Path("a").read_text()).nnz


def test_output_naming_an_input_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    Path("g.json").write_text(json.dumps([["1", "1"], ["0", "1"]]) + "\n")
    Path("link.json").symlink_to("r.json")
    closed = ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1"]
    cases = [
        ["verify", "r.json", "--report", "r.json"],
        ["verify", "r.json", "--report", str(tmp_path / "r.json")],
        ["bracket", "r.json", "--out", "r.json"],
        ["bracket", "r.json", "--out", "out.json", "--report", "./link.json"],
        ["transform", "r.json", "--g", "g.json", "--out", "t.json", "--report", "r.json"],
        ["transform", "r.json", "--g", "g.json", "--out", "g.json"],
        ["transform", "link.json", "--transpose-dual", "--out", "r.json"],
        closed + ["--compare", "r.json", "--out", "r.json"],
        closed + ["--compare", "r.json", "--out", "c.json", "--report", "./r.json"],
    ]
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    for argv in cases:
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "name the same file" in err, argv
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_negative_lambda_value(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    code, out, _ = run(
        ["construct", "--n", "3", "--m", "1", "--lambda", "-1,0,1", "--out", str(tensor_path)],
        capsys,
    )
    assert code == 0
    assert read_report(out)["inputs"]["lambda"] == ["-1", "0", "1"]
    assert Tensor4.loads(tensor_path.read_text()) == r_closed_m1(make_lambda(3, 1, [-1, 0, 1]))
    code, _, _ = run(
        ["closed-form", "--variant", "m1", "--n", "3", "--lambda", "-1,0,1", "--compare", str(tensor_path)],
        capsys,
    )
    assert code == 0
    code, _, _ = run(["cocycle", "--n", "3", "--m", "1", "--lambda", "-1/2,0,1"], capsys)
    assert code == 0


def test_closed_form_compare_matches_construct(tmp_path, capsys):
    built = tmp_path / "gram.json"
    code, _, _ = run(
        ["construct", "--n", "3", "--m", "1", "--lambda", "0,1,2", "--out", str(built)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["closed-form", "--variant", "m1", "--n", "3", "--lambda", "0,1,2", "--compare", str(built)],
        capsys,
    )
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "pass"
    assert report["details"]["differences"] == []


def test_closed_form_distinct_compare_matches_construct_12_3(tmp_path, capsys):
    built = tmp_path / "gram.json"
    lam = "--lambda=" + ",".join(format_rational(Fraction(k * k + 1, k + 2)) for k in range(12))
    code, _, _ = run(["construct", "--n", "12", "--m", "3", lam, "--out", str(built)], capsys)
    assert code == 0
    code, out, _ = run(
        ["closed-form", "--variant", "distinct", "--n", "12", "--m", "3", lam, "--compare", str(built)],
        capsys,
    )
    assert code == 0
    assert read_report(out)["details"]["differences"] == []


def test_closed_form_compare_checks_inputs_first(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("closed-form work started before --compare was checked")

    monkeypatch.setattr("aybe.cli.r_closed", no_work)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    other_n = tmp_path / "r3.json"
    other_n.write_text(r_closed_m1(make_lambda(3, 1, [0, 1, 2])).dumps())
    out_path = tmp_path / "r.json"
    for compare in (bad, other_n, tmp_path / "missing.json"):
        code, out, err = run(
            ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1",
             "--compare", str(compare), "--out", str(out_path)],
            capsys,
        )
        assert code == 2 and out == "" and "aybe: error:" in err
        assert not out_path.exists()


def test_closed_form_block_verifies(tmp_path, capsys):
    out_path = tmp_path / "block.json"
    code, _, _ = run(
        ["closed-form", "--variant", "block", "--n", "4", "--m", "2", "--lambda", "1,1,0,0", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    code, _, _ = run(["verify", str(out_path)], capsys)
    assert code == 0


def test_closed_form_compare_detects_difference(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(Tensor4(2).dumps())
    code, out, _ = run(
        ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1", "--compare", str(other)],
        capsys,
    )
    assert code == 1
    assert read_report(out)["details"]["differences"]


def test_closed_form_precondition_exit_2(capsys):
    code, _, _ = run(["closed-form", "--variant", "m1", "--n", "2", "--lambda", "1,1"], capsys)
    assert code == 2
    code, _, _ = run(
        ["closed-form", "--variant", "distinct", "--n", "4", "--m", "2", "--lambda", "1,1,0,0"],
        capsys,
    )
    assert code == 2


def test_cocycle_command(capsys):
    code, out, _ = run(["cocycle", "--n", "4", "--m", "2", "--lambda", "1,1,0,0"], capsys)
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "pass"
    assert report["details"]["dimension"] == 8
    # repeated lambda still satisfies the identity
    code, _, _ = run(["cocycle", "--n", "4", "--m", "2", "--lambda", "1,1,1,1"], capsys)
    assert code == 0
    code, out, _ = run(["cocycle", "--n", "12", "--m", "3", "--lambda", ",".join(map(str, range(12)))], capsys)
    assert code == 0
    report = read_report(out)
    assert report["verdict"] == "pass"
    assert report["details"]["dimension"] == 108


def test_bracket_with_jacobi(tmp_path, capsys):
    tensor_path = tmp_path / "r3.json"
    r_path_text = r_closed_m1(make_lambda(3, 1, [0, 1, 2])).dumps()
    tensor_path.write_text(r_path_text)
    bracket_path = tmp_path / "b.json"
    code, out, _ = run(
        ["bracket", str(tensor_path), "--m-size", "1", "--check-jacobi", "--out", str(bracket_path)],
        capsys,
    )
    assert code == 0
    report = read_report(out)
    assert report["details"]["jacobi_violations"] == []
    data = json.loads(bracket_path.read_text())
    assert data["generators"] == 3
    assert data["names"] == ["x_0", "x_1", "x_2"]


def test_bracket_zero_tensor(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(Tensor4(2).dumps())
    code, out, _ = run(["bracket", str(path)], capsys)
    assert code == 0
    assert read_report(out)["details"]["nonzero_pairs"] == 0


def test_bracket_matrix_case(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1}).dumps())
    code, out, _ = run(["bracket", str(path), "--m-size", "2", "--check-jacobi"], capsys)
    assert code == 0
    assert read_report(out)["details"]["jacobi_violations"] == []


def test_bracket_non_skew_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    code, out, _ = run(["bracket", str(path)], capsys)
    assert code == 1
    assert read_report(out)["details"]["skew_violations"]


def test_bracket_compare_closed_2m(tmp_path, capsys):
    tensor_path = tmp_path / "r42.json"
    code, _, _ = run(
        ["construct", "--n", "4", "--m", "2", "--lambda", "0,1,2,3", "--out", str(tensor_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        [
            "bracket",
            str(tensor_path),
            "--check-jacobi",
            "--compare-closed-2m",
            "--lambda",
            "0,1,2,3",
        ],
        capsys,
    )
    assert code == 0  # comparison is report-only; Jacobi decides the verdict
    report = read_report(out)
    comparison = report["details"]["closed_2m_comparison"]
    assert comparison["overall"] == "mismatch"
    statuses = {tuple(item["pair"]): item["status"] for item in comparison["pairs"]}
    assert statuses[(0, 2)] == "undefined"
    assert statuses[(1, 3)] == "undefined"
    assert report["details"]["jacobi_violations"] == []


def test_bracket_compare_closed_2m_checks_inputs_first(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("bracket work started before the inputs were checked")

    monkeypatch.setattr("aybe.cli.scalar_bracket_from_r", no_work)
    monkeypatch.setattr("aybe.cli.jacobi_residual", no_work)
    tensor_path = tmp_path / "r3.json"
    tensor_path.write_text(r_closed_m1(make_lambda(3, 1, [0, 1, 2])).dumps())
    even_path = tmp_path / "r4.json"
    even_path.write_text(r_closed_m1(make_lambda(4, 1, [0, 1, 2, 3])).dumps())
    bracket_path = tmp_path / "b.json"
    cases = [
        [str(tensor_path), "--lambda", "0,1,2"],  # odd n
        [str(even_path)],  # no --lambda
        [str(even_path), "--lambda", "0,1,x,3"],  # unparseable --lambda
        [str(even_path), "--lambda", "0,1,2,3", "--m-size", "2"],  # not scalar
        [str(even_path), "--lambda", "0,0,2,3"],  # repeated lambda value
    ]
    for extra in cases:
        code, out, err = run(
            ["bracket", *extra, "--check-jacobi", "--compare-closed-2m", "--out", str(bracket_path)],
            capsys,
        )
        assert code == 2 and out == "" and "aybe: error:" in err
        assert not bracket_path.exists()


def test_unwritable_output_path_writes_nothing(tmp_path, capsys):
    tensor_path = tmp_path / "c.json"
    construct = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1"]
    cases = [
        construct + ["--out", str(tensor_path), "--report", str(tmp_path / "missing" / "r.json")],
        construct + ["--out", str(tensor_path), "--report", str(tmp_path)],
        construct + ["--out", str(tmp_path / "missing" / "c.json"), "--report", str(tmp_path / "r.json")],
        # an unreadable --compare file fails before --out is written
        ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1",
         "--out", str(tensor_path), "--compare", str(tmp_path / "missing.json")],
    ]
    for argv in cases:
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "aybe: error:" in err
        assert sorted(tmp_path.iterdir()) == []


def test_transform_identity_byte_identical(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    out_path = tmp_path / "out.json"
    code, _, _ = run(["transform", str(tensor_path), "--g", str(g_path), "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == tensor_path.read_bytes()


def test_transform_transpose_dual_involution(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(make_lambda(3, 1, [0, 1, 2])).dumps())
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    code, _, _ = run(["transform", str(tensor_path), "--transpose-dual", "--out", str(once)], capsys)
    assert code == 0
    code, _, _ = run(["transform", str(once), "--transpose-dual", "--out", str(twice)], capsys)
    assert code == 0
    assert twice.read_bytes() == tensor_path.read_bytes()


def test_transform_random_g_verifies(tmp_path, capsys):
    rng = random.Random(42)
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(matrix_to_json(rand_invertible(rng, 2))))
    out_path = tmp_path / "out.json"
    code, out, _ = run(["transform", str(tensor_path), "--g", str(g_path), "--out", str(out_path)], capsys)
    assert code == 0
    assert read_report(out)["verdict"] == "pass"
    code, _, _ = run(["verify", str(out_path)], capsys)
    assert code == 0


def test_transform_singular_g_exit_3(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([["1", "1"], ["1", "1"]]))
    code, out, _ = run(
        ["transform", str(tensor_path), "--g", str(g_path), "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 3
    assert read_report(out)["verdict"] == "degenerate"


def test_reports_deterministic(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    report_path = tmp_path / "report.json"

    def once():
        code, _, _ = run(
            [
                "construct", "--n", "4", "--m", "2", "--lambda", "0,1,2,3",
                "--out", str(tensor_path), "--report", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        report.pop("timing_ms")
        return tensor_path.read_bytes(), json.dumps(report, sort_keys=True)

    t1, rep1 = once()
    t2, rep2 = once()
    assert t1 == t2
    assert rep1 == rep2


# (argv, exit code, report without timing_ms), recorded before the report,
# the writes and the exit code moved from the commands into `main`
PINNED_REPORTS = [
    (["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", "r.json"], 0,
     '{"command": "construct", "inputs": {"n": 2, "m": 1, "lambda": ["2", "1"], "mode": "DISTINCT", '
     '"out": "r.json"}, "verdict": "pass", "details": {"dimension": 2, "entries": 8}}'),
    (["verify", "bad.json"], 1,
     '{"command": "verify", "inputs": {"tensor": "bad.json", "n": 2}, "verdict": "fail", "details": '
     '{"skew_violations": [{"indices": [0, 1, 0, 1], "value": "1"}, {"indices": [1, 0, 1, 0], '
     '"value": "1"}], "residual_violations": []}}'),
    (["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1", "--compare", "zero.json"], 1,
     '{"command": "closed-form", "inputs": {"variant": "m1", "n": 2, "m": 1, "lambda": ["2", "1"], '
     '"out": null, "compare": "zero.json"}, "verdict": "fail", "details": {"entries": 8, "differences": '
     '[{"indices": [0, 0, 0, 1], "closed_form": "-1", "compared": "0"}, {"indices": [0, 0, 1, 0], '
     '"closed_form": "1", "compared": "0"}, {"indices": [0, 1, 0, 1], "closed_form": "1", "compared": '
     '"0"}, {"indices": [0, 1, 1, 0], "closed_form": "-1", "compared": "0"}, {"indices": [1, 0, 0, 1], '
     '"closed_form": "1", "compared": "0"}, {"indices": [1, 0, 1, 0], "closed_form": "-1", "compared": '
     '"0"}, {"indices": [1, 1, 0, 1], "closed_form": "-1", "compared": "0"}, {"indices": [1, 1, 1, 0], '
     '"closed_form": "1", "compared": "0"}]}}'),
    (["cocycle", "--n", "2", "--m", "1", "--lambda", "2,1"], 0,
     '{"command": "cocycle", "inputs": {"n": 2, "m": 1, "lambda": ["2", "1"]}, "verdict": "pass", '
     '"details": {"dimension": 2, "violations": []}}'),
    (["bracket", "r.json", "--check-jacobi", "--compare-closed-2m", "--lambda", "2,1", "--out", "b.json"], 0,
     '{"command": "bracket", "inputs": {"tensor": "r.json", "m_size": 1, "check_jacobi": true, "out": '
     '"b.json", "lambda": ["2", "1"]}, "verdict": "pass", "details": {"generators": 2, "nonzero_pairs": 1, '
     '"jacobi_violations": [], "closed_2m_comparison": {"overall": "undefined", "pairs": [{"pair": [0, 1], '
     '"derived": [{"exps": [0, 2], "coeff": "-1"}, {"exps": [1, 1], "coeff": "2"}, {"exps": [2, 0], '
     '"coeff": "-1"}], "status": "undefined", "closed": null}]}}}'),
    (["transform", "r.json", "--g", "g.json", "--out", "t.json"], 0,
     '{"command": "transform", "inputs": {"tensor": "r.json", "g": "g.json", "transpose_dual": false, '
     '"out": "t.json"}, "verdict": "pass", "details": {"entries": 2, "skew_violations": [], '
     '"residual_violations": []}}'),
    (["construct", "--n", "2", "--m", "1", "--lambda", "1,1", "--out", "d.json"], 3,
     '{"command": "construct", "inputs": {"n": 2, "m": 1, "lambda": ["1", "1"], "mode": "OTHER", '
     '"out": "d.json"}, "verdict": "degenerate", "details": {"gram_rank": 0}}'),
    (["bracket", "bad.json", "--compare-closed-2m", "--lambda", "2,1"], 1,
     '{"command": "bracket", "inputs": {"tensor": "bad.json", "m_size": 1, "check_jacobi": false, '
     '"out": null}, "verdict": "fail", "details": {"skew_violations": [{"indices": [0, 1, 0, 1], '
     '"value": "1"}, {"indices": [1, 0, 1, 0], "value": "1"}]}}'),
    (["transform", "r.json", "--g", "s.json", "--out", "t.json"], 3,
     '{"command": "transform", "inputs": {"tensor": "r.json", "g": "s.json", "transpose_dual": false, '
     '"out": "t.json"}, "verdict": "degenerate", "details": {"g_rank": 1}}'),
]


def test_reports_pinned(tmp_path, capsys, monkeypatch):
    """Report text, key order included, with only `timing_ms` left out."""
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    Path("zero.json").write_text(Tensor4(2).dumps())
    Path("g.json").write_text(json.dumps([["1", "1"], ["0", "1"]]))
    Path("s.json").write_text(json.dumps([["1", "1"], ["1", "1"]]))
    for argv, expected_code, expected in PINNED_REPORTS:
        code, out, _ = run(argv, capsys)
        assert code == expected_code
        head, timing = out.rsplit(',\n  "timing_ms": ', 1)
        assert re.fullmatch(r"[0-9.]+\n}\n", timing)
        assert head + "\n}\n" == json.dumps(json.loads(expected), indent=2) + "\n"


def test_m_required_except_closed_form(tmp_path, capsys):
    for argv in (["construct", "--out", str(tmp_path / "r.json")], ["cocycle"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "2", "--lambda", "2,1"])
        assert exc.value.code == 2 and "--m" in capsys.readouterr().err
    code, out, _ = run(["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1"], capsys)
    assert code == 0 and read_report(out)["inputs"]["m"] == 1


def test_report_written_to_file(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(Tensor4(2).dumps())
    report_path = tmp_path / "rep.json"
    code, out, _ = run(["verify", str(tensor_path), "--report", str(report_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(report_path.read_text())["verdict"] == "pass"


def _without_timing(text: str) -> dict:
    report = json.loads(text)
    report.pop("timing_ms")
    return report


def test_no_state_carried_between_calls(tmp_path, capsys, monkeypatch):
    """Nothing parsed in one call reaches the next in the same process."""
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text(r_closed_m1(make_lambda(2, 1, [2, 1])).dumps())
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, out, _ = run(["bracket", "r.json", "--compare-closed-2m", "--lambda=-1,3", "--out", "b.json"], capsys)
    assert code == 0 and read_report(out)["inputs"]["lambda"] == ["-1", "3"]
    code, out, _ = run(["closed-form", "--variant", "m1", "--n", "3", "--lambda", "0,1,5/2"], capsys)
    inputs = read_report(out)["inputs"]
    assert code == 0 and inputs["out"] is None and inputs["compare"] is None
    assert inputs["lambda"] == ["0", "1", "5/2"]

    Path("bad.json").write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    Path("zero.json").write_text(Tensor4(2).dumps())
    Path("g.json").write_text(json.dumps([["1", "1"], ["0", "1"]]))
    Path("s.json").write_text(json.dumps([["1", "1"], ["1", "1"]]))
    replays = [[run(argv, capsys)[:2] for argv, _, _ in PINNED_REPORTS] for _ in range(2)]
    first, second = ([(code, _without_timing(out)) for code, out in replay] for replay in replays)
    assert first == second
    assert [code for code, _ in first] == [code for _, code, _ in PINNED_REPORTS]


def _exit(fn, argv):
    """The exit code, stdout and stderr of a call that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            fn(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_command_parser_matches_full_parser(monkeypatch):
    """`main` builds options for the named command only; it parses each
    command line as the parser of every command does, and fails on the same
    lines with the same exit code and text."""
    monkeypatch.setenv("COLUMNS", "100")
    for argv in [argv for argv, _, _ in PINNED_REPORTS] + [["bracket", "r.json", "--chec"]]:
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)
    for argv in (
        [], ["-h"], ["bogus"], ["-x", "verify", "r.json"], ["--", "verify", "r.json"],
        ["verify"], ["verify", "r.json", "extra"], ["verify", "-h"], ["construct", "--n", "x"],
        ["closed-form", "--variant", "zz"], ["cocycle", "--n", "2", "--lambda", "2,1"],
        ["transform", "r.json", "--g", "g.json", "--transpose-dual", "--out", "t.json"],
    ):
        assert _exit(main, argv) == _exit(build_parser().parse_args, argv), argv


def test_cold_process_matches_in_process(tmp_path, capsys, monkeypatch):
    """`python -m aybe.cli` builds its parser from scratch; its help text and
    report match the in-process ones."""
    monkeypatch.setenv("COLUMNS", "100")
    path = tmp_path / "r.json"
    path.write_text(r_closed_m1(make_lambda(3, 1, [0, 1, 2])).dumps())
    env = {**os.environ, "PYTHONPATH": str(Path(aybe.__file__).parent.parent)}

    def cold(*argv):
        proc = subprocess.run([sys.executable, "-m", "aybe.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert cold("--help") == capsys.readouterr().out
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0
    assert _without_timing(cold("verify", str(path))) == _without_timing(out)


class _Started(Exception):
    """Raised in place of the first step of a command's work."""


@pytest.fixture
def no_work(monkeypatch):
    def start(*args, **kwargs):
        raise _Started
    for name in ("build_basis", "r_closed", "check_skew", "aybe_report"):
        monkeypatch.setattr(f"aybe.cli.{name}", start)


def _sized_argv(tmp_path, cmd, n, m=1, m_size=1):
    if cmd in ("bracket", "verify"):
        # m > 1: the first m entries of an n^4 tensor, else none
        indices = itertools.product(range(n), repeat=4)
        items = dict.fromkeys(itertools.islice(indices, m if m > 1 else 0), 1)
        path = tmp_path / f"r{n}.json"
        path.write_text(Tensor4(n, items).dumps())
        if cmd == "verify":
            return ["verify", str(path), "--report", str(tmp_path / "r.json")]
        return ["bracket", str(path), "--m-size", str(m_size), "--check-jacobi"]
    if cmd == "transform":
        # one nonzero, transformed by I + J (dense, with a dense inverse),
        # has n^4 nonzeros
        tensor, g = tmp_path / f"r{n}.json", tmp_path / "g.json"
        tensor.write_text(Tensor4(n, {(0, 0, 0, 0): 1}).dumps())
        g.write_text(json.dumps([[2 if i == j else 1 for j in range(n)] for i in range(n)]))
        return ["transform", str(tensor), "--g", str(g), "--out", str(tmp_path / "r.json")]
    argv = [cmd, "--n", str(n), "--m", str(m), "--lambda", ",".join(map(str, range(n)))]
    if cmd == "closed-form":
        argv[1:1] = ["--variant", "distinct"]
    if cmd == "construct":
        argv += ["--out", str(tmp_path / "r.json")]
    return argv


# (command, n, m, m_size): just past a limit, and far past it; for bracket
# and verify, m is the number of tensor nonzeros
PAST_LIMITS = [
    ("construct", 29, 1, 1),  # dimension 812
    ("construct", 40, 4, 1),  # 1440
    ("cocycle", 40, 4, 1),
    ("cocycle", 200, 100, 1),  # 20000
    ("closed-form", 41, 1, 1),
    ("closed-form", 1000, 500, 1),
    ("bracket", 101, 1, 1),
    ("bracket", 26, 1, 2),  # 104 generators
    ("bracket", 4, 1, 6),  # 144
    ("bracket", 3000, 1, 20),
    ("bracket", 11, 10_001, 1),  # 10001 nonzeros
    ("bracket", 10, 626, 2),  # 626 * 2^4 = 10016
    ("bracket", 3, 2, 9),  # 2 * 9^4 = 13122
    ("verify", 11, 10_001, 1),
    ("verify", 24, 42_528, 1),  # as many nonzeros as the distinct (24,2) tensor
    ("transform", 11, 1, 1),  # 11^4 = 14641 nonzeros out
]
# the largest shapes each limit accepts, and the sizes the docs cite
WITHIN_LIMITS = [
    ("construct", 40, 20, 1),  # dimension 800
    ("construct", 24, 12, 1),
    ("construct", 28, 2, 1),  # 728
    ("cocycle", 40, 20, 1),
    ("closed-form", 40, 2, 1),
    ("bracket", 100, 1, 1),
    ("bracket", 25, 1, 2),  # 100 generators
    ("bracket", 10, 10_000, 1),  # every entry of n = 10
    ("bracket", 10, 625, 2),  # 625 * 2^4 = 10000
    ("verify", 10, 10_000, 1),
    ("verify", 16, 8_640, 1),  # as many nonzeros as the distinct (16,2) tensor
    ("transform", 10, 1, 1),  # 10^4 = 10000 nonzeros out
]


@pytest.mark.parametrize("cmd,n,m,m_size", PAST_LIMITS)
def test_size_limit_refused_before_work(tmp_path, capsys, no_work, cmd, n, m, m_size):
    if cmd == "bracket":
        limit = MAX_GENERATORS if n * m_size**2 > MAX_GENERATORS else MAX_BRACKET_TERMS
    elif cmd in ("verify", "transform"):
        limit = MAX_TENSOR_NONZEROS
    else:
        limit = MAX_CLOSED_FORM_N if cmd == "closed-form" else MAX_DIMENSION
    code, out, err = run(_sized_argv(tmp_path, cmd, n, m, m_size), capsys)
    assert code == 2 and out == ""
    assert f"exceeds the limit of {limit}" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cmd,n,m,m_size", WITHIN_LIMITS)
def test_size_limit_accepts_up_to_limit(tmp_path, capsys, no_work, cmd, n, m, m_size):
    with pytest.raises(_Started):
        main(_sized_argv(tmp_path, cmd, n, m, m_size))


def test_bracket_limit_refuses_dense_tensor(tmp_path, capsys, no_work):
    """The distinct (24,2) tensor has 24 generators but 42,528 nonzeros; its
    Jacobi check would run for minutes."""
    path = tmp_path / "r.json"
    path.write_text(r_closed_distinct(make_lambda(24, 2, range(24))).dumps())
    code, out, err = run(["bracket", str(path), "--check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert f"tensor nonzeros * m_size^4 = 42528 exceeds the limit of {MAX_BRACKET_TERMS}" in err


# --- exit-code contract over generated command lines ----------------------

INT_JUNK = ["", "x", "1.5", "2/1", "--"]  # none of these parses as an int
TEXT_JUNK = INT_JUNK + ["1,,2", "1/0", "0.5,1", "-", "a,b", "-1,x"]
VALID_TENSORS = [
    Tensor4(2),
    r_closed_m1(make_lambda(2, 1, [2, 1])),
    r_closed_m1(make_lambda(3, 1, [0, 1, 2])),
    r_closed_m1(make_lambda(4, 1, [0, 1, 2, 3])),
    r_closed_block(make_lambda(4, 2, [1, 1, 0, 0])),
    Tensor4(3, {(0, 1, 1, 2): 1, (1, 0, 2, 1): -1}),  # skew, fails the AYBE
    Tensor4(2, {(0, 1, 0, 1): 1}),  # not skew
]
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "entries", "upper", "lower", "value"]), kids, max_size=3),
    max_leaves=10,
)
RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(str)
# 2000-5000 digits: products of two such values pass the 4300-digit default
# limit on int/str conversion; built as text so drawing needs no conversion
HUGE_RATIONAL = st.builds(
    lambda sign, lead, tens, den: f"{sign}{lead}{'0123456789' * tens}{den}",
    st.sampled_from(["", "-"]), st.integers(1, 9), st.integers(200, 500), st.sampled_from(["", "/3"]),
)
JUNK_FILE = st.sampled_from(["", "{", "[]", "null", "[" * 60]) | JSON_JUNK.map(json.dumps)
OUT_PATHS = [("tmp", "missing", "out.json"), ("tmp",)]
REPORT_PATHS = [("tmp", "missing", "report.json"), ("tmp",)]


@st.composite
def tensor_file(draw):
    """(text, declared n) of a valid, perturbed or junk tensor file; n <= 4."""
    kind = draw(st.sampled_from(["valid", "valid", "perturbed", "junk"]))
    if kind == "junk":
        text = draw(JUNK_FILE)
        try:
            obj = json.loads(text)
        except ValueError:
            obj = None
    else:
        obj = copy.deepcopy(draw(st.sampled_from(VALID_TENSORS)).to_json_obj())
        if kind == "perturbed" and obj["entries"]:
            entry = draw(st.sampled_from(obj["entries"]))
            field = draw(st.sampled_from(["value", "upper", "lower", "n", "dup"]))
            if field == "value":
                entry["value"] = draw(RATIONAL | HUGE_RATIONAL | st.sampled_from(["1.5", 3, None, ""]))
            elif field in ("upper", "lower"):
                entry[field] = draw(st.lists(st.integers(-1, 4), max_size=3) | JSON_JUNK)
            elif field == "n":
                obj["n"] = draw(st.integers(-1, 4) | st.sampled_from([None, "2", True, 2.5]))
            else:
                obj["entries"].append(dict(entry))
        text = json.dumps(obj)
    n = obj.get("n") if isinstance(obj, dict) else None
    return text, n if isinstance(n, int) else 0


@st.composite
def matrix_file(draw):
    k = draw(st.integers(1, 4))
    rows = st.lists(st.lists(RATIONAL, min_size=k, max_size=k), min_size=k, max_size=k)
    singular = matrix_to_json(RatMatrix([[1, 1], [1, 1]]))
    return draw(rows.map(json.dumps) | st.just(json.dumps(singular)) | JUNK_FILE)


@st.composite
def command_line(draw):
    """argv for one subcommand, with the files to write first. A path is a
    tuple of parts under the temporary directory ("tmp"). A value is junk
    now and then. Sizes stay small: n <= 4, --m-size <= 3 and at most 18
    bracket generators, so no draw is a large job."""
    cmd = draw(st.sampled_from(["construct", "verify", "closed-form", "cocycle", "bracket", "transform"]))
    argv: list = [cmd]
    files: dict = {}

    def value(valid, junk):
        return draw(junk if draw(st.integers(0, 9)) == 3 else valid)

    def opt(flag, valid, junk, required=False):
        if required or draw(st.booleans()):
            argv.extend([flag, value(valid, junk)])

    n = 0
    if cmd in ("verify", "bracket", "transform"):
        files["t.json"], n = draw(tensor_file())
        argv.append(("tmp", "t.json"))
    if cmd in ("construct", "closed-form", "cocycle"):
        n = draw(st.integers(2, 4))
        divisors = [str(m) for m in range(1, n) if n % m == 0]
        if cmd == "closed-form":
            opt("--variant", st.sampled_from(["m1", "block", "distinct"]), st.just("other"), required=True)
        opt("--n", st.just(str(n)), st.sampled_from(["-1", "0", "1", *INT_JUNK]), required=True)
        opt("--m", st.sampled_from(divisors), st.sampled_from(["-1", "0", str(n), "3", *INT_JUNK]),
            required=cmd != "closed-form")
    if cmd in ("construct", "closed-form", "cocycle", "bracket"):
        values = st.lists(RATIONAL, min_size=max(n, 0), max_size=max(n, 0)).map(",".join)
        opt("--lambda", values, st.sampled_from(TEXT_JUNK) | st.text(max_size=6), required=cmd != "bracket")
    if cmd == "closed-form" and draw(st.booleans()):
        files["c.json"], _ = draw(tensor_file())
        argv.extend(["--compare", ("tmp", "c.json")])
    if cmd == "bracket":
        opt("--m-size", st.integers(1, 3 if n <= 2 else 2).map(str), st.sampled_from(["-1", "0", *INT_JUNK]))
        for flag in ("--check-jacobi", "--compare-closed-2m"):
            if draw(st.booleans()):
                argv.append(flag)
    if cmd == "transform":
        how = draw(st.sampled_from(["g", "g", "dual", "both"]))
        if how != "dual":
            files["g.json"] = draw(matrix_file())
            argv.extend(["--g", ("tmp", "g.json")])
        if how != "g":
            argv.append("--transpose-dual")
    if cmd in ("construct", "closed-form", "bracket", "transform"):
        opt("--out", st.just(("tmp", "out.json")), st.sampled_from(OUT_PATHS),
            required=cmd in ("construct", "transform"))
    opt("--report", st.just(("tmp", "report.json")), st.sampled_from(REPORT_PATHS))
    if draw(st.integers(0, 19)) == 3:
        argv.append(draw(st.sampled_from(TEXT_JUNK)))
    return argv, files


def run_contained(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(case=command_line())
@example(case=(
    ["transform", ("tmp", "t.json"), "--g", ("tmp", "g.json"), "--out", ("tmp", "out.json")],
    {"t.json": huge_tensor_text(), "g.json": json.dumps([["1", "1"], ["0", "1"]])},
))
def test_exit_code_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        resolved = [str(root.joinpath(*arg[1:])) if isinstance(arg, tuple) else arg for arg in argv]
        before = sorted(root.rglob("*"))
        code, stdout = run_contained(resolved)
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert sorted(root.rglob("*")) == before
        else:
            report = stdout
            if "--report" in argv:
                report = Path(resolved[argv.index("--report") + 1]).read_text()
            assert json.loads(report)["verdict"] == {0: "pass", 1: "fail", 3: "degenerate"}[code]
