import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aybe
from aybe.cli import (
    EXIT_INTERNAL,
    MAX_BRACKET_TERMS,
    MAX_CLOSED_FORM_N,
    MAX_DIMENSION,
    MAX_GENERATORS,
    MAX_INPUT_BYTES,
    MAX_JACOBI_EXPONENTS,
    MAX_TENSOR_NONZEROS,
    COMMANDS,
    REQUIRED,
    _REPORT,
    _glue_negative_lambda,
    _json_text,
    _parse,
    _parse_well_formed,
    build_parser,
    main,
)
from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import (
    LITERAL_BUDGET,
    MAX_LITERAL_CHARS,
    RatMatrix,
    SingularMatrix,
    check_literals,
    format_rational,
    matrix_to_json,
    parse_rational,
)
from aybe.frobenius import LambdaSpec, r_from_algebra
from aybe.poisson import jacobi_residual, matrix_bracket_from_r, terms_json
from aybe.tensor import MAX_JOIN_PRODUCTS, Tensor4, aybe_residual, gl_transform
from oracles import (
    NM_SMALL_CLASSES,
    grid,
    perturbed,
    r_from_algebra_fractions,
    rand_invertible,
    tensor_from_json_obj_old,
    tensor_json_obj,
    unrelated_denominators,
)


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
    assert on_disk == r_closed_m1(LambdaSpec(2, 1, [2, 1]))

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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_construct_writes_the_oracle_tensor(data):
    """construct --out writes r_from_algebra_fractions(lam).dumps() byte for
    byte on both sides of the common_denominator guard: small-integer lambda
    (scaled to ints) and lambda over unrelated_denominators at (5,1) and
    (6,3) (Fractions kept), the latter with a value repeated within a class
    on some draws. A degenerate lambda exits 3 with the Gram rank that the
    oracle's elimination finds, and writes no file."""
    if data.draw(st.booleans()):
        n, m = data.draw(st.sampled_from([(5, 1), (6, 3)]))
        values = [Fraction(data.draw(st.integers(-50, 50).filter(bool)), d) for d in unrelated_denominators(n)]
        if data.draw(st.booleans()):
            values[m] = values[0]
    else:
        n, m = data.draw(st.sampled_from(NM_SMALL_CLASSES))
        values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    lam = LambdaSpec(n, m, values)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        argv = ["construct", "--n", str(n), "--m", str(m),
                "--lambda=" + ",".join(map(format_rational, lam.values)), "--out", str(out)]
        code, stdout = run_contained(argv)
        try:
            expected = r_from_algebra_fractions(lam)
        except SingularMatrix as exc:
            assert code == 3 and not out.exists()
            assert json.loads(stdout)["details"] == {"gram_rank": exc.rank}
        else:
            assert code == 0 and out.read_text() == expected.dumps()


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
    # LambdaSpec alone checks --lambda: the divisor first, then each value's
    # text, then the count, so that order decides which of two faults is named
    tensor_path = tmp_path / "r2.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
    cases = [
        (["construct", "--n", "4", "--m", "3", "--lambda", "0,1", "--out", out_path],
         "m=3 is not a proper divisor of n=4"),
        (["construct", "--n", "3", "--m", "1", "--lambda", "1,x", "--out", out_path],
         "not an exact rational literal: 'x'"),
        (["construct", "--n", "3", "--m", "1", "--lambda", "1,2", "--out", out_path],
         "expected 3 lambda values, got 2"),
        (["bracket", str(tensor_path), "--compare-closed-2m", "--lambda", "1,2,3"],
         "expected 2 lambda values, got 3"),
    ]
    for argv, message in cases:
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"aybe: error: {message}\n")


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
    # each distinct value text is parsed once; the checks stay as they were
    one, other = {"upper": [0, 1], "lower": [0, 1]}, {"upper": [1, 0], "lower": [1, 0]}
    not_text = "tensor entry values must be rational strings"
    rows = [([{**one, "value": value}], not_text) for value in (["1"], {"p": "1"}, None, 1, 1.5, True)]
    rows += [
        ([{**one, "value": "1"}, {**other, "value": ["1"]}], not_text),
        ([{**one, "value": "0"}, {**other, "value": "0"}], "explicit zero entry in tensor file"),
        ([{**one, "value": "1"}, {**other, "value": "0"}, {**one, "value": "0"}], "explicit zero entry in tensor file"),
        ([{**one, "value": "1"}, {**one, "value": "1"}], "duplicate tensor entry at (0, 1, 0, 1)"),
        ([{**one, "value": "2"}, {**other, "value": "2"}, {**other, "value": "2"}], "duplicate tensor entry at (1, 0, 1, 0)"),
        ([1], "tensor entries must be objects"),
    ]
    for entries, message in rows:
        path.write_text(json.dumps({"n": 2, "entries": entries}))
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 2 and out == "" and err == f"aybe: error: {message}\n", entries
    report = tmp_path / "report.json"
    for doc in ({"n": 2}, {"n": 2, "entries": "[]"}):
        path.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(path), "--report", str(report)], capsys)
        assert (code, out, err) == (2, "", "aybe: error: tensor JSON needs an 'entries' list\n"), doc
        assert not report.exists()


def test_verify_deeply_nested_file_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert out == "" and "aybe: error:" in err


def test_transform_deeply_nested_g_exit_2(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
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
    Path("r.json").write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
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
    assert Tensor4.loads(tensor_path.read_text()) == r_closed_m1(LambdaSpec(3, 1, [-1, 0, 1]))
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
    other_n.write_text(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])).dumps())
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
    r_path_text = r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])).dumps()
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


@pytest.mark.parametrize(
    "r, fails",
    [
        (r_closed_distinct(LambdaSpec(4, 2, grid(4, 3))), False),
        (Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1}), False),
        (perturbed(r_closed_m1(LambdaSpec(3, 1, [0, 1, 3]))), True),
        (Tensor4(3, {(1, 1, 0, 1): 1, (1, 1, 1, 0): -1, (0, 0, 1, 2): 1, (0, 0, 2, 1): -1}), True),
    ],
    ids=["distinct-4x2", "family-2", "perturbed-m1-3", "non-aybe-3"],
)
def test_bracket_matrix_jacobi_matches_full_contraction(tmp_path, capsys, monkeypatch, r, fails):
    """At --m-size 2 an empty AYBE residual decides --check-jacobi with no
    contraction; a skew non-solution runs it, so the report lists what the
    full contraction finds."""
    path = tmp_path / "r.json"
    path.write_text(r.dumps())
    b = matrix_bracket_from_r(r, 2)
    expected = [{"triple": list(t), "residual": terms_json(b.n_gens, terms)} for t, terms in jacobi_residual(b)]
    assert bool(expected) == fails
    calls = []
    monkeypatch.setattr(aybe.cli, "jacobi_residual", lambda b: calls.append(b) or jacobi_residual(b))
    code, out, _ = run(["bracket", str(path), "--m-size", "2", "--check-jacobi"], capsys)
    assert code == (1 if fails else 0) and len(calls) == fails
    assert read_report(out)["details"]["jacobi_violations"] == expected


def test_bracket_matrix_jacobi_join_never_refused(tmp_path, capsys):
    """At --m-size >= 2 the tensor has at most MAX_BRACKET_TERMS / 16
    nonzeros, and the AYBE residual's join at most their square, below
    MAX_JOIN_PRODUCTS. A skew tensor's nonzeros come in pairs, so 624 is
    the most it can hold: the residual of one whose entries crowd onto
    s = 0 is not refused, and a dense GL-transformed solution passes."""
    most = MAX_BRACKET_TERMS // 2**4
    assert most == 625 and most * most < MAX_JOIN_PRODUCTS

    def join_products(r):
        ups, downs = {}, {}
        for (_, b, c, _), _ in r.iter_items():
            ups[b], downs[c] = ups.get(b, 0) + 1, downs.get(c, 0) + 1
        return sum(k * downs.get(s, 0) for s, k in ups.items())

    crowded = {}
    for a, d in itertools.product(range(1, 25), range(1, 14)):
        crowded[(a, 0, 0, d)], crowded[(0, a, d, 0)] = 1, -1
    crowded = Tensor4(25, crowded)
    assert crowded.nnz == 624 and join_products(crowded) == 101_400
    assert aybe_residual(crowded)  # not refused; not a solution either
    rng = random.Random(0)
    g = RatMatrix([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
    r = gl_transform(r_from_algebra(LambdaSpec(5, 1, range(5))), g)
    assert r.nnz == 500 and join_products(r) == 50_000
    path = tmp_path / "r.json"
    path.write_text(r.dumps())
    code, out, err = run(["bracket", str(path), "--m-size", "2", "--check-jacobi"], capsys)
    assert (code, err) == (0, "")
    assert read_report(out)["details"]["jacobi_violations"] == []


def test_bracket_non_skew_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    code, out, _ = run(["bracket", str(path)], capsys)
    assert code == 1
    assert read_report(out)["details"]["skew_violations"]


@pytest.mark.parametrize("m_size", ["0", "-1"])
def test_bracket_m_size_below_1_exit_2(tmp_path, capsys, m_size):
    """A matrix size below 1 is a usage error whatever the tensor: it is
    checked before the skew check, so a non-skew tensor exits 2, not 1."""
    path = tmp_path / "bad.json"
    path.write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    out_path = tmp_path / "b.json"
    code, out, err = run(["bracket", str(path), "--m-size", m_size, "--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert err == "aybe: error: matrix size must be >= 1\n"
    assert not out_path.exists()


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

    monkeypatch.setattr("aybe.cli.matrix_bracket_from_r", no_work)
    monkeypatch.setattr("aybe.cli.jacobi_residual", no_work)
    tensor_path = tmp_path / "r3.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])).dumps())
    even_path = tmp_path / "r4.json"
    even_path.write_text(r_closed_m1(LambdaSpec(4, 1, [0, 1, 2, 3])).dumps())
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


def test_bracket_lambda_without_compare_is_refused_first(tmp_path, capsys, monkeypatch):
    """--lambda is read only by --compare-closed-2m, so without it the call
    is refused before the tensor is read, not run with the value ignored."""
    def no_work(*args):
        raise AssertionError("bracket work started before --lambda was refused")

    for name in ("_load_tensor", "matrix_bracket_from_r", "jacobi_residual"):
        monkeypatch.setattr(f"aybe.cli.{name}", no_work)
    tensor_path = tmp_path / "r4.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(4, 1, [0, 1, 2, 3])).dumps())
    bracket_path = tmp_path / "b.json"
    cases = [
        ["--lambda", "0,1,2,3"],
        ["--lambda", "-1,0,1,2", "--check-jacobi"],
        ["--lambda=0,1", "--m-size", "2"],
        ["--lam", "0,1,2,3"],  # an abbreviation: read by the argparse tree
    ]
    for extra in cases:
        code, out, err = run(["bracket", str(tensor_path), *extra, "--out", str(bracket_path)], capsys)
        assert code == 2 and out == ""
        assert err == "aybe: error: --lambda applies only with --compare-closed-2m\n"
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
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    out_path = tmp_path / "out.json"
    code, _, _ = run(["transform", str(tensor_path), "--g", str(g_path), "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == tensor_path.read_bytes()


def test_transform_transpose_dual_involution(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])).dumps())
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
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
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
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
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
    # recorded while bracket entries and Jacobi residuals were `Polynomial`s
    (["bracket", "p63.json", "--check-jacobi"], 1,
     '{"command": "bracket", "inputs": {"tensor": "p63.json", "m_size": 1, "check_jacobi": true, '
     '"out": null}, "verdict": "fail", "details": {"generators": 6, "nonzero_pairs": 15, '
     '"jacobi_violations": [{"triple": [0, 1, 3], "residual": [{"exps": [1, 0, 0, 1, 1, 0], "coeff": '
     '"-40/117"}, {"exps": [1, 1, 0, 1, 0, 0], "coeff": "40/117"}, {"exps": [2, 0, 0, 0, 1, 0], '
     '"coeff": "76/117"}, {"exps": [2, 1, 0, 0, 0, 0], "coeff": "-76/117"}]}, {"triple": [0, 2, 3], '
     '"residual": [{"exps": [1, 0, 0, 1, 0, 1], "coeff": "-128/207"}, {"exps": [1, 0, 1, 1, 0, 0], '
     '"coeff": "128/207"}, {"exps": [2, 0, 0, 0, 0, 1], "coeff": "8/9"}, {"exps": [2, 0, 1, 0, 0, 0], '
     '"coeff": "-8/9"}]}, {"triple": [0, 3, 4], "residual": [{"exps": [1, 0, 0, 1, 1, 0], "coeff": '
     '"-64/117"}, {"exps": [1, 1, 0, 1, 0, 0], "coeff": "64/117"}, {"exps": [2, 0, 0, 0, 1, 0], '
     '"coeff": "28/117"}, {"exps": [2, 1, 0, 0, 0, 0], "coeff": "-28/117"}]}, {"triple": [0, 3, 5], '
     '"residual": [{"exps": [1, 0, 0, 1, 0, 1], "coeff": "-56/207"}, {"exps": [1, 0, 1, 1, 0, 0], '
     '"coeff": "56/207"}]}]}}'),
]


def _write_report_inputs():
    """The files the PINNED_REPORTS lines read besides r.json, which the
    first line writes: p63.json is a perturbed, skew, non-AYBE distinct
    (6,3) tensor."""
    Path("bad.json").write_text(Tensor4(2, {(0, 1, 0, 1): 1}).dumps())
    Path("zero.json").write_text(Tensor4(2).dumps())
    Path("g.json").write_text(json.dumps([["1", "1"], ["0", "1"]]))
    Path("s.json").write_text(json.dumps([["1", "1"], ["1", "1"]]))
    Path("p63.json").write_text(perturbed(r_closed_distinct(LambdaSpec(6, 3, grid(6, 11)))).dumps())


def test_reports_pinned(tmp_path, capsys, monkeypatch):
    """Report text, key order included, with only `timing_ms` left out."""
    monkeypatch.chdir(tmp_path)
    _write_report_inputs()
    for argv, expected_code, expected in PINNED_REPORTS:
        code, out, _ = run(argv, capsys)
        assert code == expected_code
        head, timing = out.rsplit(',\n  "timing_ms": ', 1)
        assert re.fullmatch(r"[0-9.]+\n}\n", timing)
        assert head + "\n}\n" == json.dumps(json.loads(expected), indent=2) + "\n"


GRID = {n: ",".join(format_rational(Fraction(k * k + 1, k + 2)) for k in range(n)) for n in (4, 6, 8)}

# (argv, output file, SHA-256 of its bytes), recorded while Tensor4.dumps
# still called json.dumps(..., indent=2)
PINNED_OUTPUTS = [
    (["construct", "--n", "4", "--m", "2", "--lambda", GRID[4], "--out", "c42.json"], "c42.json",
     "c0b7a912b666565fab2582138598c5ce75cac575bebd1fde713451a66e0fcb3c"),
    (["construct", "--n", "6", "--m", "3", "--lambda", GRID[6], "--out", "c63.json"], "c63.json",
     "6a0c0df99a44830a6416e18d5207e88e5f6863e62096217a83198500cd5154e4"),
    (["construct", "--n", "8", "--m", "4", "--lambda", GRID[8], "--out", "c84.json"], "c84.json",
     "08ca4de02cf59ece653a3f10e04a37d60b9f08b1b5f3cfb4c0d1cbd71307873a"),
    (["closed-form", "--variant", "distinct", "--n", "8", "--m", "2", "--lambda", GRID[8],
      "--out", "d82.json"], "d82.json",
     "e480e67805a2e17c97464ff55050f277edb0a44f255d1168f028216620fcf29a"),
    (["transform", "c63.json", "--transpose-dual", "--out", "t63.json"], "t63.json",
     "471bc46247f807909caf87ba0a464bcbd97135f4cd25cdb7859ab2fb325b02b2"),
    # bracket files, recorded while bracket entries were `Polynomial`s; c42.json
    # is also the distinct (4,2) closed form
    (["closed-form", "--variant", "m1", "--n", "3", "--lambda", "0,1,5/2", "--out", "m13.json"],
     "m13.json", "b0f6b5c97079e3cd69b15c9bd3d4961f20bd1b3120cc9c839a37a9f3ad21a239"),
    (["bracket", "m13.json", "--out", "b13.json"], "b13.json",
     "5ca0b0b2680d5aba1ec8de85243675582c70a83b81d7c79245bad2590792b61a"),
    (["bracket", "c42.json", "--m-size", "2", "--out", "b42.json"], "b42.json",
     "506c26b7ce62e4d4d7e7da817e7740e66cf6e7a180eec9d4edf7ceeaf6df1eb5"),
    (["bracket", "p63.json", "--out", "bp63.json"], "bp63.json",
     "ddc203f74ab0fcc6568cd08d485b702c9b3f56b3a8cbe3dd7698ae2eaba53ce2"),
]


def test_output_files_pinned(tmp_path, capsys, monkeypatch):
    """Tensor and bracket files byte for byte; transform and bracket read
    tensors that earlier lines or _write_report_inputs wrote."""
    monkeypatch.chdir(tmp_path)
    _write_report_inputs()
    got = []
    for argv, out, _ in PINNED_OUTPUTS:
        code, _, _ = run(argv, capsys)
        assert code == 0
        got.append(hashlib.sha256(Path(out).read_bytes()).hexdigest())
    assert got == [digest for _, _, digest in PINNED_OUTPUTS]


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
    Path("r.json").write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
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

    _write_report_inputs()
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


def test_parse_matches_full_parser(monkeypatch):
    """`main` reads each line the full tree accepts as the tree does, and
    fails on the same lines with the same exit code and text."""
    monkeypatch.setenv("COLUMNS", "100")
    negative = {
        "construct": ["--n", "3", "--m", "1", "--out", "r.json"],
        "closed-form": ["--variant", "m1", "--n", "3"],
        "cocycle": ["--n", "3", "--m", "1"],
        "bracket": ["r.json", "--compare-closed-2m"],
    }
    lines = [argv for argv, _, _ in PINNED_REPORTS] + [
        ["bracket", "r.json", "--chec"],
        ["verify", "--", "r.json"],
        ["transform", "--transpose-dual", "--out", "t.json", "--", "r.json"],
        *([cmd, *args, "--lambda", "-1,0,1"] for cmd, args in negative.items()),
    ]
    for argv in lines:
        argv = _glue_negative_lambda(argv)
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), argv
    takes_lambda = {cmd for cmd, (_, _, options) in COMMANDS.items() if any(o[0] == "--lambda" for o in options)}
    assert set(negative) == takes_lambda

    exits = [
        [], ["-h"], ["--help"], ["bogus"], ["-x", "verify", "r.json"], ["--", "verify", "r.json"],
        ["verify"], ["construct", "--n", "x"], ["closed-form", "--variant", "zz"],
        ["cocycle", "--n", "2", "--lambda", "2,1"],
        ["transform", "r.json", "--g", "g.json", "--transpose-dual", "--out", "t.json"],
        # abbreviated options
        ["bracket", "--chec"], ["bracket", "r.json", "--m", "x"], ["construct", "--n", "2", "--l"],
        # `--` ends the options: what follows is positional
        ["construct", "--", "--n", "2"], ["construct", "--", "-h"], ["bracket", "--", "r.json", "--m-size"],
        # arguments the command does not take: the full tree reports them
        ["verify", "r.json", "extra"], ["verify", "r.json", "--bogus"], ["verify", "r.json", "--", "x"],
        ["transform", "r.json", "--transpose-dual", "--out", "t", "--"],
        ["cocycle", "--n", "2", "--m", "1", "--lambda", "2,1", "--"],
        ["cocycle", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", "o.json"],
        ["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1", "-x", "1"],
        ["bracket", "r.json", "r.json"], ["transform", "r.json", "--transpose-dual", "--out", "t", "-v"],
        ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", "r.json", "--n=3", "x"],
        # a help request wins over a stray argument before it
        ["verify", "--bogus", "-h"],
    ]
    for cmd in COMMANDS:
        exits += [[cmd, "-h"], [cmd, "--help"], [cmd, "--he"], [cmd, "--report"]]
    for argv in exits:
        assert _exit(main, argv) == _exit(build_parser().parse_args, argv), argv
    # unglued, `--lambda -1,0,1` is an option missing its value in both
    for cmd, args in negative.items():
        argv = [cmd, *args, "--lambda", "-1,0,1"]
        assert _exit(_parse, argv) == _exit(build_parser().parse_args, argv), argv


JUNK_VALUES = ["", "x", "-1", "-x", "1.5", "0", "--", "-h", "--report", "r.json", "2,1", "-1,3", "m1"]


@st.composite
def table_argv(draw):
    """argv over one command's vocabulary: its options, now and then all the
    required ones, in any order, in spaced or `=` form, exact or
    abbreviated, repeated or missing, with valid, negative or junk values,
    and `--`, help and stray arguments dropped in."""
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    options = [_REPORT]  # and the command's options, its required group unpacked
    for option in COMMANDS[cmd][2]:
        options.extend(option if isinstance(option[0], tuple) else [option])
    chosen = draw(st.lists(st.sampled_from(options), max_size=3, unique_by=lambda o: o[0]))
    if draw(st.integers(0, 3)):
        chosen += [o for o in options if o[3] is REQUIRED and o not in chosen]
        if cmd == "transform" and not set(COMMANDS[cmd][2][1]) & set(chosen):
            chosen.append(draw(st.sampled_from(COMMANDS[cmd][2][1])))
    if draw(st.integers(0, 7)) == 0:
        chosen.append(draw(st.sampled_from(options)))
    argv = [cmd]
    for flag, _, kind, _, _ in draw(st.permutations(chosen)):
        if kind is int:
            valid = st.integers(-2, 12).map(str)
        elif kind is str or kind is bool:
            valid = st.sampled_from(["r.json", "2,1", "0,1,5/2"])
        else:
            valid = st.sampled_from([*kind, "zz"])
        value = draw(st.sampled_from(JUNK_VALUES) if draw(st.integers(0, 7)) == 0 else valid)
        if not flag.startswith("-"):
            argv.append(value)
            continue
        if draw(st.integers(0, 7)) == 0:
            flag = flag[:draw(st.integers(2, len(flag)))]
        form = draw(st.integers(0, 9))
        if kind is bool:
            argv.append(f"{flag}={value}" if form == 0 else flag)
        else:
            argv.extend([f"{flag}={value}"] if form < 5 else [flag, value] if form < 9 else [flag])
    if draw(st.integers(0, 3)) == 0:
        extra = draw(st.sampled_from(["--", "-h", "--help", "extra", "-x", "--bogus"]))
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


@settings(max_examples=400, deadline=None)
@given(table_argv())
@example(["closed-form", "--variant=m1", "--n", "3", "--lambda=-1,0,1", "--out="])
@example(["transform", "t.json", "--transpose-dual", "--out", "o.json", "--report=r.json"])
@example(["bracket", "r.json", "--m-size=2", "--check-jacobi", "--compare-closed-2m", "--lambda", "1,2"])
@example(["bracket", "r.json", "--report=--"])  # argparse reads the value as []
@example(["transform", "r.json", "--out", "o.json"])  # neither of the required group
@example(["transform", "r.json", "--g", "g.json", "--transpose-dual", "--out", "o.json"])
@example(["bracket", "r.json", "--c"])  # an ambiguous abbreviation
@example(["closed-form", "--variant", "zz", "--n", "2", "--lambda", "2,1"])
def test_table_parser_matches_argparse(argv):
    """Whatever the COMMANDS table parser accepts, the full tree reads as
    the same arguments."""
    args = _parse_well_formed(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_only_ill_formed_calls_build_parsers(tmp_path, capsys, monkeypatch):
    """A call that names a command and gives it only its own arguments, each
    once and spelled out, builds no parser; help, a missing or unknown
    command and stray arguments build the full tree of seven."""
    monkeypatch.chdir(tmp_path)
    _write_report_inputs()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, expected_code, _ in PINNED_REPORTS:
        built.clear()
        assert run(argv, capsys)[0] == expected_code
        assert built == [], argv
    assert {argv[0] for argv, _, _ in PINNED_REPORTS} == set(COMMANDS)

    tree = ["aybe", *(f"aybe {name}" for name in COMMANDS)]
    for argv, code in ([["-h"], 0], [["bogus"], 2], [[], 2]):
        built.clear()
        assert _exit(main, argv)[0] == code
        assert built == tree, argv
    built.clear()
    assert _exit(main, ["verify", "zero.json", "extra"])[0] == 2
    assert built == tree


def test_argparse_fallback_runs_commands(tmp_path, capsys, monkeypatch):
    """argv that only the full tree reads (an abbreviation, a repeat whose
    last value wins, `--` before the positional, a spaced negative value)
    runs the command as its well-formed spelling does."""
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
    pairs = [
        (["bracket", "r.json", "--chec"], ["bracket", "r.json", "--check-jacobi"]),
        (["cocycle", "--n", "2", "--n", "3", "--m", "1", "--lambda", "0,1,2"],
         ["cocycle", "--n", "3", "--m", "1", "--lambda", "0,1,2"]),
        (["verify", "--", "r.json"], ["verify", "r.json"]),
    ]
    for fallback, well_formed in pairs:
        assert _parse_well_formed(fallback) is None and _parse_well_formed(well_formed) is not None
        code, out, err = run(fallback, capsys)
        expected_code, expected_out, expected_err = run(well_formed, capsys)
        assert code == expected_code == 0 and err == expected_err == "", fallback
        assert _without_timing(out) == _without_timing(expected_out), fallback
    fallback, well_formed = ["bracket", "r.json", "--m-size", "-1"], ["bracket", "r.json", "--m-size=-1"]
    assert _parse_well_formed(fallback) is None and _parse_well_formed(well_formed) is not None
    assert run(fallback, capsys) == run(well_formed, capsys) == (2, "", "aybe: error: matrix size must be >= 1\n")


def test_cold_process_matches_in_process(tmp_path, capsys, monkeypatch):
    """`python -m aybe.cli` builds its parser from scratch; its help text and
    report match the in-process ones."""
    monkeypatch.setenv("COLUMNS", "100")
    path = tmp_path / "r.json"
    path.write_text(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])).dumps())
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


def test_cli_import_skips_dataclasses_and_inspect():
    """A cold `import aybe.cli` loads neither `dataclasses` nor the
    `inspect` it pulls in (with `ast`, `dis` and `tokenize`), which would
    add about 10 ms to every process that compiles them, nor `typing`
    (about 4.6 ms); the annotations are postponed, so none is needed. A
    well-formed call after it loads neither `argparse` nor `shutil`, which
    only help and error texts need."""
    src = str(Path(aybe.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import aybe.cli; "
            "code = aybe.cli.main(['cocycle', '--n', '2', '--m', '1', '--lambda', '2,1']); "
            "loaded = {'dataclasses', 'inspect', 'typing', 'argparse', 'shutil'} & set(sys.modules); "
            "print(code, sorted(loaded), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"
    assert proc.stderr == "0 []\n"


class _Started(BaseException):
    """Raised in place of the first step of a command's work. Not an
    Exception, so main's internal-error exit (4) lets it through."""


def _start(*args, **kwargs):
    raise _Started


@pytest.fixture
def no_work(monkeypatch):
    for name in ("r_from_algebra", "cocycle_residual", "r_closed", "matrix_bracket_from_r",
                 "check_skew"):
        monkeypatch.setattr(f"aybe.cli.{name}", _start)


def _sized_argv(tmp_path, cmd, n, m=1, m_size=1):
    if cmd in ("bracket", "verify") or (cmd == "transform" and m > 1):
        # m > 1: the first m entries of an n^4 tensor (transform: by the
        # identity), else none
        indices = itertools.product(range(n), repeat=4)
        items = dict.fromkeys(itertools.islice(indices, m if m > 1 else 0), 1)
        path = tmp_path / f"r{n}.json"
        path.write_text(Tensor4(n, items).dumps())
        if cmd == "verify":
            return ["verify", str(path), "--report", str(tmp_path / "r.json")]
        if cmd == "transform":
            g = tmp_path / "g.json"
            g.write_text(json.dumps([[int(i == j) for j in range(n)] for i in range(n)]))
            return ["transform", str(path), "--g", str(g), "--out", str(tmp_path / "r.json")]
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
    ("transform", 11, 10_001, 1),  # 10001 nonzeros in
    ("transform", 24, 42_528, 1),  # the distinct (24,2) tensor's nonzeros in
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
    ("transform", 10, 10_000, 1),  # 10000 nonzeros in
]


@pytest.mark.parametrize("cmd,n,m,m_size", PAST_LIMITS)
def test_size_limit_refused_before_work(tmp_path, capsys, monkeypatch, no_work, cmd, n, m, m_size):
    if cmd == "transform" and m > 1:
        # refused on its input: the transform itself never starts
        for name in ("gl_transform", "transpose_dual"):
            monkeypatch.setattr(f"aybe.cli.{name}", _start)
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
def test_size_limit_accepts_up_to_limit(tmp_path, capsys, monkeypatch, no_work, cmd, n, m, m_size):
    if cmd == "transform" and m > 1:
        monkeypatch.setattr("aybe.cli.gl_transform", _start)
    with pytest.raises(_Started):
        main(_sized_argv(tmp_path, cmd, n, m, m_size))


# (tensor n, --g grid, or None for --transpose-dual, error): refused before
# the transform starts, and a grid of the wrong shape before any entry is
# converted
TRANSFORM_REFUSALS = [
    (41, None, "n = 41 exceeds the limit of 40"),
    (41, [["1"] * 41] * 41, "n = 41 exceeds the limit of 40"),
    (2, {"g": "1"}, "matrix JSON must be a non-empty list of rows"),
    (2, ["1", ["1", "0"]], "matrix JSON rows must be non-empty lists"),
    (2, [], "basis change matrix must be 2x2"),
    (2, [[], []], "basis change matrix must be 2x2"),
    (2, [["1", "0"], ["0", "1", "0"]], "basis change matrix must be 2x2"),
    (2, [["1"] * 3] * 3, "basis change matrix must be 2x2"),
]


@pytest.mark.parametrize("n,grid,message", TRANSFORM_REFUSALS)
def test_transform_refused_before_work(tmp_path, capsys, monkeypatch, n, grid, message):
    for name in ("gl_transform", "transpose_dual"):
        monkeypatch.setattr(f"aybe.cli.{name}", _start)
    monkeypatch.setattr("aybe.exactlin.parse_rational", _start)  # converts a --g entry
    tensor = tmp_path / "t.json"
    tensor.write_text(Tensor4(n, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1}).dumps())
    argv = ["transform", str(tensor), "--out", str(tmp_path / "out.json")]
    if grid is None:
        argv.append("--transpose-dual")
    else:
        (tmp_path / "g.json").write_text(json.dumps(grid))
        argv += ["--g", str(tmp_path / "g.json")]
    assert run(argv, capsys) == (2, "", f"aybe: error: {message}\n")
    assert not (tmp_path / "out.json").exists()


def test_transform_bounded_on_small_inputs(tmp_path):
    """A dense --g of one-digit values at n = 40 (5.6 KB) and at n = 60
    (12 KB), and a 1999 x 1999 --g (8 MB) against n = 2: each once ran
    for 14 s to minutes, or out of memory. Each exits 2 and writes
    nothing. Run under a 512 MB address-space limit, so that a lost bound
    fails here and does not exhaust the machine."""
    rng = random.Random(0)
    cases = []
    for n in (40, 60):
        (tmp_path / f"t{n}.json").write_text(Tensor4(n, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1}).dumps())
        grid = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        (tmp_path / f"g{n}.json").write_text(json.dumps(grid))
        cases.append((f"t{n}.json", f"g{n}.json"))
    (tmp_path / "t2.json").write_text(Tensor4(2, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1}).dumps())
    (tmp_path / "g1999.json").write_text(json.dumps([[0] * 1999] * 1999, separators=(",", ":")))
    cases.append(("t2.json", "g1999.json"))
    src = str(Path(aybe.__file__).parent.parent)
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
            f"sys.path.insert(0, {src!r}); import aybe.cli; "
            f"print([aybe.cli.main(['transform', t, '--g', g, '--out', 'out.json']) for t, g in {cases!r}])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[2, 2, 2]\n"), proc.stderr
    assert proc.stderr == (
        "aybe: error: basis change pass products = 115440 exceeds the limit of 100000\n"
        "aybe: error: n = 60 exceeds the limit of 40\n"
        "aybe: error: basis change matrix must be 2x2\n"
    )
    assert not (tmp_path / "out.json").exists()


def test_residual_join_bounded_on_dense_tensor(tmp_path):
    """verify on a tensor that holds every entry of n = 10 (10,000,000 join
    products) once ran for 20 s in 900 MB; verify, and transform by the
    identity, now refuse it before the join, each in under 1 s, and write
    nothing. Run under a 512 MB address-space limit, as
    test_transform_bounded_on_small_inputs is."""
    n = 10
    (tmp_path / "t.json").write_text(Tensor4(n, dict.fromkeys(itertools.product(range(n), repeat=4), 1)).dumps())
    (tmp_path / "g.json").write_text(json.dumps([[int(i == j) for j in range(n)] for i in range(n)]))
    calls = [["verify", "t.json", "--report", "r.json"], ["transform", "t.json", "--g", "g.json", "--out", "out.json"]]
    src = str(Path(aybe.__file__).parent.parent)
    code = (f"import resource, sys, time; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
            f"sys.path.insert(0, {src!r}); import aybe.cli\n"
            f"for argv in {calls!r}:\n"
            f"    t0 = time.perf_counter(); code = aybe.cli.main(argv)\n"
            f"    print(code, time.perf_counter() - t0 < 1.0)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "2 True\n2 True\n"), proc.stderr
    message = f"aybe: error: residual join products = 10000000 exceeds the limit of {MAX_JOIN_PRODUCTS}\n"
    assert proc.stderr == message * 2
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "out.json").exists()


def test_bracket_limit_refuses_dense_tensor(tmp_path, capsys, no_work):
    """The distinct (24,2) tensor has 24 generators but 42,528 nonzeros; its
    Jacobi check would run for minutes."""
    path = tmp_path / "r.json"
    path.write_text(r_closed_distinct(LambdaSpec(24, 2, range(24))).dumps())
    code, out, err = run(["bracket", str(path), "--check-jacobi"], capsys)
    assert code == 2 and out == ""
    assert f"tensor nonzeros * m_size^4 = 42528 exceeds the limit of {MAX_BRACKET_TERMS}" in err


def _jacobi_exponents(r, m_size):
    """The exponents a --check-jacobi report on r writes: monomials listed
    times generators."""
    b = matrix_bracket_from_r(r, m_size)
    return sum(len(terms) for _, terms in jacobi_residual(b)) * b.n_gens


def test_jacobi_report_limit(tmp_path, capsys, monkeypatch):
    """A --check-jacobi report of more than MAX_JACOBI_EXPONENTS exponents
    is refused once the violations are known, with exit 2 and no file
    written; one at the limit is written."""
    path, out_path = tmp_path / "r.json", tmp_path / "b.json"
    r = perturbed(r_closed_m1(LambdaSpec(3, 1, [0, 1, 3])))
    path.write_text(r.dumps())
    count = _jacobi_exponents(r, 2)
    assert count == 5664
    argv = ["bracket", str(path), "--m-size", "2", "--check-jacobi", "--out", str(out_path)]
    monkeypatch.setattr(aybe.cli, "MAX_JACOBI_EXPONENTS", count - 1)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "") and not out_path.exists()
    assert f"Jacobi report exponents (monomials * generators) = {count} exceeds the limit of {count - 1}" in err
    monkeypatch.setattr(aybe.cli, "MAX_JACOBI_EXPONENTS", count)
    code, out, err = run(argv, capsys)
    assert (code, err) == (1, "") and out_path.exists()
    violations = read_report(out)["details"]["jacobi_violations"]
    assert sum(len(v["residual"]) for v in violations) * 12 == count


def test_jacobi_report_limit_admits_readme_shapes():
    """The failing bracket shapes the README times stay under the limit:
    perturbed distinct (6,3) at --m-size 3, (8,2) at --m-size 2 and (16,2)
    scalar."""
    shapes = [(6, 3, 3, 1_539_648), (8, 2, 2, 402_688), (16, 2, 1, 20_768)]
    for n, m, m_size, count in shapes:
        assert _jacobi_exponents(perturbed(r_closed_distinct(LambdaSpec(n, m, range(n)))), m_size) == count
    assert max(count for *_, count in shapes) <= MAX_JACOBI_EXPONENTS


@pytest.mark.parametrize("target", ["fifo", "link"])
def test_output_not_a_regular_file_exit_2(tmp_path, capsys, monkeypatch, no_work, target):
    """The rename into place would replace a FIFO or a device, or a symlink
    to one, with a regular file: such an `--out` or `--report` is refused
    before any work, and left as it was."""
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    Path("link").symlink_to("fifo")
    Path("r.json").write_text(Tensor4(2).dumps())
    for argv in (["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", target],
                 ["verify", "r.json", "--report", target]):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"aybe: error: output path is not a regular file: {target!r}\n"), argv
        assert stat.S_ISFIFO(os.stat("fifo").st_mode) and os.readlink("link") == "fifo"
        assert sorted(os.listdir()) == ["fifo", "link", "r.json"]


def test_output_path_ending_in_separator_exit_2(tmp_path, capsys, monkeypatch, no_work):
    """A path ending in a separator names a directory, whether or not it
    exists (`Path("nodir/").parent` is "."), and is refused before any
    work; so is an empty path, which names no file at all, and a path the
    system cannot stat."""
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text(Tensor4(2).dumps())
    Path("dir").mkdir()
    construct = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out"]
    cases = [
        (construct + ["nodir/"], "output directory does not exist: 'nodir/'"),
        (["verify", "r.json", "--report", "nodir/"], "output directory does not exist: 'nodir/'"),
        (construct + ["r.json/"], "output directory does not exist: 'r.json/'"),
        (construct + ["dir/"], "output path is a directory: 'dir/'"),
        (["verify", "r.json", "--report", "dir/"], "output path is a directory: 'dir/'"),
        (construct + [""], "output path is empty: --out"),
        (["verify", "r.json", "--report="], "output path is empty: --report"),
        (construct + ["x" * 300], f"[Errno 36] File name too long: {'x' * 300!r}"),
    ]
    for argv, message in cases:
        assert run(argv, capsys) == (2, "", f"aybe: error: {message}\n"), argv
        assert sorted(os.listdir()) == ["dir", "r.json"] and os.listdir("dir") == []


# (argv, the input file padded with trailing whitespace); paths are
# relative to the test's directory
BYTE_LIMIT_CASES = [
    (["verify", "t.json"], "t.json"),
    (["bracket", "t.json", "--out", "o.json"], "t.json"),
    (["closed-form", "--variant", "m1", "--n", "2", "--lambda", "2,1", "--compare", "t.json",
      "--out", "o.json"], "t.json"),
    (["transform", "t.json", "--g", "g.json", "--out", "o.json"], "t.json"),
    (["transform", "t.json", "--g", "g.json", "--out", "o.json"], "g.json"),
]


@pytest.mark.parametrize("argv, padded", BYTE_LIMIT_CASES)
def test_input_file_byte_limit(tmp_path, capsys, monkeypatch, argv, padded):
    """An input file of MAX_INPUT_BYTES bytes is read; one byte more is
    refused with exit 2 before it is parsed, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    texts = {"t.json": r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps(),
             "g.json": json.dumps([["1", "0"], ["0", "1"]])}
    for size, expected in ((MAX_INPUT_BYTES, 0), (MAX_INPUT_BYTES + 1, 2)):
        for name, text in texts.items():
            Path(name).write_text(text.ljust(size) if name == padded else text)
        code, out, err = run(argv, capsys)
        assert code == expected, err
        if expected == 2:
            assert out == ""
            assert err == f"aybe: error: input file {padded!r} exceeds the limit of {MAX_INPUT_BYTES} bytes\n"
            assert not Path("o.json").exists()
        Path("o.json").unlink(missing_ok=True)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_input_pipe_byte_limit(tmp_path, capsys):
    """A pipe's size reads 0, so it is read on to the limit: MAX_INPUT_BYTES
    bytes are parsed, and one more is refused without reading further."""
    fifo = tmp_path / "t.json"
    os.mkfifo(fifo)
    text = r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps()
    for size, expected in ((MAX_INPUT_BYTES, 0), (MAX_INPUT_BYTES + 1, 2)):
        writer = threading.Thread(target=fifo.write_text, args=(text.ljust(size),), daemon=True)
        writer.start()
        code, out, err = run(["verify", str(fifo)], capsys)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == expected, err
        if expected == 2:
            assert out == "" and f"exceeds the limit of {MAX_INPUT_BYTES} bytes" in err


def test_literal_limit_in_input_files(tmp_path, capsys):
    """A tensor value of MAX_LITERAL_CHARS characters is read; one more,
    or a JSON integer that long, exits 2 naming the limit."""
    value = "3" * MAX_LITERAL_CHARS
    path = tmp_path / "t.json"
    path.write_text(_one_entry_file(2, [0, 1], [0, 1], value)[0])
    code, _, _ = run(["verify", str(path)], capsys)
    assert code == 1  # not skew-symmetric
    for text in (_one_entry_file(2, [0, 1], [0, 1], value + "3")[0],
                 json.dumps({"n": 2, "entries": []}).replace("2", "2" * (MAX_LITERAL_CHARS + 1))):
        path.write_text(text)
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"exceeds the limit of {MAX_LITERAL_CHARS}\n" in err


def test_literal_budget_in_input_files(tmp_path, capsys, monkeypatch):
    """66 distinct values of MAX_LITERAL_CHARS digits fit in the byte limit,
    but int() would take seconds on them: the file is refused, naming the
    budget, before any value is parsed. One such value still reads, and
    runs of digits may sum to four such values squared."""
    values = [f"{k + 1}".ljust(MAX_LITERAL_CHARS, "3") for k in range(66)]
    keys = itertools.product(range(3), repeat=4)
    entries = [{"upper": [a, b], "lower": [c, d], "value": v} for (a, b, c, d), v in zip(keys, values)]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 3, "entries": entries}))
    assert path.stat().st_size <= MAX_INPUT_BYTES
    with monkeypatch.context() as patched:
        patched.setattr("aybe.tensor.parse_rational", _start)
        t0 = time.perf_counter()
        code, out, err = run(["verify", str(path)], capsys)
        assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert f"exceeds the limit of {LITERAL_BUDGET} (4 * MAX_LITERAL_CHARS**2)\n" in err
    path.write_text(json.dumps({"n": 3, "entries": entries[:1]}))
    assert run(["verify", str(path)], capsys)[0] == 1  # not skew-symmetric
    run_text = "-" + "9" * (MAX_LITERAL_CHARS - 1)
    check_literals(",".join([run_text] * 4 + ["7" * 4299] * 50))
    with pytest.raises(ValueError, match=f"= {5 * MAX_LITERAL_CHARS**2} exceeds the limit of {LITERAL_BUDGET} "):
        check_literals("/".join([run_text] * 5))


def test_transform_refuses_output_past_literal_limit(tmp_path, capsys):
    """transform writes an entry of MAX_LITERAL_CHARS characters, which
    verify reads; an output entry one character longer exits 2 naming the
    limit and writes no file, so every tensor file written can be read."""
    k = (MAX_LITERAL_CHARS - 2) // 2  # g = diag(10^k, 1) scales r^{00}_{11} by 10^(2k)
    g_path, out_path = tmp_path / "g.json", tmp_path / "o.json"
    g_path.write_text(json.dumps([["1" + "0" * k, "0"], ["0", "1"]]))
    for value, expected in (("30", 1), ("300", 2)):
        path = tmp_path / "t.json"
        path.write_text(_one_entry_file(2, [0, 0], [1, 1], value)[0])
        code, out, err = run(["transform", str(path), "--g", str(g_path), "--out", str(out_path)], capsys)
        assert code == expected, err
        if expected == 1:
            assert read_report(out)["verdict"] == "fail"
            assert run(["verify", str(out_path)], capsys)[0] == 1
        else:
            assert out == "" and not out_path.exists()
            assert err == (
                f"aybe: error: tensor entry length = {MAX_LITERAL_CHARS + 1} characters exceeds the limit "
                f"of {MAX_LITERAL_CHARS} (MAX_LITERAL_CHARS) that a tensor file can be read with\n"
            )
        out_path.unlink(missing_ok=True)


JSON_STRING = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600 a') | st.characters(), max_size=6)
JSON_DOC = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(4300, 6000).map(lambda k: 7 * 10**k - 1)  # past the default int/str limit
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(0, 1e5).map(lambda t: round(t, 3))  # as timing_ms
    | JSON_STRING,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_STRING, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOC)
@example({"a": [], "b": {}, "c": [{}, []], "": [[1, -2.5], None]})
def test_json_text_is_json_dumps_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


# --- exit-code contract over generated command lines ----------------------

INT_JUNK = ["", "x", "1.5", "2/1", "--"]  # none of these parses as an int
TEXT_JUNK = INT_JUNK + ["1,,2", "1/0", "0.5,1", "-", "a,b", "-1,x"]
VALID_TENSORS = [
    Tensor4(2),
    r_closed_m1(LambdaSpec(2, 1, [2, 1])),
    r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])),
    r_closed_m1(LambdaSpec(4, 1, [0, 1, 2, 3])),
    r_closed_block(LambdaSpec(4, 2, [1, 1, 0, 0])),
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
        obj = tensor_json_obj(draw(st.sampled_from(VALID_TENSORS)))
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


def _one_entry_file(n, upper, lower, value="1"):
    return json.dumps({"n": n, "entries": [{"upper": upper, "lower": lower, "value": value}]}), n


@settings(max_examples=300, deadline=None)
@given(tensor_file())
@example(_one_entry_file(2, [0, 1], [1, True]))
@example(_one_entry_file(2, [0.0, 1], [1, 0]))
@example(_one_entry_file(2, [0, "1"], [1, 0]))
@example(_one_entry_file(2, [0, 1], [1, 2]))
@example(_one_entry_file(2, [0, -1], [1, 0], "1/0"))
@example(_one_entry_file(3, [0, 1], [1, 2], " -6/4 "))
def test_loads_matches_old_reader(file):
    """The same tensor as the two-pass reader, or the same error message."""
    text, _ = file
    try:
        expected = tensor_from_json_obj_old(json.loads(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Tensor4.loads(text)
        assert str(got.value) == str(exc)
    else:
        assert Tensor4.loads(text) == expected


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


def _raising(error):
    def command(args):
        raise error

    return command


@pytest.mark.parametrize("command, message", [
    (_raising(TypeError("unsupported operand")), "TypeError: unsupported operand"),
    (_raising(MemoryError()), "MemoryError: "),
    # a fault while the outputs are written: the temporary files go too
    (lambda args: ({}, "pass", {}, {args.out: None}), "TypeError: data must be str, not NoneType"),
])
def test_internal_error_exit_4(tmp_path, capsys, monkeypatch, command, message):
    """Any other exception is a fault in the program, not a verdict: exit 4,
    the command named on stderr, no report and no file."""
    monkeypatch.setitem(COMMANDS, "construct", (command, *COMMANDS["construct"][1:]))
    argv = ["construct", "--n", "2", "--m", "1", "--lambda", "2,1", "--out", str(tmp_path / "r.json")]
    for extra in ([], ["--report", str(tmp_path / "report.json")]):
        code, stdout, err = run(argv + extra, capsys)
        assert code == EXIT_INTERNAL == 4 and stdout == ""
        assert err.endswith(f"aybe: internal error in construct: {message}\n")
        assert list(tmp_path.iterdir()) == []
