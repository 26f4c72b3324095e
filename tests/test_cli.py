import json
import random

import pytest

from aybe.cli import main
from aybe.closedform import r_closed_m1
from aybe.exactlin import matrix_to_json
from aybe.frobenius import make_lambda
from aybe.tensor import Tensor4
from conftest import rand_invertible


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


def test_report_written_to_file(tmp_path, capsys):
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(Tensor4(2).dumps())
    report_path = tmp_path / "rep.json"
    code, out, _ = run(["verify", str(tensor_path), "--report", str(report_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(report_path.read_text())["verdict"] == "pass"
