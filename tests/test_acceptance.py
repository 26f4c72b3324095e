"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is literal equality;
run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

from aybe.cli import main
from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.frobenius import LambdaSpec, _entries, build_basis, cocycle_residual, r_from_algebra
from aybe.exactlin import SingularMatrix, mat_inverse
from aybe.poisson import (
    QuadraticBracket,
    compare_to_closed_2m,
    jacobi_residual,
    matrix_bracket_from_r,
)
from aybe.tensor import Tensor4, aybe_residual, check_skew, gl_transform, transpose_dual
from oracles import (
    dense,
    gram_dense,
    rand_block_lambda,
    rand_distinct_lambda,
    rand_fraction,
    rand_invertible,
)


def criterion(num: int, description: str, problems: list, elapsed: float, budget: float):
    if elapsed >= budget:
        problems.append(f"runtime {elapsed:.1f}s exceeded {budget:.0f}s budget")
    verdict = "PASS" if not problems else "FAIL"
    print(f"[criterion {num:02d}] {verdict} {description} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_criterion_01_m1_reproduction():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(1)
    for n in (2, 3, 4, 5):
        lam = rand_distinct_lambda(rng, n, 1)
        r = r_from_algebra(lam)
        closed = r_closed_m1(lam)
        if r != closed:
            problems.append(f"n={n}: gram build differs from closed form")
        if (check_skew(r), aybe_residual(r)) != ([], []):
            problems.append(f"n={n}: solution fails the component checks")
    criterion(1, "single-block closed form reproduced for N=2..5", problems, time.perf_counter() - t0, 5.0)


def test_criterion_02_block_pattern():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(2)
    for n, m in [(4, 2), (6, 2), (6, 3)]:
        lam = rand_block_lambda(rng, n, m)
        basis = build_basis(n, m)
        g = gram_dense([dense(n, _entries(e)) for e in basis], lam)
        at = {(i, j): k for k, (i, j, _) in enumerate(basis)}
        for pos, (i, j, _) in enumerate(basis):
            nonzero = [(k, v) for k, v in enumerate(g[pos]) if v]
            expected = (at[(j, i)], lam.values[i] - lam.values[j])
            if len(nonzero) != 1 or nonzero[0] != expected:
                problems.append(f"(n,m)=({n},{m}): gram row {pos} not paired")
                break
        try:
            mat_inverse(g)
        except SingularMatrix:
            problems.append(f"(n,m)=({n},{m}): gram matrix singular")
        if r_from_algebra(lam) != r_closed_block(lam):
            problems.append(f"(n,m)=({n},{m}): gram build differs from block closed form")
    criterion(2, "block-pattern gram structure and closed form", problems, time.perf_counter() - t0, 10.0)


def test_criterion_03_distinct_formula():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(3)
    for n, m in [(4, 2), (6, 2), (6, 3)]:
        for draw in range(10):
            lam = rand_distinct_lambda(rng, n, m)
            closed = r_closed_distinct(lam)
            if closed != r_from_algebra(lam):
                problems.append(f"(n,m)=({n},{m}) draw {draw}: closed form differs")
                break
            if (check_skew(closed), aybe_residual(closed)) != ([], []):
                problems.append(f"(n,m)=({n},{m}) draw {draw}: checks failed")
                break
    criterion(3, "distinct-lambda closed form over 10 draws each", problems, time.perf_counter() - t0, 30.0)


def test_criterion_04_cocycle_identity():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(4)
    for n in range(2, 7):
        for m in range(1, n):
            if n % m:
                continue
            lambdas = [
                rand_distinct_lambda(rng, n, m),
                LambdaSpec(n, m, [Fraction(1)] * n),
                LambdaSpec(n, m, [rand_fraction(rng, bound=3) for _ in range(n)]),
            ]
            for lam in lambdas:
                if cocycle_residual(lam):
                    problems.append(f"(n,m)=({n},{m}) mode={lam.mode}: cyclic identity violated")
    criterion(4, "cyclic identity over all basis triples, N<=6", problems, time.perf_counter() - t0, 60.0)


def test_criterion_05_n2_families(tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(5)
    for k in range(5):
        lam_val = rand_fraction(rng, nonzero=True)
        families = [
            Tensor4(2, {(1, 0, 1, 1): lam_val, (0, 1, 1, 1): -lam_val}),
            Tensor4(2, {(1, 1, 1, 0): lam_val, (1, 1, 0, 1): -lam_val}),
        ]
        for fi, fam in enumerate(families):
            path = tmp_path / f"family{fi}_{k}.json"
            path.write_text(fam.dumps())
            code = main(["verify", str(path)])
            capsys.readouterr()
            if code != 0:
                problems.append(f"family {fi + 1} at parameter {lam_val}: verify exit {code}")
    for k in range(20):
        entries = {}
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        key, partner = (a, b, c, d), (b, a, d, c)
                        if key == partner or partner in entries or key in entries:
                            continue
                        v = rand_fraction(rng, nonzero=True)
                        entries[key] = v
                        entries[partner] = -v
        t = Tensor4(2, entries)
        if not aybe_residual(t):
            problems.append(f"dense skew tensor {k} unexpectedly solves the equation")
    criterion(5, "printed N=2 families verify; dense skew tensors fail", problems, time.perf_counter() - t0, 30.0)


def test_criterion_06_gl_equivariance():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(6)
    solutions = [
        r_closed_m1(LambdaSpec(2, 1, [2, 1])),
        r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])),
        r_closed_block(LambdaSpec(4, 2, [1, 1, 0, 0])),
        r_closed_distinct(LambdaSpec(4, 2, [0, 1, 2, 3])),
    ]
    for k in range(10):
        for r in solutions:
            moved = gl_transform(r, rand_invertible(rng, r.n))
            if (check_skew(moved), aybe_residual(moved)) != ([], []):
                problems.append(f"transform {k} on n={r.n} solution broke the checks")
    dual = transpose_dual(r_closed_block(LambdaSpec(4, 2, [1, 1, 0, 0])))
    if (check_skew(dual), aybe_residual(dual)) != ([], []):
        problems.append("transpose dual of the (4,2) solution fails the checks")
    criterion(6, "basis changes and the transpose dual preserve solutions", problems, time.perf_counter() - t0, 60.0)


def test_criterion_07_jacobi():
    t0 = time.perf_counter()
    problems = []
    scalar_sources = [
        ("m1 n=2", r_closed_m1(LambdaSpec(2, 1, [2, 1]))),
        ("m1 n=3", r_closed_m1(LambdaSpec(3, 1, [0, 1, 2]))),
        ("m1 n=4", r_closed_m1(LambdaSpec(4, 1, [0, 1, 2, 3]))),
        ("block (4,2)", r_closed_block(LambdaSpec(4, 2, [1, 1, 0, 0]))),
        ("distinct (4,2)", r_closed_distinct(LambdaSpec(4, 2, [0, 1, 2, 3]))),
    ]
    for name, r in scalar_sources:
        if jacobi_residual(matrix_bracket_from_r(r, 1)):
            problems.append(f"scalar bracket from {name} fails the Jacobi identity")
    t_scalar = time.perf_counter() - t0
    if t_scalar >= 30.0:
        problems.append(f"scalar Jacobi runtime {t_scalar:.1f}s exceeded 30s")
    for name, r in [
        ("m1 n=2", r_closed_m1(LambdaSpec(2, 1, [2, 1]))),
        ("family 1", Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1})),
    ]:
        if jacobi_residual(matrix_bracket_from_r(r, 2)):
            problems.append(f"matrix bracket (m=2) from {name} fails the Jacobi identity")

    def x_sq(i, c=1):
        return {(i, i): Fraction(c)}

    control = QuadraticBracket(3, {(0, 1): x_sq(0), (1, 2): x_sq(1), (0, 2): x_sq(2, -1)})
    if not jacobi_residual(control):
        problems.append("non-Poisson control bracket unexpectedly satisfies Jacobi")
    criterion(7, "Jacobi holds for derived brackets; control fails", problems, time.perf_counter() - t0, 60.0)


def test_criterion_08_closed_2m_report():
    t0 = time.perf_counter()
    problems = []
    lam = LambdaSpec(4, 2, [0, 1, 2, 3])
    derived = matrix_bracket_from_r(r_closed_distinct(lam), 1)
    report = compare_to_closed_2m(derived, lam)
    if len(report) != 6:
        problems.append("comparison report does not cover all generator pairs")
    if any(item["status"] not in ("match", "mismatch", "undefined") for item in report):
        problems.append("comparison report contains an indefinite status")
    if jacobi_residual(derived):
        problems.append("the derived two-block bracket fails the Jacobi identity")
    criterion(8, "two-block bracket comparison report produced; derived bracket is Poisson", problems, time.perf_counter() - t0, 30.0)


def test_criterion_09_degenerate_inputs(tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []
    code = main(["construct", "--n", "2", "--m", "1", "--lambda", "1,1", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    if code != 3:
        problems.append(f"all-equal lambda construct exited {code}, expected 3")
    code = main(["closed-form", "--variant", "m1", "--n", "2", "--lambda", "1,1"])
    capsys.readouterr()
    if code != 2:
        problems.append(f"repeated lambda m1 closed form exited {code}, expected 2")
    code = main(["closed-form", "--variant", "distinct", "--n", "4", "--m", "2", "--lambda", "1,1,0,0"])
    capsys.readouterr()
    if code != 2:
        problems.append(f"repeated lambda distinct closed form exited {code}, expected 2")
    tensor_path = tmp_path / "r.json"
    tensor_path.write_text(r_closed_m1(LambdaSpec(2, 1, [2, 1])).dumps())
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps([["1", "1"], ["1", "1"]]))
    code = main(["transform", str(tensor_path), "--g", str(g_path), "--out", str(tmp_path / "o.json")])
    capsys.readouterr()
    if code != 3:
        problems.append(f"singular basis change exited {code}, expected 3")
    criterion(9, "degenerate and repeated-lambda inputs map to exit codes 3/2/3", problems, time.perf_counter() - t0, 30.0)


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []

    tensor_path = tmp_path / "r.json"
    c_report = tmp_path / "construct-report.json"
    v_report = tmp_path / "verify-report.json"

    def run_once(tag):
        # identical flags both times; outputs are simply overwritten
        code = main(
            [
                "construct", "--n", "4", "--m", "2", "--lambda", "5/3,5/3,-1/2,-1/2",
                "--out", str(tensor_path), "--report", str(c_report),
            ]
        )
        capsys.readouterr()
        if code != 0:
            problems.append(f"construct run {tag} exited {code}")
        code = main(["verify", str(tensor_path), "--report", str(v_report)])
        capsys.readouterr()
        if code != 0:
            problems.append(f"verify run {tag} exited {code}")

        def canon(path):
            obj = json.loads(path.read_text())
            obj.pop("timing_ms", None)
            return json.dumps(obj, sort_keys=True)

        return tensor_path.read_bytes(), canon(c_report), canon(v_report)

    first = run_once("first")
    second = run_once("second")
    if first[0] != second[0]:
        problems.append("tensor files differ between identical runs")
    if first[1] != second[1]:
        problems.append("construct reports differ between identical runs")
    if first[2] != second[2]:
        problems.append("verify reports differ between identical runs")
    criterion(10, "construct and verify are byte-deterministic", problems, time.perf_counter() - t0, 30.0)
