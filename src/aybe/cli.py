"""Command-line front door: construct, verify, closed-form, cocycle,
bracket, transform.

Exit codes: 0 verified/success, 1 verification failed, 2 usage or parse
error (including JSON nested too deeply to decode), 3 degenerate or
singular input. Reports are JSON, deterministic byte-for-byte apart from
the timing field. Output paths and inputs are checked before anything is
written, and every file is written through a temporary file and a rename
once all output text is built, so a run that exits 2 leaves no file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from aybe.closedform import VARIANTS, r_closed
from aybe.exactlin import (
    SingularMatrix,
    format_rational,
    matrix_from_json,
    parse_rational,
)
from aybe.frobenius import (
    DegenerateForm,
    LambdaSpec,
    build_basis,
    cocycle_residual,
    r_from_algebra,
)
from aybe.poisson import (
    bracket_to_json,
    compare_to_closed_2m,
    jacobi_residual,
    matrix_bracket_from_r,
    scalar_bracket_from_r,
)
from aybe.tensor import (
    Tensor4,
    aybe_report,
    check_skew,
    compare_tensors,
    gl_transform,
    transpose_dual,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _parse_lambda(text: str, n: int) -> tuple:
    parts = [p for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} lambda values, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _lambda_strings(values) -> list[str]:
    return [format_rational(v) for v in values]


def _write(files: dict[str, str]) -> None:
    """Write every file or none: each text goes to a temporary file beside
    its target, and the targets are replaced only once all are written."""
    temps: list[Path] = []
    try:
        for k, (path, text) in enumerate(files.items()):
            temps.append(Path(f"{path}.{os.getpid()}-{k}.tmp"))
            temps[-1].write_text(text)
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _emit(report: dict, report_path: str | None, outputs: dict | None = None) -> None:
    """Write the output files and the report (to report_path, else stdout)."""
    text = json.dumps(report, indent=2) + "\n"
    files = dict(outputs or {})
    if report_path:
        files[report_path] = text
    _write(files)
    if not report_path:
        sys.stdout.write(text)


def _report(command: str, inputs: dict, verdict: str, details: dict, t0: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "details": details,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


def _load_tensor(path: str) -> Tensor4:
    return Tensor4.loads(Path(path).read_text())


def _violation_items(violations) -> list[dict]:
    return [
        {"indices": list(key), "value": format_rational(v)} for key, v in violations
    ]


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    values = _parse_lambda(args.lam, args.n)
    lam = LambdaSpec(args.n, args.m, values)
    inputs = {
        "n": args.n,
        "m": args.m,
        "lambda": _lambda_strings(lam.values),
        "mode": lam.mode.value,
        "out": args.out,
    }
    basis = build_basis(args.n, args.m)
    try:
        r = r_from_algebra(basis, lam)
    except DegenerateForm as exc:
        report = _report(
            "construct", inputs, "degenerate", {"gram_rank": exc.rank}, t0
        )
        _emit(report, args.report)
        return EXIT_DEGENERATE
    details = {"dimension": len(basis), "entries": r.nnz}
    _emit(_report("construct", inputs, "pass", details, t0), args.report, {args.out: r.dumps()})
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    r = _load_tensor(args.tensor)
    rep = aybe_report(r)
    details = {
        "skew_violations": _violation_items(rep.skew_violations),
        "residual_violations": _violation_items(rep.residual_violations),
    }
    verdict = "pass" if rep.passed else "fail"
    _emit(_report("verify", {"tensor": args.tensor, "n": r.n}, verdict, details, t0), args.report)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_closed_form(args) -> int:
    t0 = time.perf_counter()
    values = _parse_lambda(args.lam, args.n)
    lam = LambdaSpec(args.n, args.m, values)
    inputs = {
        "variant": args.variant,
        "n": args.n,
        "m": args.m,
        "lambda": _lambda_strings(lam.values),
        "out": args.out,
        "compare": args.compare,
    }
    r = r_closed(args.variant, lam)
    diffs = compare_tensors(r, _load_tensor(args.compare)) if args.compare else None
    details: dict = {"entries": r.nnz}
    verdict = "pass"
    code = EXIT_OK
    if diffs is not None:
        details["differences"] = [
            {
                "indices": list(key),
                "closed_form": format_rational(v1),
                "compared": format_rational(v2),
            }
            for key, v1, v2 in diffs
        ]
        if diffs:
            verdict = "fail"
            code = EXIT_FAIL
    outputs = {args.out: r.dumps()} if args.out else {}
    _emit(_report("closed-form", inputs, verdict, details, t0), args.report, outputs)
    return code


def cmd_cocycle(args) -> int:
    t0 = time.perf_counter()
    values = _parse_lambda(args.lam, args.n)
    lam = LambdaSpec(args.n, args.m, values)
    basis = build_basis(args.n, args.m)
    violations = cocycle_residual(basis, lam)
    details = {
        "dimension": len(basis),
        "violations": _violation_items(violations),
    }
    inputs = {"n": args.n, "m": args.m, "lambda": _lambda_strings(lam.values)}
    verdict = "pass" if not violations else "fail"
    _emit(_report("cocycle", inputs, verdict, details, t0), args.report)
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_bracket(args) -> int:
    t0 = time.perf_counter()
    r = _load_tensor(args.tensor)
    lam = None
    if args.compare_closed_2m:
        if args.m_size != 1:
            raise ValueError("--compare-closed-2m applies to the scalar bracket only")
        if r.n % 2:
            raise ValueError("--compare-closed-2m requires even n")
        if args.lam is None:
            raise ValueError("--compare-closed-2m requires --lambda")
        lam = LambdaSpec(r.n, r.n // 2, _parse_lambda(args.lam, r.n))
    inputs = {
        "tensor": args.tensor,
        "m_size": args.m_size,
        "check_jacobi": bool(args.check_jacobi),
        "out": args.out,
    }
    skew = check_skew(r)
    if skew:
        details = {"skew_violations": _violation_items(skew)}
        _emit(_report("bracket", inputs, "fail", details, t0), args.report)
        return EXIT_FAIL
    if args.m_size == 1:
        bracket = scalar_bracket_from_r(r)
    else:
        bracket = matrix_bracket_from_r(r, args.m_size)
    outputs = {}
    if args.out:
        outputs[args.out] = json.dumps(bracket_to_json(bracket), indent=2) + "\n"
    details = {
        "generators": bracket.n_gens,
        "nonzero_pairs": len(bracket.pairs()),
    }
    verdict = "pass"
    code = EXIT_OK
    if args.check_jacobi:
        violations = jacobi_residual(bracket)
        details["jacobi_violations"] = [
            {"triple": list(t), "residual": poly.to_json_obj()}
            for t, poly in violations
        ]
        if violations:
            verdict = "fail"
            code = EXIT_FAIL
    if lam is not None:
        inputs["lambda"] = _lambda_strings(lam.values)
        comparison = compare_to_closed_2m(bracket, lam)
        statuses = {item["status"] for item in comparison}
        details["closed_2m_comparison"] = {
            "overall": (
                "match"
                if statuses <= {"match"}
                else "mismatch" if "mismatch" in statuses else "undefined"
            ),
            "pairs": comparison,
        }
    _emit(_report("bracket", inputs, verdict, details, t0), args.report, outputs)
    return code


def cmd_transform(args) -> int:
    t0 = time.perf_counter()
    r = _load_tensor(args.tensor)
    inputs = {
        "tensor": args.tensor,
        "g": args.g,
        "transpose_dual": bool(args.transpose_dual),
        "out": args.out,
    }
    if args.transpose_dual:
        out = transpose_dual(r)
    else:
        g = matrix_from_json(json.loads(Path(args.g).read_text()))
        try:
            out = gl_transform(r, g)
        except SingularMatrix as exc:
            report = _report(
                "transform", inputs, "degenerate", {"g_rank": exc.rank}, t0
            )
            _emit(report, args.report)
            return EXIT_DEGENERATE
    rep = aybe_report(out)
    details = {
        "entries": out.nnz,
        "skew_violations": _violation_items(rep.skew_violations),
        "residual_violations": _violation_items(rep.residual_violations),
    }
    verdict = "pass" if rep.passed else "fail"
    _emit(_report("transform", inputs, verdict, details, t0), args.report, {args.out: out.dumps()})
    return EXIT_OK if rep.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aybe",
        description=(
            "Construct, verify, and transform skew-symmetric constant solutions "
            "of the associative Yang-Baxter equation, and derive the induced "
            "quadratic Poisson brackets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the tensor from the matrix algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated rationals")
    p.add_argument("--out", required=True, help="tensor JSON output path")
    p.add_argument("--report", default=None, help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run the skew and residual checks on a tensor file")
    p.add_argument("tensor")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("closed-form", help="emit a closed-form tensor, optionally comparing")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None, help="tensor file to diff against")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("cocycle", help="check the cyclic identity over all basis triples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("bracket", help="derive the quadratic bracket from a tensor file")
    p.add_argument("tensor")
    p.add_argument("--m-size", type=int, default=1, help="matrix size of the generators")
    p.add_argument("--check-jacobi", action="store_true")
    p.add_argument(
        "--compare-closed-2m",
        action="store_true",
        help="compare the scalar bracket against the printed two-block formula",
    )
    p.add_argument("--lambda", dest="lam", default=None, help="lambda for --compare-closed-2m")
    p.add_argument("--out", default=None, help="bracket JSON output path")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("transform", help="apply a basis change or the transpose dual")
    p.add_argument("tensor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--g", default=None, help="matrix JSON file for the basis change")
    group.add_argument("--transpose-dual", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_transform)

    return parser


def _check_output_path(path: str) -> None:
    """Reject a path that cannot be written as a file, before any work, so a
    failed run leaves no partial output behind."""
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"output path is a directory: {path!r}")
    if not target.parent.is_dir():
        raise ValueError(f"output directory does not exist: {path!r}")


def _glue_negative_lambda(argv: list[str]) -> list[str]:
    """Rewrite `--lambda -1,0,1` as `--lambda=-1,0,1`; argparse would read
    the leading `-<digit>` value as an option and reject it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--lambda" and re.match(r"-\d", arg):
            out[-1] = f"--lambda={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    # Exact values outgrow Python's 4300-digit int/str limit (a residual
    # squares its entries); parsing a literal costs time quadratic in its
    # digits, so it stays bounded by the input's size. Before 3.10.7: no limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(_glue_negative_lambda(sys.argv[1:] if argv is None else argv))
    try:
        for path in (getattr(args, "out", None), args.report):
            if path is not None:
                _check_output_path(path)
        return args.fn(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"aybe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateForm, SingularMatrix) as exc:
        print(f"aybe: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
