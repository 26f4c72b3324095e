"""Command-line front door: construct, verify, closed-form, cocycle,
bracket, transform.

Each `cmd_*` maps the parsed arguments to (inputs, verdict, details,
outputs). `main` alone times it, builds the JSON report (deterministic
apart from `timing_ms`), writes it and the outputs, and maps the verdict to
the exit code: 0 pass, 1 fail, 3 degenerate. Exit 2 is a usage, parse or
write error, or a size past one of the `MAX_*` limits. Files go through
temporary files, renamed into place only after the stdout report is
written, so a run that exits 2 leaves no file behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
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

EXIT_USAGE = 2
EXIT_CODES = {"pass": 0, "fail": 1, "degenerate": 3}

# Size limits (exit 2), checked before any work; bracket's and verify's,
# once the tensor file is read; transform's, on the transformed tensor. The
# slowest shapes each limit accepts take, on 2 vCPUs: construct (28,2),
# where one Gram component holds half the basis, 9 s; closed-form --variant
# distinct (40,2) with --out, 11 s; bracket --check-jacobi on the m1 n=12
# tensor with --m-size 2, 9 s; verify on the distinct (16,2) tensor (8,640
# nonzeros), 5 s. Cost also grows with the size of the rational entries,
# which no limit bounds.
MAX_DIMENSION = 800  # construct, cocycle: basis dimension n(n-m)
MAX_CLOSED_FORM_N = 40  # closed-form: n
MAX_GENERATORS = 100  # bracket: generators n * m_size^2
MAX_BRACKET_TERMS = 10_000  # bracket: tensor nonzeros * m_size^4
MAX_TENSOR_NONZEROS = 10_000  # verify, transform: nonzeros of the checked tensor


def _check_limit(what: str, size: int, limit: int) -> None:
    if size > limit:
        raise ValueError(f"{what} = {size} exceeds the limit of {limit}")


def _parse_lambda(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} lambda values, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _check_dimension(args) -> None:
    if 0 < args.m < args.n:
        _check_limit("basis dimension n(n-m)", args.n * (args.n - args.m), MAX_DIMENSION)


def _lambda(args) -> LambdaSpec:
    return LambdaSpec(args.n, args.m, _parse_lambda(args.lam, args.n))


def _lambda_inputs(lam: LambdaSpec) -> dict:
    return {"n": lam.n, "m": lam.m, "lambda": [format_rational(v) for v in lam.values]}


def _write(outputs: dict[str, str], report: str, report_path: str | None) -> None:
    """Write every file or none, and the report to report_path, else stdout.
    Each text goes to a temporary file beside its target; the stdout report
    is written and flushed next, and the targets are replaced only once all
    of that has succeeded."""
    files = {**outputs, report_path: report} if report_path else outputs
    temps: list[Path] = []
    try:
        for k, (path, text) in enumerate(files.items()):
            temps.append(Path(f"{path}.{os.getpid()}-{k}.tmp"))
            temps[-1].write_text(text)
        if not report_path:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.write(report)
            sys.stdout.flush()
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _load_tensor(path: str) -> Tensor4:
    return Tensor4.loads(Path(path).read_text())


def _violation_items(violations) -> list[dict]:
    return [{"indices": list(key), "value": format_rational(v)} for key, v in violations]


def _tensor_checks(r: Tensor4) -> tuple[str, dict]:
    """The skew and residual checks as (verdict, details)."""
    rep = aybe_report(r)
    details = {
        "skew_violations": _violation_items(rep.skew_violations),
        "residual_violations": _violation_items(rep.residual_violations),
    }
    return ("pass" if rep.passed else "fail"), details


def cmd_construct(args) -> tuple:
    _check_dimension(args)
    lam = _lambda(args)
    inputs = {**_lambda_inputs(lam), "mode": lam.mode.value, "out": args.out}
    basis = build_basis(args.n, args.m)
    try:
        r = r_from_algebra(basis, lam)
    except DegenerateForm as exc:
        return inputs, "degenerate", {"gram_rank": exc.rank}, {}
    details = {"dimension": len(basis), "entries": r.nnz}
    return inputs, "pass", details, {args.out: r.dumps()}


def cmd_verify(args) -> tuple:
    r = _load_tensor(args.tensor)
    _check_limit("tensor nonzeros", r.nnz, MAX_TENSOR_NONZEROS)
    verdict, details = _tensor_checks(r)
    return {"tensor": args.tensor, "n": r.n}, verdict, details, {}


def cmd_closed_form(args) -> tuple:
    _check_limit("n", args.n, MAX_CLOSED_FORM_N)
    lam = _lambda(args)
    inputs = {
        "variant": args.variant,
        **_lambda_inputs(lam),
        "out": args.out,
        "compare": args.compare,
    }
    compared = _load_tensor(args.compare) if args.compare else None
    if compared is not None and compared.n != lam.n:
        raise ValueError(f"cannot compare tensors of dimension {lam.n} and {compared.n}")
    r = r_closed(args.variant, lam)
    diffs = compare_tensors(r, compared) if compared is not None else None
    details: dict = {"entries": r.nnz}
    if diffs is not None:
        details["differences"] = [
            {
                "indices": list(key),
                "closed_form": format_rational(v1),
                "compared": format_rational(v2),
            }
            for key, v1, v2 in diffs
        ]
    outputs = {args.out: r.dumps()} if args.out else {}
    return inputs, ("fail" if diffs else "pass"), details, outputs


def cmd_cocycle(args) -> tuple:
    _check_dimension(args)
    lam = _lambda(args)
    basis = build_basis(args.n, args.m)
    violations = cocycle_residual(basis, lam)
    details = {"dimension": len(basis), "violations": _violation_items(violations)}
    return _lambda_inputs(lam), ("fail" if violations else "pass"), details, {}


def cmd_bracket(args) -> tuple:
    r = _load_tensor(args.tensor)
    _check_limit("generators n * m_size^2", r.n * args.m_size**2, MAX_GENERATORS)
    _check_limit("tensor nonzeros * m_size^4", r.nnz * args.m_size**4, MAX_BRACKET_TERMS)
    lam = None
    if args.compare_closed_2m:
        if args.m_size != 1:
            raise ValueError("--compare-closed-2m applies to the scalar bracket only")
        if r.n % 2:
            raise ValueError("--compare-closed-2m requires even n")
        if args.lam is None:
            raise ValueError("--compare-closed-2m requires --lambda")
        lam = LambdaSpec(r.n, r.n // 2, _parse_lambda(args.lam, r.n))
        if len(set(lam.values)) != lam.n:
            raise ValueError("lambda values must be pairwise distinct")
    inputs = {
        "tensor": args.tensor,
        "m_size": args.m_size,
        "check_jacobi": bool(args.check_jacobi),
        "out": args.out,
    }
    skew = check_skew(r)
    if skew:
        return inputs, "fail", {"skew_violations": _violation_items(skew)}, {}
    if args.m_size == 1:
        bracket = scalar_bracket_from_r(r)
    else:
        bracket = matrix_bracket_from_r(r, args.m_size)
    outputs = {}
    if args.out:
        outputs[args.out] = json.dumps(bracket_to_json(bracket), indent=2) + "\n"
    details = {"generators": bracket.n_gens, "nonzero_pairs": len(bracket.pairs())}
    verdict = "pass"
    if args.check_jacobi:
        violations = jacobi_residual(bracket)
        details["jacobi_violations"] = [
            {"triple": list(t), "residual": poly.to_json_obj()}
            for t, poly in violations
        ]
        if violations:
            verdict = "fail"
    if lam is not None:
        inputs["lambda"] = [format_rational(v) for v in lam.values]
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
    return inputs, verdict, details, outputs


def cmd_transform(args) -> tuple:
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
            return inputs, "degenerate", {"g_rank": exc.rank}, {}
    _check_limit("transformed tensor nonzeros", out.nnz, MAX_TENSOR_NONZEROS)
    verdict, checks = _tensor_checks(out)
    return inputs, verdict, {"entries": out.nnz, **checks}, {args.out: out.dumps()}


def _add_lambda_args(p: argparse.ArgumentParser, m_default: int | None = None) -> None:
    """--n, --m and --lambda; --m is required unless it has a default."""
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=m_default is None, default=m_default)
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated rationals")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """Every command's options, or only those of the command named; the
    others keep the name and summary that top-level help and errors show."""
    # argparse reads the terminal size for the formatter that each
    # add_argument builds; read it once per build instead.
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="aybe",
        description=(
            "Construct, verify, and transform skew-symmetric constant solutions "
            "of the associative Yang-Baxter equation, and derive the induced "
            "quadratic Poisson brackets."
        ),
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        wanted = only in (None, name)
        p = sub.add_parser(name, help=summary, formatter_class=formatter, add_help=wanted)
        p.set_defaults(fn=fn)
        if not wanted:
            return None
        p.add_argument("--report", default=None, help="write the report here instead of stdout")
        return p

    if p := command("construct", cmd_construct, "build the tensor from the matrix algebra"):
        _add_lambda_args(p)
        p.add_argument("--out", required=True, help="tensor JSON output path")

    if p := command("verify", cmd_verify, "run the skew and residual checks on a tensor file"):
        p.add_argument("tensor")

    if p := command("closed-form", cmd_closed_form,
                    "emit a closed-form tensor, optionally comparing"):
        p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
        _add_lambda_args(p, m_default=1)
        p.add_argument("--out", default=None)
        p.add_argument("--compare", default=None, help="tensor file to diff against")

    if p := command("cocycle", cmd_cocycle, "check the cyclic identity over all basis triples"):
        _add_lambda_args(p)

    if p := command("bracket", cmd_bracket, "derive the quadratic bracket from a tensor file"):
        p.add_argument("tensor")
        p.add_argument("--m-size", type=int, default=1, help="matrix size of the generators")
        p.add_argument("--check-jacobi", action="store_true")
        p.add_argument("--compare-closed-2m", action="store_true",
                       help="compare the scalar bracket against the printed two-block formula")
        p.add_argument("--lambda", dest="lam", default=None, help="lambda for --compare-closed-2m")
        p.add_argument("--out", default=None, help="bracket JSON output path")

    if p := command("transform", cmd_transform, "apply a basis change or the transpose dual"):
        p.add_argument("tensor")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--g", default=None, help="matrix JSON file for the basis change")
        group.add_argument("--transpose-dual", action="store_true")
        p.add_argument("--out", required=True)

    return parser


def _check_output_paths(args) -> None:
    """Reject paths that cannot be written as files, and an output that
    names an input or the other output, before any work, so a failed run
    leaves every file as it was."""
    inputs = {"tensor": getattr(args, "tensor", None), "--g": getattr(args, "g", None),
              "--compare": getattr(args, "compare", None)}
    outputs = {"--out": getattr(args, "out", None), "--report": args.report}
    named: dict[str, str] = {}  # real path -> the first argument naming it
    for name, path in [*inputs.items(), *outputs.items()]:
        if path is None:
            continue
        real = os.path.realpath(path)
        if name in outputs:
            if Path(path).is_dir():
                raise ValueError(f"output path is a directory: {path!r}")
            if not Path(path).parent.is_dir():
                raise ValueError(f"output directory does not exist: {path!r}")
            if real in named:
                raise ValueError(f"{named[real]} and {name} name the same file: {path!r}")
        named.setdefault(real, name)


def _glue_negative_lambda(argv: list[str]) -> list[str]:
    """Rewrite `--lambda -1,0,1` as `--lambda=-1,0,1`; argparse would read
    the leading `-<digit>` value as an option and reject it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--lambda" and re.match(r"-[0-9]", arg):
            out[-1] = f"--lambda={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _glue_negative_lambda(sys.argv[1:] if argv is None else argv)
    # no top-level option takes a value, so the first non-option is the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        _check_output_paths(args)
        t0 = time.perf_counter()
        inputs, verdict, details, outputs = args.fn(args)
        report = {
            "command": args.command,
            "inputs": inputs,
            "verdict": verdict,
            "details": details,
            "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        _write(outputs, json.dumps(report, indent=2) + "\n", args.report)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"aybe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
