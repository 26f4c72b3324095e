"""Command-line front door: construct, verify, closed-form, cocycle,
bracket, transform.

Each `cmd_*` maps the parsed arguments to (inputs, verdict, details,
outputs). `main` alone times it, builds the JSON report (deterministic
apart from `timing_ms`), writes it and the outputs, and maps the verdict to
the exit code: 0 pass, 1 fail, 3 degenerate. Exit 2 is a usage, parse or
write error, or a size past one of the `MAX_*` limits. Exit 4 is an
internal error: any other exception a command raises, a fault in the
program rather than a verdict on the input. Files go through temporary
files, renamed into place only after the stdout report is written, so a
run that exits 2 or 4 leaves no file behind.

The `COMMANDS` table declares each command's options as data, and each
`main` call reads its arguments afresh from it, on one of two paths. A
well-formed call (the command, then only its own options, spelled out and
each given once, and its positional) is read from the table directly: no
parser is built, and `argparse` is not imported. Any other argv (help,
abbreviations, repeats, `--`, bad values, stray arguments, a missing or
unknown command) goes to the full argparse tree built from the same table
(`build_parser()`: a top-level parser and one subparser per command).
Both paths read a call alike, and help and error texts and exit codes come
from the tree alone. Reports and bracket files are written by `_json_text`,
byte for byte as json.dumps(..., indent=2).
"""

from __future__ import annotations

import errno
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from stat import S_ISDIR, S_ISREG
from types import SimpleNamespace

from aybe.closedform import VARIANTS, r_closed
from aybe.exactlin import (
    SingularMatrix,
    format_rational,
    load_json,
    matrix_from_json,
    parse_rational,
)
from aybe.frobenius import LambdaSpec, cocycle_residual, r_from_algebra
from aybe.poisson import (
    NotSkewSymmetric,
    bracket_to_json,
    compare_to_closed_2m,
    jacobi_residual,
    matrix_bracket_from_r,
    terms_json,
)
from aybe.tensor import (
    Tensor4,
    aybe_residual,
    check_skew,
    compare_tensors,
    gl_transform,
    transpose_dual,
)

EXIT_USAGE = 2
EXIT_INTERNAL = 4  # an unexpected exception: never 0 or 1, which are verdicts
EXIT_CODES = {"pass": 0, "fail": 1, "degenerate": 3}

# Size limits (exit 2), checked before any work; bracket's and verify's on the
# tensor read, and verify's before the residual join (MAX_JOIN_PRODUCTS in
# aybe.tensor); transform's on the tensor read, on the shape of --g before any
# entry is converted, before each gl_transform pass (tensor.MAX_PASS_PRODUCTS),
# then verify's on its output. The slowest shapes each limit accepts take, on 2
# vCPUs: construct (28,2), one Gram component half the basis, 1.4 s (0.4 s the
# Gram inverse); closed-form --variant distinct (40,2) with --out, 3 s; bracket
# --check-jacobi on the distinct (16,2) tensor, scalar, 2.1 s; verify on the
# first 7,000 one-digit entries of n = 10 (4,900,000 join products), 8 s, 700 MB;
# transform, a refusal included, 0.8 s before the checks on its output. Cost
# also grows with the size of the rational entries, which no limit bounds.
MAX_DIMENSION = 800  # construct, cocycle: basis dimension n(n-m)
MAX_CLOSED_FORM_N = 40  # closed-form: n
# transform: n. construct writes no larger tensor (m divides n, so
# n(n-m) >= n^2 / 2), and closed-form none either.
MAX_TRANSFORM_N = MAX_CLOSED_FORM_N
MAX_GENERATORS = 100  # bracket: generators n * m_size^2
MAX_BRACKET_TERMS = 10_000  # bracket: tensor nonzeros * m_size^4
MAX_TENSOR_NONZEROS = 10_000  # verify, transform: nonzeros of each tensor
# Every input file (tensor, --compare, --g), checked before it is parsed:
# 800 bytes per admitted nonzero. An entry as Tensor4.dumps lays it out
# takes about 125 bytes besides its value, and the distinct (24,2) tensor
# (42,528 nonzeros, 6.4 MB) still reads, so that MAX_BRACKET_TERMS and
# MAX_TENSOR_NONZEROS, not the byte count, say why it is refused. Reading
# a tensor file at this limit takes 0.5-0.6 s with 61,528 one-digit
# entries, 0.64 s with 1,834 distinct values of 4,299 digits, and 0.54 s
# with four values at exactlin.MAX_LITERAL_CHARS, the most that
# exactlin.LITERAL_BUDGET admits (int() costs time quadratic in a
# literal's length); 66 such values, which fit in this limit, would take
# 8.2 s, and are refused before any is parsed.
MAX_INPUT_BYTES = 800 * MAX_TENSOR_NONZEROS


def _check_limit(what: str, size: int, limit: int) -> None:
    if size > limit:
        raise ValueError(f"{what} = {size} exceeds the limit of {limit}")


def _check_dimension(args) -> None:
    if 0 < args.m < args.n:
        _check_limit("basis dimension n(n-m)", args.n * (args.n - args.m), MAX_DIMENSION)


def _lambda(args) -> LambdaSpec:
    return LambdaSpec(args.n, args.m, map(parse_rational, args.lam.split(",")))


def _lambda_inputs(lam: LambdaSpec) -> dict:
    return {"n": lam.n, "m": lam.m, "lambda": [format_rational(v) for v in lam.values]}


_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2) for the documents main writes: dicts with
    str keys, lists, str, int, bool, None and finite floats. With indent
    set, json.dumps runs its encoder in Python; this does less per value."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int or kind is float:
        return repr(obj)
    inner = newline + "  "
    if kind is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _LITERALS[obj]


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
        temps.clear()  # all renamed: nothing left to remove
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _read(path: str) -> str:
    """An input file's text. At most MAX_INPUT_BYTES + 1 bytes are read, so
    a larger file, or a device that never ends, is refused at that cost."""
    with open(path, "rb") as f:
        data = f.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"input file {path!r} exceeds the limit of {MAX_INPUT_BYTES} bytes")
    return data.decode()


def _load_tensor(path: str) -> Tensor4:
    return Tensor4.loads(_read(path))


def _violation_items(violations) -> list[dict]:
    return [{"indices": list(key), "value": format_rational(v)} for key, v in violations]


def _tensor_checks(r: Tensor4) -> tuple[str, dict]:
    """The skew and residual checks as (verdict, details)."""
    skew, residual = check_skew(r), aybe_residual(r)
    details = {
        "skew_violations": _violation_items(skew),
        "residual_violations": _violation_items(residual),
    }
    return ("fail" if skew or residual else "pass"), details


def cmd_construct(args) -> tuple:
    _check_dimension(args)
    lam = _lambda(args)
    inputs = {**_lambda_inputs(lam), "mode": lam.mode, "out": args.out}
    try:
        r = r_from_algebra(lam)
    except SingularMatrix as exc:
        return inputs, "degenerate", {"gram_rank": exc.rank}, {}
    details = {"dimension": lam.n * (lam.n - lam.m), "entries": r.nnz}
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
    violations = cocycle_residual(lam)
    details = {"dimension": lam.n * (lam.n - lam.m), "violations": _violation_items(violations)}
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
        lam = LambdaSpec(r.n, r.n // 2, map(parse_rational, args.lam.split(",")))
        lam.require_distinct()
    inputs = {
        "tensor": args.tensor,
        "m_size": args.m_size,
        "check_jacobi": bool(args.check_jacobi),
        "out": args.out,
    }
    try:
        bracket = matrix_bracket_from_r(r, args.m_size)
    except NotSkewSymmetric as exc:
        return inputs, "fail", {"skew_violations": _violation_items(exc.violations)}, {}
    outputs = {}
    if args.out:
        outputs[args.out] = _json_text(bracket_to_json(bracket)) + "\n"
    details = {"generators": bracket.n_gens, "nonzero_pairs": len(bracket.pairs())}
    verdict = "pass"
    if args.check_jacobi:
        violations = jacobi_residual(bracket)
        details["jacobi_violations"] = [
            {"triple": list(t), "residual": terms_json(bracket.n_gens, terms)}
            for t, terms in violations
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
    _check_limit("tensor nonzeros", r.nnz, MAX_TENSOR_NONZEROS)
    _check_limit("n", r.n, MAX_TRANSFORM_N)
    inputs = {
        "tensor": args.tensor,
        "g": args.g,
        "transpose_dual": bool(args.transpose_dual),
        "out": args.out,
    }
    if args.transpose_dual:
        out = transpose_dual(r)
    else:
        grid = load_json(_read(args.g))
        # the shape is checked before any entry is converted;
        # matrix_from_json refuses a grid or a row that is not a list
        if isinstance(grid, list) and (
            len(grid) != r.n or any(isinstance(row, list) and len(row) != r.n for row in grid)
        ):
            raise ValueError(f"basis change matrix must be {r.n}x{r.n}")
        g = matrix_from_json(grid)
        try:
            out = gl_transform(r, g)
        except SingularMatrix as exc:
            return inputs, "degenerate", {"g_rank": exc.rank}, {}
    _check_limit("transformed tensor nonzeros", out.nnz, MAX_TENSOR_NONZEROS)
    verdict, checks = _tensor_checks(out)
    return inputs, verdict, {"entries": out.nnz, **checks}, {args.out: out.dumps()}


# An option: (flag, dest, kind, default, help). kind is int, str, bool (a
# store-true flag) or a list of choices; the default REQUIRED makes the
# option required. A flag without "--" is the command's one positional
# argument. A tuple of options in place of one is a required group: exactly
# one of them must be given.
REQUIRED = object()
_REPORT = ("--report", "report", str, None, "write the report here instead of stdout")
_N = ("--n", "n", int, REQUIRED, None)
_LAMBDA = ("--lambda", "lam", str, REQUIRED, "comma-separated rationals")
_LAMBDA_OPTIONS = (_N, ("--m", "m", int, REQUIRED, None), _LAMBDA)
_TENSOR = ("tensor", "tensor", str, REQUIRED, None)

# name -> (command, summary in the top-level help, options besides --report)
COMMANDS = {
    "construct": (cmd_construct, "build the tensor from the matrix algebra", (
        *_LAMBDA_OPTIONS,
        ("--out", "out", str, REQUIRED, "tensor JSON output path"),
    )),
    "verify": (cmd_verify, "run the skew and residual checks on a tensor file", (_TENSOR,)),
    "closed-form": (cmd_closed_form, "emit a closed-form tensor, optionally comparing", (
        ("--variant", "variant", sorted(VARIANTS), REQUIRED, None),
        _N,
        ("--m", "m", int, 1, None),
        _LAMBDA,
        ("--out", "out", str, None, None),
        ("--compare", "compare", str, None, "tensor file to diff against"),
    )),
    "cocycle": (cmd_cocycle, "check the cyclic identity over all basis triples", _LAMBDA_OPTIONS),
    "bracket": (cmd_bracket, "derive the quadratic bracket from a tensor file", (
        _TENSOR,
        ("--m-size", "m_size", int, 1, "matrix size of the generators"),
        ("--check-jacobi", "check_jacobi", bool, False, None),
        ("--compare-closed-2m", "compare_closed_2m", bool, False,
         "compare the scalar bracket against the printed two-block formula"),
        ("--lambda", "lam", str, None, "lambda for --compare-closed-2m"),
        ("--out", "out", str, None, "bracket JSON output path"),
    )),
    "transform": (cmd_transform, "apply a basis change or the transpose dual", (
        _TENSOR,
        (("--g", "g", str, None, "matrix JSON file for the basis change"),
         ("--transpose-dual", "transpose_dual", bool, False, None)),
        ("--out", "out", str, REQUIRED, None),
    )),
}


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed call, read from the COMMANDS table
    alone, or None for any other argv. Well-formed: argv[0] names a
    command, and the rest holds only that command's exact long options, as
    `--x v` or `--x=v` (a flag without a value), each at most once, with no
    spaced value starting with "-" and no value "--"; its one positional,
    if it has one; every required option; and exactly one option of a
    required group. Values are converted and checked as argparse would, so
    the result equals build_parser().parse_args(argv); nothing is reported
    here: _parse hands any other argv to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, options = COMMANDS[argv[0]]
    flat, groups = [_REPORT], []
    for option in options:
        if isinstance(option[0], tuple):
            groups.append(option)
            flat.extend(option)
        else:
            flat.append(option)
    flags = {option[0]: option for option in flat if option[0].startswith("-")}
    positional = next((option for option in flat if option[0] not in flags), None)
    values: dict = {}  # dest -> value of each argument given
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if positional is None or positional[1] in values:
                return None
            values[positional[1]] = arg
            continue
        flag, eq, text = arg.partition("=")
        option = flags.get(flag)
        if option is None or option[1] in values:
            return None
        _, dest, kind, _, _ = option
        if kind is bool:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            text = next(rest, "-")
            if text.startswith("-"):
                return None
        elif text == "--":  # argparse reads `--x=--` as an empty list
            return None
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                return None
        elif kind is not str and text not in kind:
            return None
        values[dest] = text
    if any(sum(option[1] in values for option in group) != 1 for group in groups):
        return None
    for _, dest, _, default, _ in flat:
        if dest not in values:
            if default is REQUIRED:
                return None
            values[dest] = default
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def _add_option(p, flag: str, dest: str, kind, default, text: str | None) -> None:
    """One option of the COMMANDS table, added as argparse declares it."""
    if not flag.startswith("-"):
        p.add_argument(flag, help=text)
        return
    if kind is bool:
        p.add_argument(flag, dest=dest, action="store_true", help=text)
        return
    how = {"type": int} if kind is int else {} if kind is str else {"choices": kind}
    if default is REQUIRED:
        p.add_argument(flag, dest=dest, required=True, help=text, **how)
    else:
        p.add_argument(flag, dest=dest, default=default, help=text, **how)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="aybe",
        description=(
            "Construct, verify, and transform skew-symmetric constant solutions "
            "of the associative Yang-Baxter equation, and derive the induced "
            "quadratic Poisson brackets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        for option in (_REPORT, *options):
            if isinstance(option[0], tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in option:
                    _add_option(group, *member)
            else:
                _add_option(p, *option)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """A well-formed call is read from the COMMANDS table, with no parser
    built; any other argv (help, abbreviations, repeats, `--`, bad values,
    stray arguments, a missing or unknown command) goes to the full tree,
    which reads it or exits with its usage error."""
    args = _parse_well_formed(argv)
    return args if args is not None else build_parser().parse_args(argv)


def _check_output_paths(args) -> None:
    """Reject paths that cannot be written as files, and an output that
    names an input or the other output, before any work, so a failed run
    leaves every file as it was. An output must be a regular file or a
    free name in an existing directory: the rename would replace a FIFO or
    a device, or a symlink to one, with a regular file. An empty output
    path is refused. One stat answers for an existing output."""
    inputs = {"tensor": getattr(args, "tensor", None), "--g": getattr(args, "g", None),
              "--compare": getattr(args, "compare", None)}
    outputs = {"--out": getattr(args, "out", None), "--report": args.report}
    named: dict[str, str] = {}  # real path -> the first argument naming it
    for name, path in [*inputs.items(), *outputs.items()]:
        if path is None:
            continue
        real = os.path.realpath(path)
        if name in outputs:
            if not path:
                raise ValueError(f"output path is empty: {name}")
            try:
                mode = os.stat(path).st_mode
            except OSError as exc:
                if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
                    raise
                mode = None  # free, or a broken link the rename replaces
            if mode is None:
                # a trailing separator names a directory; Path("d/").parent is "."
                if path.endswith(os.sep) or not Path(path).parent.is_dir():
                    raise ValueError(f"output directory does not exist: {path!r}")
            elif S_ISDIR(mode):
                raise ValueError(f"output path is a directory: {path!r}")
            elif not S_ISREG(mode):
                raise ValueError(f"output path is not a regular file: {path!r}")
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
    args = _parse(_glue_negative_lambda(sys.argv[1:] if argv is None else argv))
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
        _write(outputs, _json_text(report) + "\n", args.report)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"aybe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"aybe: internal error in {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
