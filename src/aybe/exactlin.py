"""Exact rational scalars and rational matrix algebra.

Every scalar in the package is a ``fractions.Fraction``; nothing here or
downstream ever rounds. The text form for rationals is "p/q" with q >= 2,
or just "p" when the denominator is 1. Matrices are sparse rows (a dict
of the nonzero entries per row); rank and inverse come from one
fraction-free Gauss-Jordan elimination of [D a | D], with D the row
denominators, on rows of ints, and `mat_inverse` divides once per entry
of the inverse. Loops that only add up products of
rationals run on integers too, scaled by a common denominator
(`common_denominator`): the AYBE and Jacobi residuals, the cocycle
pairings, the tensor assembly from the inverse Gram matrix, and the
contraction passes of `gl_transform`.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable
from fractions import Fraction

__all__ = [
    "SingularMatrix",
    "MAX_LITERAL_CHARS",
    "LONG_LITERAL_CHARS",
    "LITERAL_BUDGET",
    "check_literals",
    "parse_rational",
    "load_json",
    "format_rational",
    "common_denominator",
    "RatMatrix",
    "mat_inverse",
    "matrix_to_json",
    "matrix_from_json",
]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")
_ZERO = Fraction(0)

# int() costs time quadratic in a literal's digits (Python 3.11, 2 vCPUs:
# 19 ms at 50,000 digits, 84 ms at 100,000, 119 ms at 120,000, 0.7 s at
# 300,000), so every literal read from input, a rational or a JSON
# integer, is refused past this many characters before int() sees it.
MAX_LITERAL_CHARS = 120_000
# A text may hold long literals (runs of at least LONG_LITERAL_CHARS digits,
# Python's default limit on int/str conversion) whose squared lengths sum
# to at most LITERAL_BUDGET: four literals at MAX_LITERAL_CHARS, about 0.5 s
# of int(). Shorter runs are left uncounted: an input file at its byte limit
# holds at most about 1,900 of them, about 0.3 s of int().
LONG_LITERAL_CHARS = 4300
LITERAL_BUDGET = 4 * MAX_LITERAL_CHARS**2


def _check_literal(length: int) -> None:
    if length > MAX_LITERAL_CHARS:
        raise ValueError(
            f"literal length = {length} characters exceeds the limit of {MAX_LITERAL_CHARS}"
        )


class SingularMatrix(Exception):
    """Raised when a matrix has no inverse; carries the rank that was found."""

    def __init__(self, rank: int):
        super().__init__(f"singular matrix of rank {rank}")
        self.rank = rank


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction. Decimal input is rejected, and
    so is a text longer than MAX_LITERAL_CHARS. format_rational has no
    such limit: the text of a larger computed value is refused here."""
    _check_literal(len(text))
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), den)


# A run of digits, with its leading "-", of at least LONG_LITERAL_CHARS
# characters. The lookbehind lets a match start only where a run starts, so
# one scan tries each run once.
_LONG_RUN_RE = re.compile(r"(?<![-0-9])[-0-9][0-9]{%d,}" % (LONG_LITERAL_CHARS - 1))


def check_literals(text: str) -> None:
    """Refuse a text with a run of digits (its "-" counted) longer than
    MAX_LITERAL_CHARS anywhere, or with long runs whose squared lengths sum
    past LITERAL_BUDGET, so that int() never takes long on its literals;
    such runs inside strings count too."""
    if len(text) <= MAX_LITERAL_CHARS:
        # no run fits past the limit, and runs within it sum to at most
        # MAX_LITERAL_CHARS * len(text) squared characters
        return
    total = 0
    for run in _LONG_RUN_RE.finditer(text):
        length = run.end() - run.start()
        _check_literal(length)
        total += length * length
        if total > LITERAL_BUDGET:
            raise ValueError(
                f"sum of squared literal lengths = {total} exceeds the limit of "
                f"{LITERAL_BUDGET} (4 * MAX_LITERAL_CHARS**2)"
            )


def load_json(text: str):
    """json.loads, after check_literals(text): no integer literal past the
    limits reaches int()."""
    check_literals(text)
    return json.loads(text)


def format_rational(value: Fraction) -> str:
    """Canonical text form: reduced, positive denominator, no "/1"."""
    return str(value)


# common_denominator admits any LCM of at most this many bits: products of
# integers this size stay a few machine words, far cheaper than Fractions.
LCM_FLOOR_BITS = 256


def common_denominator(values: list[Fraction]) -> tuple[int, list]:
    """(L, [v * L for v in values]) with L the LCM of the denominators, so
    every scaled value is an int and a sum of products of two of them is
    exactly L^2 times the rational sum.

    When the denominators share too little for L to stay small (its bit
    length past both 4 * max_den_bits + 64 and LCM_FLOOR_BITS), the
    integers would cost more than the Fractions they replace: every
    product grows with L and every nonzero sum is reduced against L^2. The
    values then come back unchanged with L = 1, and the caller's loop runs
    on Fractions.
    """
    dens = {v.denominator for v in values}
    limit = max(4 * max((d.bit_length() for d in dens), default=0) + 64, LCM_FLOOR_BITS)
    lcm = 1
    for d in dens:
        lcm = math.lcm(lcm, d)
        if lcm.bit_length() > limit:
            return 1, values
    factor = {d: lcm // d for d in dens}
    return lcm, [v.numerator * factor[v.denominator] for v in values]


class RatMatrix:
    """Immutable matrix of Fractions stored as sparse rows: `sparse_rows[i]`
    is a dict {column: value} of row i's nonzero entries (never mutated)."""

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, entries: Iterable[Iterable]):
        grid = [[Fraction(x) for x in row] for row in entries]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("rows have unequal lengths")
        self.rows = len(grid)
        self.cols = len(grid[0])
        self.sparse_rows = tuple({j: v for j, v in enumerate(row) if v} for row in grid)

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[dict[int, Fraction]]) -> "RatMatrix":
        """The matrix with the given sparse rows (at least one), taken as they are."""
        a = cls.__new__(cls)
        a.sparse_rows = tuple(rows)
        a.rows, a.cols = len(a.sparse_rows), cols
        return a

    def __getitem__(self, i: int) -> tuple:
        """Row i as a dense tuple."""
        row = self.sparse_rows[i]
        return tuple(row.get(j, _ZERO) for j in range(self.cols))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self[i]) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "RatMatrix":
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, v in row.items():
                out[j][i] = v
        return RatMatrix.from_rows(self.rows, out)

    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product; a test oracle, not public (bench/tracing.py traces it)."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for arow in a.sparse_rows:
        acc: dict[int, Fraction] = {}
        for k, x in arow.items():
            for j, y in b.sparse_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return RatMatrix.from_rows(b.cols, out)


def _inverse_rows(a: RatMatrix) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free Gauss-Jordan elimination of [D a | D] for the square
    matrix a, with D the diagonal of its row denominators (the LCM of each
    row's denominators; 1 for a row of ints), on sparse rows of ints (dicts
    of the nonzero entries, the right half at n + j).

    The pivot p of a column updates every other row nonzero there, with
    entry f, as row = (p/g) row - (f/g) prow for g = gcd(p, f), and the
    updated row is divided by the gcd of its entries (its content). Each
    row stays a nonzero multiple of the row that Gauss-Jordan elimination
    on Fractions holds, so the zero patterns, the pivots and the rank are
    the same. A column's pivot is the first row not yet pivoted that is
    nonzero there, and a column without one is skipped. An index of the
    rows nonzero in each column lets the pivot search and the updates
    touch only those rows, so the work follows the largest block of a
    matrix that is block-diagonal up to permutation.

    Returns, for each column c, (a_c, x_c): the pivot and the right half of
    its row, so row c of a^-1 is x_c / a_c. The row is primitive, so |a_c|
    is the LCM of the denominators of row c of a^-1. Raises SingularMatrix,
    with the rank found, when a has no inverse.
    """
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    rows: list[dict[int, int]] = []
    holds: list[set[int]] = [set() for _ in range(2 * n)]  # column -> rows nonzero there
    for i, row in enumerate(a.sparse_rows):
        d = math.lcm(*{v.denominator for v in row.values()})
        rows.append({j: v.numerator * (d // v.denominator) for j, v in row.items()})
        rows[i][n + i] = d
        for j in rows[i]:
            holds[j].add(i)
    done: set[int] = set()
    pivots: list[int] = []
    for col in range(n):
        p = min(holds[col] - done, default=None)
        if p is None:
            continue
        done.add(p)
        prow = rows[p]
        pivot = prow[col]
        for i in holds[col] - {p}:
            row = rows[i]
            f = row[col]
            g = math.gcd(pivot, f)
            s, t = pivot // g, f // g
            if s != 1:
                row = {j: s * v for j, v in row.items()}
            for j, v in prow.items():
                x = row.get(j, 0) - t * v
                if x:
                    row[j] = x
                    holds[j].add(i)
                else:
                    del row[j]
                    holds[j].discard(i)
            content = math.gcd(*row.values())
            rows[i] = {j: v // content for j, v in row.items()} if content != 1 else row
        pivots.append(p)
    if len(pivots) < n:
        raise SingularMatrix(len(pivots))
    return [
        (rows[p][c], {k - n: v for k, v in rows[p].items() if k >= n})
        for c, p in enumerate(pivots)
    ]


def mat_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse: row c is x_c / a_c from _inverse_rows, one division
    per nonzero entry.

    Raises SingularMatrix (with the rank found) when a has no inverse;
    that is the degeneracy signal used by the bilinear-form pipeline.
    """
    return RatMatrix.from_rows(
        a.rows, ({k: Fraction(v, p) for k, v in row.items()} for p, row in _inverse_rows(a))
    )


def matrix_to_json(a: RatMatrix) -> list[list[str]]:
    return [[format_rational(v) for v in a[i]] for i in range(a.rows)]


def matrix_from_json(obj) -> RatMatrix:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix JSON must be a non-empty list of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list) or not row:
            raise ValueError("matrix JSON rows must be non-empty lists")
        parsed = []
        for v in row:
            if isinstance(v, int) and not isinstance(v, bool):
                parsed.append(Fraction(v))
            elif isinstance(v, str):
                parsed.append(parse_rational(v))
            else:
                raise ValueError(f"matrix entries must be rational strings or ints, got {v!r}")
        rows.append(parsed)
    return RatMatrix(rows)
