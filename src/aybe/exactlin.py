"""Exact rational scalars and rational matrix algebra.

Every scalar in the package is a ``fractions.Fraction``; nothing here or
downstream ever rounds. The text form for rationals is "p/q" with q >= 2,
or just "p" when the denominator is 1. Matrices are sparse rows (a dict
of the nonzero entries per row); rank and inverse come from one
Gauss-Jordan elimination on them. Loops that only add up products of
rationals run on integers instead, scaled by a common denominator
(`common_denominator`).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "SingularMatrix",
    "parse_rational",
    "format_rational",
    "common_denominator",
    "RatMatrix",
    "mat_mul",
    "mat_inverse",
    "matrix_to_json",
    "matrix_from_json",
]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")
_ZERO = Fraction(0)

# Exact values outgrow Python's 4300-digit int/str limit (a residual
# squares its entries), so importing this module lifts it for the whole
# process. Parsing a literal costs time quadratic in its digits, so it
# stays bounded by the input's size. Before 3.10.7: no limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class SingularMatrix(Exception):
    """Raised when a matrix has no inverse; carries the rank that was found."""

    def __init__(self, rank: int):
        super().__init__(f"singular matrix of rank {rank}")
        self.rank = rank


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction. Decimal input is rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Canonical text form: reduced, positive denominator, no "/1"."""
    return str(value)


def common_denominator(values: list[Fraction]) -> tuple[int, list]:
    """(L, [v * L for v in values]) with L the LCM of the denominators, so
    every scaled value is an int and a sum of products of two of them is
    exactly L^2 times the rational sum.

    When the denominators share too little for L to stay small (its bit
    length past 4 * max_den_bits + 64), the integers would cost more than
    the Fractions they replace: every product grows with L and every
    nonzero sum is reduced against L^2. The values then come back
    unchanged with L = 1, and the caller's loop runs on Fractions.
    """
    dens = {v.denominator for v in values}
    limit = 4 * max((d.bit_length() for d in dens), default=0) + 64
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

    def nonzero_items(self) -> Iterator[tuple[int, int, Fraction]]:
        """(row, column, value) of every nonzero entry, in row-major order."""
        for i, row in enumerate(self.sparse_rows):
            for j in sorted(row):
                yield i, j, row[j]


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product."""
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


def _reduce(a: RatMatrix) -> tuple[list[dict[int, Fraction]], dict[int, int]]:
    """Gauss-Jordan elimination of the square matrix [a | I] on sparse rows
    (dicts of nonzero entries), with an index of the rows nonzero in each
    column, so the pivot search and the elimination touch only those rows
    and the work follows the largest block of a matrix that is
    block-diagonal up to permutation. A column's pivot is the first row not
    yet pivoted that is nonzero there; a column without one is skipped, so
    len(pivots) is the rank. Returns (rows, pivots: column -> row).
    """
    n = a.rows
    rows = [dict(row) for row in a.sparse_rows]
    holds: list[set[int]] = [set() for _ in range(2 * n)]  # column -> rows nonzero there
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
        for j in row:
            holds[j].add(i)
    done: set[int] = set()
    pivots: dict[int, int] = {}
    for col in range(n):
        p = min(holds[col] - done, default=None)
        if p is None:
            continue
        done.add(p)
        pivot = rows[p][col]
        prow = rows[p] = {j: v / pivot for j, v in rows[p].items()}
        for i in holds[col] - {p}:
            row = rows[i]
            f = row[col]
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                    holds[j].add(i)
                else:
                    del row[j]
                    holds[j].discard(i)
        pivots[col] = p
    return rows, pivots


def mat_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse by sparse Gauss-Jordan elimination of [a | I].

    Raises SingularMatrix (with the rank found) when a has no inverse;
    that is the degeneracy signal used by the bilinear-form pipeline.
    """
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    rows, pivots = _reduce(a)
    if len(pivots) < n:
        raise SingularMatrix(len(pivots))
    return RatMatrix.from_rows(
        n, ({k - n: v for k, v in rows[pivots[c]].items() if k >= n} for c in range(n))
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
