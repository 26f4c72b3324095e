"""Exact rational scalars and dense rational matrix algebra.

Every scalar in the package is a ``fractions.Fraction``; nothing here or
downstream ever rounds. The text form for rationals is "p/q" with q >= 2,
or just "p" when the denominator is 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "SingularMatrix",
    "parse_rational",
    "format_rational",
    "RatMatrix",
    "mat_mul",
    "commutator",
    "mat_inverse",
    "determinant",
    "trace",
    "matrix_to_json",
    "matrix_from_json",
]

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


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


class RatMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("rows have unequal lengths")
        self.rows = len(grid)
        self.cols = len(grid[0])
        self._e = grid

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable) -> "RatMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, i: int) -> tuple:
        return self._e[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self._e])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def nonzero_items(self) -> Iterator[tuple[int, int, Fraction]]:
        for i, row in enumerate(self._e):
            for j, v in enumerate(row):
                if v:
                    yield i, j, v

    def _require_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.transpose()
    return RatMatrix(
        [
            [sum(x * y for x, y in zip(row, col)) for col in bt._e]
            for row in a._e
        ]
    )


def commutator(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """xy - yx for square matrices of equal size."""
    if not x.is_square() or not y.is_square() or x.rows != y.rows:
        raise ValueError("commutator needs square matrices of equal size")
    return mat_mul(x, y) - mat_mul(y, x)


def trace(a: RatMatrix) -> Fraction:
    if not a.is_square():
        raise ValueError("trace needs a square matrix")
    return sum((a[i][i] for i in range(a.rows)), Fraction(0))


def determinant(a: RatMatrix) -> Fraction:
    """Exact determinant by the Bareiss recurrence over rationals.

    Pivot choice is the first nonzero entry scanning top-down; rows are
    swapped as needed and each swap flips the sign.
    """
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    m = [list(row) for row in a._e]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_k[k] * row_i[j] - lead * row_k[j]) / prev
            row_i[k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rank(a: RatMatrix) -> int:
    m = [list(row) for row in a._e]
    rank = 0
    for col in range(a.cols):
        pivot_row = next((i for i in range(rank, a.rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, a.rows):
            f = m[i][col] / pivot
            if f:
                for j in range(col, a.cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == a.rows:
            break
    return rank


def mat_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse via the Bareiss recurrence over rationals on [a | I],
    then back substitution.

    Raises SingularMatrix (with the rank found) when a has no inverse;
    that is the degeneracy signal used by the bilinear-form pipeline.
    """
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a._e)]
    width = 2 * n
    prev = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot_row is None:
            raise SingularMatrix(_rank(a))
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, n):
            row_i, row_k = aug[i], aug[k]
            lead = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_k[k] * row_i[j] - lead * row_k[j]) / prev
            row_i[k] = Fraction(0)
        prev = aug[k][k]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for k in reversed(range(n)):
        pivot = aug[k][k]
        for c in range(n):
            s = aug[k][n + c]
            for j in range(k + 1, n):
                s -= aug[k][j] * inv[j][c]
            inv[k][c] = s / pivot
    return RatMatrix(inv)


def matrix_to_json(a: RatMatrix) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in a._e]


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
