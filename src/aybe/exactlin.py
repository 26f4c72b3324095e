"""Exact rational scalars and rational matrix algebra.

Every scalar in the package is a ``fractions.Fraction``; nothing here or
downstream ever rounds. The text form for rationals is "p/q" with q >= 2,
or just "p" when the denominator is 1. Matrices are dense; determinant,
rank and inverse share one Gauss-Jordan elimination on sparse rows.
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


def _reduce(a: RatMatrix) -> tuple[Fraction, list[dict[int, Fraction]], dict[int, int]]:
    """Gauss-Jordan elimination of the square matrix [a | I] on sparse rows
    (dicts of nonzero entries), so the work follows the largest block of a
    matrix that is block-diagonal up to permutation. A column's pivot is the
    first row not yet pivoted that is nonzero there; a column without one
    is skipped, so len(pivots) is the rank. Returns (determinant, rows,
    pivots: column -> row). Bringing the pivot row to the front of the rows
    not yet pivoted is a cyclic shift: the sign flips at an odd position.
    """
    n = a.rows
    rows = [{j: v for j, v in enumerate(row) if v} for row in a._e]
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
    free = list(range(n))
    pivots: dict[int, int] = {}
    det = Fraction(1)
    for col in range(n):
        pos = next((k for k, i in enumerate(free) if col in rows[i]), None)
        if pos is None:
            det = Fraction(0)
            continue
        p = free.pop(pos)
        pivot = rows[p][col]
        det *= -pivot if pos % 2 else pivot
        prow = rows[p] = {j: v / pivot for j, v in rows[p].items()}
        for i, row in enumerate(rows):
            f = row.get(col)
            if f and i != p:
                for j, v in prow.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots[col] = p
    return det, rows, pivots


def determinant(a: RatMatrix) -> Fraction:
    """Exact determinant by sparse Gauss-Jordan elimination (see _reduce)."""
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    return _reduce(a)[0]


def mat_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse by sparse Gauss-Jordan elimination of [a | I].

    Raises SingularMatrix (with the rank found) when a has no inverse;
    that is the degeneracy signal used by the bilinear-form pipeline.
    """
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    _, rows, pivots = _reduce(a)
    if len(pivots) < n:
        raise SingularMatrix(len(pivots))
    inverse_rows = [rows[pivots[c]] for c in range(n)]
    return RatMatrix([[row.get(n + k, 0) for k in range(n)] for row in inverse_rows])


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
