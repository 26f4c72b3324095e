"""The column-residue matrix algebras, their trace bilinear form, and the
tensor built from the inverse Gram matrix.

For a proper divisor m of n, the algebra consists of all n x n matrices
whose entries in every column sum to zero over each residue class mod m.
It is n(n-m)-dimensional, with basis elements

    e_{i,j} = E_{i,j} - E_{bar(i,j), j},   block(i) != block(j),

where bar(i,j) keeps i's residue mod m but takes j's block. The bilinear
form is (x, y) = tr([x, y] diag(lambda_0, ..., lambda_{n-1})); it is a
cyclic 2-cocycle for any lambda, and non-degenerate in particular when
the lambda pattern matches the blocks or when all lambda are distinct.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from aybe.exactlin import RatMatrix, SingularMatrix, mat_inverse
from aybe.tensor import Tensor4

__all__ = [
    "LambdaMode",
    "LambdaSpec",
    "make_lambda",
    "BasisElement",
    "AlgebraBasis",
    "DegenerateForm",
    "bar_index",
    "build_basis",
    "cocycle_residual",
    "gram_matrix",
    "r_from_algebra",
    "r_from_matrices",
]


class LambdaMode(Enum):
    BLOCK = "BLOCK"
    DISTINCT = "DISTINCT"
    OTHER = "OTHER"


@dataclass(frozen=True)
class LambdaSpec:
    """Parameter vector with its degeneracy pattern classified.

    BLOCK means lambda_i == lambda_j exactly when i and j share a block of
    m consecutive indices; DISTINCT means all values pairwise distinct.
    When m == 1 the two patterns coincide and DISTINCT is reported. The
    mode is always recomputed from the values.
    """

    n: int
    m: int
    values: tuple[Fraction, ...]
    mode: LambdaMode = field(init=False)

    def __post_init__(self):
        if self.m < 1 or self.m >= self.n or self.n % self.m != 0:
            raise ValueError(f"m={self.m} is not a proper divisor of n={self.n}")
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} lambda values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        object.__setattr__(self, "mode", self._classify())

    def _classify(self) -> LambdaMode:
        vals = self.values
        distinct = len(set(vals)) == self.n
        if self.m == 1:
            return LambdaMode.DISTINCT if distinct else LambdaMode.OTHER
        block = all(
            (vals[i] == vals[j]) == (i // self.m == j // self.m)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )
        if block:
            return LambdaMode.BLOCK
        if distinct:
            return LambdaMode.DISTINCT
        return LambdaMode.OTHER

    def has_block_pattern(self) -> bool:
        """True when values are equal exactly within blocks, for any m."""
        if self.m == 1:
            return self.mode is LambdaMode.DISTINCT
        return self.mode is LambdaMode.BLOCK


def make_lambda(n: int, m: int, values: Iterable) -> LambdaSpec:
    return LambdaSpec(n, m, tuple(Fraction(v) for v in values))


class DegenerateForm(Exception):
    """The bilinear form is degenerate for the given lambda; carries the Gram rank."""

    def __init__(self, rank: int):
        super().__init__(f"bilinear form is degenerate (Gram rank {rank})")
        self.rank = rank


def bar_index(i: int, j: int, m: int) -> int:
    """The index with i's residue mod m and j's block."""
    return (j // m) * m + (i % m)


Entry = tuple[int, int, int | Fraction]  # (row, col, value) of a nonzero matrix entry


@dataclass(frozen=True)
class BasisElement:
    """e_{i,j} = E_{i,j} - E_{bar,j}, with bar = bar_index(i, j, m) != i."""

    i: int
    j: int
    bar: int

    @property
    def entries(self) -> tuple[Entry, Entry]:
        return ((self.i, self.j, 1), (self.bar, self.j, -1))


class AlgebraBasis:
    """Ordered basis e_{i,j} for the column-residue algebra, sorted by (j, i)."""

    def __init__(self, n: int, m: int, elements: Sequence[BasisElement]):
        self.n = n
        self.m = m
        self.elements = list(elements)
        self.index_of = {(e.i, e.j): k for k, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)


def build_basis(n: int, m: int) -> AlgebraBasis:
    """All n(n-m) basis elements, in (j, i) order."""
    if m < 1 or m >= n or n % m != 0:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    pairs = sorted(
        ((i, j) for i in range(n) for j in range(n) if i // m != j // m),
        key=lambda ij: (ij[1], ij[0]),
    )
    elements = [BasisElement(i, j, bar_index(i, j, m)) for (i, j) in pairs]
    return AlgebraBasis(n, m, elements)


def _product(x: Sequence[Entry], y: Sequence[Entry]) -> list[Entry]:
    """Nonzero entries of the matrix product xy."""
    acc: dict[tuple[int, int], int | Fraction] = defaultdict(int)
    for a, b, xv in x:
        for p, c, yv in y:
            if p == b:
                acc[(a, c)] += xv * yv
    return [(a, c, v) for (a, c), v in acc.items() if v]


def _pairings(
    xs: Sequence[Sequence[Entry]], ys: Sequence[Sequence[Entry]], values
) -> list[dict[int, Fraction]]:
    """Row s holds the nonzero values (xs[s], ys[t]) of the form.

    tr([x, y] D) = sum x_{uv} y_{vu} (lambda_u - lambda_v): x and y pair
    only where an entry (u, v) of x meets an entry (v, u) of y, so each row
    is read off an index of ys by entry position and the work follows the
    nonzero pairings.
    """
    at: dict[tuple[int, int], list] = defaultdict(list)
    for t, y in enumerate(ys):
        for p, q, yv in y:
            at[(p, q)].append((t, yv))
    rows = []
    for x in xs:
        row: dict[int, Fraction] = defaultdict(Fraction)
        for u, v, xv in x:
            d = values[u] - values[v]
            if d:
                for t, yv in at.get((v, u), ()):
                    row[t] += xv * yv * d
        rows.append({t: g for t, g in row.items() if g})
    return rows


def cocycle_residual(basis: AlgebraBasis, lam: LambdaSpec) -> list:
    """Nonzero values of (x, yz) + (y, zx) + (z, xy) over all basis triples.

    Expected empty for every lambda; degeneracy of the form does not
    affect the cyclic identity. e_j is multiplied only with the e_k that
    have a row at a column of e_j, read off an index by row; the nonzero
    products are paired with the basis, and each pairing (e_i, e_j e_k) is
    a term of the identity at the triples (i, j, k), (k, i, j) and (j, k, i).
    """
    if basis.n != lam.n:
        raise ValueError("basis and lambda dimensions differ")
    items = [e.entries for e in basis.elements]
    by_row: dict[int, list[int]] = defaultdict(list)
    for k, z in enumerate(items):
        for row, _, _ in z:
            by_row[row].append(k)
    pairs, prods = [], []
    for j, y in enumerate(items):
        for k in sorted({k for _, col, _ in y for k in by_row[col]}):
            yz = _product(y, items[k])
            if yz:
                pairs.append((j, k))
                prods.append(yz)
    acc: dict[tuple[int, int, int], Fraction] = defaultdict(Fraction)
    for i, row in enumerate(_pairings(items, prods, lam.values)):
        for t, v in row.items():
            j, k = pairs[t]
            acc[(i, j, k)] += v
            acc[(k, i, j)] += v
            acc[(j, k, i)] += v
    return sorted((key, v) for key, v in acc.items() if v)


def gram_matrix(basis: AlgebraBasis, lam: LambdaSpec) -> RatMatrix:
    """Matrix of the form over the basis ordering; antisymmetric."""
    if basis.n != lam.n:
        raise ValueError("basis and lambda dimensions differ")
    items = [e.entries for e in basis.elements]
    return RatMatrix.from_rows(len(items), _pairings(items, items, lam.values))


def _r_from_entries(items: Sequence[Sequence[Entry]], lam: LambdaSpec) -> Tensor4:
    try:
        ginv = mat_inverse(RatMatrix.from_rows(len(items), _pairings(items, items, lam.values)))
    except SingularMatrix as exc:
        raise DegenerateForm(exc.rank) from exc
    acc: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for s, t, g in ginv.nonzero_items():
        for a, c, va in items[s]:
            gva = g * va
            for b, d, vb in items[t]:
                acc[(a, b, c, d)] += gva * vb
    return Tensor4(lam.n, acc)


def r_from_matrices(mats: Sequence[RatMatrix], lam: LambdaSpec) -> Tensor4:
    """Tensor r^{ab}_{cd} = sum g^{st} (e_s)^a_c (e_t)^b_d with g = G^{-1}.

    G is the Gram matrix of the form over the given matrices. Raises
    DegenerateForm when G is singular.
    """
    return _r_from_entries([list(mat.nonzero_items()) for mat in mats], lam)


def r_from_algebra(basis: AlgebraBasis, lam: LambdaSpec) -> Tensor4:
    """The solution tensor for the algebra basis at the given lambda."""
    if basis.n != lam.n or basis.m != lam.m:
        raise ValueError("basis and lambda shapes differ")
    return _r_from_entries([e.entries for e in basis.elements], lam)
