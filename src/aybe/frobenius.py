"""The column-residue matrix algebras, their trace bilinear form, and the
tensor built from the inverse Gram matrix.

For a proper divisor m of n, the algebra consists of all n x n matrices
whose entries in every column sum to zero over each residue class mod m.
It is n(n-m)-dimensional, with basis elements

    e_{i,j} = E_{i,j} - E_{bar(i,j), j},   block(i) != block(j),

where bar(i,j) keeps i's residue mod m but takes j's block. The bilinear
form is (x, y) = tr([x, y] diag(lambda_0, ..., lambda_{n-1})); it is a
cyclic 2-cocycle for any lambda, and non-degenerate exactly when lambda
is pairwise distinct within each residue class mod m.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction

import aybe.exactlin
from aybe.exactlin import RatMatrix, _inverse_rows, common_denominator
from aybe.tensor import Tensor4, _from_keys

__all__ = [
    "LambdaSpec",
    "bar_index",
    "build_basis",
    "cocycle_residual",
    "r_from_algebra",
]


class LambdaSpec:
    """Parameter vector with its degeneracy pattern classified.

    `mode` is "DISTINCT" exactly when the values are pairwise distinct,
    for every m; "BLOCK" when lambda_i == lambda_j exactly when i and j
    share a block of m > 1 consecutive indices; "OTHER" otherwise. When
    m == 1 the two patterns coincide and DISTINCT is reported. The
    attributes are not meant to be reassigned: `mode` is not recomputed.
    """

    __slots__ = ("n", "m", "values", "mode")

    def __init__(self, n: int, m: int, values: Iterable):
        if m < 1 or m >= n or n % m != 0:
            raise ValueError(f"m={m} is not a proper divisor of n={n}")
        values = tuple(values)
        if len(values) != n:
            raise ValueError(f"expected {n} lambda values, got {len(values)}")
        self.n, self.m = n, m
        self.values = vals = tuple(Fraction(v) for v in values)
        if len(set(vals)) == n:
            self.mode = "DISTINCT"
        elif all((vals[i] == vals[j]) == (i // m == j // m) for i in range(n) for j in range(i + 1, n)):
            self.mode = "BLOCK"
        else:
            self.mode = "OTHER"

    def has_block_pattern(self) -> bool:
        """True when values are equal exactly within blocks, for any m."""
        return self.mode == ("DISTINCT" if self.m == 1 else "BLOCK")

    def require_distinct(self) -> None:
        if self.mode != "DISTINCT":
            raise ValueError("lambda values must be pairwise distinct")


make_lambda = LambdaSpec  # not public; bench/workloads.py is its last user
mat_inverse = aybe.exactlin.mat_inverse  # not called here; bench/tests/test_bench.py reads it


def bar_index(i: int, j: int, m: int) -> int:
    """The index with i's residue mod m and j's block."""
    return (j // m) * m + (i % m)


Entry = tuple[int, int, int | Fraction]  # (row, col, value) of a nonzero matrix entry


def build_basis(n: int, m: int) -> list[tuple[int, int, int]]:
    """All n(n-m) basis elements e_{i,j} as triples (i, j, bar), with
    bar = bar_index(i, j, m) != i, in (j, i) order."""
    if m < 1 or m >= n or n % m != 0:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    return [(i, j, bar_index(i, j, m)) for j in range(n) for i in range(n) if i // m != j // m]


def _entries(e: tuple[int, int, int]) -> tuple[Entry, Entry]:
    """The two nonzero entries of e_{i,j} = E_{i,j} - E_{bar,j}."""
    i, j, bar = e
    return ((i, j, 1), (bar, j, -1))


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
) -> list[dict[int, int | Fraction]]:
    """Row s holds the nonzero values (xs[s], ys[t]) of the form.

    tr([x, y] D) = sum x_{uv} y_{vu} (lambda_u - lambda_v): x and y pair
    only where an entry (u, v) of x meets an entry (v, u) of y, so each row
    is read off an index of ys by entry position and the work follows the
    nonzero pairings. With the values scaled to ints by L (as
    common_denominator scales them) and int entries, the rows are ints, L
    times the form's.
    """
    at: dict[tuple[int, int], list] = defaultdict(list)
    for t, y in enumerate(ys):
        for p, q, yv in y:
            at[(p, q)].append((t, yv))
    rows = []
    for x in xs:
        row: dict[int, int | Fraction] = defaultdict(int)
        for u, v, xv in x:
            d = values[u] - values[v]
            if d:
                for t, yv in at.get((v, u), ()):
                    row[t] += xv * yv * d
        rows.append({t: g for t, g in row.items() if g})
    return rows


def cocycle_residual(lam: LambdaSpec) -> list:
    """Nonzero values of (x, yz) + (y, zx) + (z, xy) over all basis triples.

    Expected empty for every lambda; degeneracy of the form does not
    affect the cyclic identity. e_j is multiplied only with the e_k that
    have a row at a column of e_j, read off an index by row; the nonzero
    products are paired with the basis, and each pairing (e_i, e_j e_k) is
    a term of the identity at the triples (i, j, k), (k, i, j) and (j, k, i).
    The pairings are ints, on lambda scaled by its common denominator L,
    added at the int key (i*N + j)*N + k and reduced as Fraction(v, L)
    only where a sum is nonzero.
    """
    items = [_entries(e) for e in build_basis(lam.n, lam.m)]
    size = len(items)
    sq = size * size
    by_row: dict[int, list[int]] = defaultdict(list)
    for k, z in enumerate(items):
        for row, _, _ in z:
            by_row[row].append(k)
    keys, prods = [], []  # prods[t] = e_j e_k, keys[t] = (j*N + k, k*N*N + j)
    for j, y in enumerate(items):
        for k in sorted({k for _, col, _ in y for k in by_row[col]}):
            yz = _product(y, items[k])
            if yz:
                keys.append((j * size + k, k * sq + j))
                prods.append(yz)
    lcm, values = common_denominator(list(lam.values))
    acc: dict[int, int | Fraction] = defaultdict(int)
    for i, row in enumerate(_pairings(items, prods, values)):
        for t, v in row.items():
            jk, kj = keys[t]
            acc[i * sq + jk] += v  # (i, j, k)
            acc[kj + i * size] += v  # (k, i, j)
            acc[jk * size + i] += v  # (j, k, i)
    out = []
    for key in sorted(k for k, v in acc.items() if v):
        ij, k = divmod(key, size)
        out.append((divmod(ij, size) + (k,), Fraction(acc[key], lcm)))
    return out


def r_from_algebra(lam: LambdaSpec) -> Tensor4:
    """Tensor r^{ab}_{cd} = sum g^{st} (e_s)^a_c (e_t)^b_d with g = G^{-1}.

    G is the Gram matrix of the form over build_basis(lam.n, lam.m). When
    G is singular, exactlin.SingularMatrix is raised with the Gram rank.

    The Gram rows are ints G' = L G, on lambda scaled by its common
    denominator L (or G's Fractions, with L = 1, when common_denominator
    keeps lambda's), so g = L G'^{-1}. exactlin._inverse_rows gives row s of
    G'^{-1} as x_s / a_s, with x_s ints and each row primitive, so
    M = lcm(a_s) is the common denominator of G'^{-1}. As basis entries are
    +-1, each x_s M / a_s adds +-itself at four int keys
    ((a*n + b)*n + c)*n + d, and each entry is reduced once, as v L / M.
    M is taken from common_denominator over the 1 / a_s, so when it is too
    wide the entries added are the Fractions x_s / a_s instead.
    """
    n = lam.n
    basis = build_basis(n, lam.m)
    items = [_entries(e) for e in basis]
    lcm, values = common_denominator(list(lam.values))
    rows = _inverse_rows(RatMatrix.from_rows(len(items), _pairings(items, items, values)))
    den, scales = common_denominator([Fraction(1, a) for a, _ in rows])
    # the key of (a, b, c, d) is left(a, c) + right(b, d): e_s gives a and c, e_t b and d
    nn = n * n
    left = [(i * nn * n + j * n, bar * nn * n + j * n) for i, j, bar in basis]
    right = [(i * nn + j, bar * nn + j) for i, j, bar in basis]
    acc: dict[int, int | Fraction] = defaultdict(int)
    for s, ((_, row), scale) in enumerate(zip(rows, scales)):
        p0, p1 = left[s]
        for t, g in row.items():
            g *= scale
            q0, q1 = right[t]
            acc[p0 + q0] += g
            acc[p0 + q1] -= g
            acc[p1 + q0] -= g
            acc[p1 + q1] += g
    return _from_keys(n, acc, Fraction(lcm, den))
