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

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import prod

import aybe.exactlin
from aybe.exactlin import SingularMatrix, common_denominator
from aybe.tensor import Tensor4, _checked

__all__ = [
    "LambdaSpec",
    "bar_index",
    "build_basis",
    "cocycle_residual",
    "r_from_algebra",
]


def _check_divisor(n: int, m: int) -> None:
    if m < 1 or m >= n or n % m != 0:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")


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
        _check_divisor(n, m)
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
    _check_divisor(n, m)
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


def _gram_rank(n: int, m: int, counts: list[Counter]) -> int:
    """The rank of the Gram matrix, counted without elimination from
    counts[r], the multiset of lambda over residue class r.

    y is in the radical of the form exactly when (l_j - l_i) y_ij depends
    only on i and on j mod m, so the radical splits into m^2 blocks (r, t):
    rows i in class r against columns j in class t, each a Cauchy matrix
    [1 / (l_j - l_i)] plus a unit column for each equal pair l_i = l_j.
    With A = counts[r] and B = counts[t], the block's nullity is
    n/m - min(|set A|, |set B|) plus (A[x] - 1)(B[x] - 1) summed over the
    shared values x. Summed over the blocks, the last term is E_x^2 summed
    over the values, E_x the number of repeats of x over all classes."""
    sizes = [len(c) for c in counts]
    repeats = sum((c - Counter(c.keys()) for c in counts), Counter())
    nullity = n * m - sum(min(a, b) for a in sizes for b in sizes) + sum(k * k for k in repeats.values())
    return n * (n - m) - nullity


def r_from_algebra(lam: LambdaSpec) -> Tensor4:
    """Tensor r^{ab}_{cd} = sum g^{st} (e_s)^a_c (e_t)^b_d with g = G^{-1},
    G the Gram matrix of the form over build_basis(lam.n, lam.m), in
    closed form. G is invertible exactly when lambda is pairwise distinct
    within each residue class mod m; otherwise exactlin.SingularMatrix is
    raised with the Gram rank (_gram_rank). r is, in fixed precedence:

    1. zero unless a = d and b = c mod m;
    2. r^{aa}_{ea} = -r^{aa}_{ae} = w[a][e] for e ~ a, e != a;
    3. remaining upper-equal components are zero;
    4. r^{ab}_{ba} = (q[a][b] q[b][a] - 1) w[a][b] for a != b;
    5. r^{ab}_{cd} = q[a][c] q[b][d] w[a][b] otherwise,

    with ~ denoting congruence mod m and the per-pair tables

        P[a][c] = prod_{k~c, k!=c} (l_a - l_k),
        q[a][c] = P[a][c] / P[a][a],
        w[a][b] = 1 / (l_a - l_b).

    In a's own class q[a][c] is 1 at c = a and 0 elsewhere, so for a ~ b
    the only nonzeros are case 2, case 4 and case 5 at (a, b, a, b), each a
    w. In another class, where a k has l_k = l_a, q[a][c] is nonzero only
    at c = k; else P[a][c] = F / (l_a - l_c), F the product over the class.
    Where l_a = l_b across classes the factor l_a - l_b cancels: case 4 is
    the sum of w[b][k] over the k ~ b whose value no index ~ a has, less
    that over the k ~ a whose value no index ~ b has (none for a block
    lambda), and case 5 is w[b][c] at d = a, -w[a][d] at c = b, else zero.

    The tables are ints. Write l_k = p_k / (d_k L), with L the LCM from
    common_denominator and every d_k = 1, or L = 1 and d_k the denominators
    when it keeps lambda's Fractions; let e[a][k] = p_a d_k - p_k d_a and
    E[a][c] the product of e[a][k] over k ~ c, k != c. Then w[a][b] =
    d_a d_b L / e[a][b], and case 5 is X[a][c] X[b][d] L / (E[a][a] E[b][b]
    e[a][b]) with X[a][c] = E[a][c] d_c: one Fraction per entry, whose skew
    partner (b, a, d, c) is its negative.
    """
    n, m = lam.n, lam.m
    lcm, v = common_denominator(list(lam.values))
    counts = [Counter(v[r::m]) for r in range(m)]
    if any(len(c) < n // m for c in counts):
        raise SingularMatrix(_gram_rank(n, m, counts))
    p, d = [x.numerator for x in v], [x.denominator for x in v]
    e = [[pa * dk - pk * da for pk, dk in zip(p, d)] for pa, da in zip(p, d)]
    w: dict[tuple[int, int], Fraction] = {}  # w[a][k] for a ~ k
    for a in range(n):
        for k in range(a % m, a, m):
            w[a, k] = x = Fraction(d[a] * d[k] * lcm, e[a][k])
            w[k, a] = -x
    classes = [range(r, n, m) for r in range(m)]
    den, num = [1] * n, []  # den[a] = E[a][a]; num[a][r] = {c: X[a][c]} over the nonzeros in class r
    for a in range(n if m > 1 else 0):  # at m = 1 no entry reads them
        row = []
        for r, cls in enumerate(classes):
            t = e[a][r::m]
            f = prod(t)
            if f:
                row.append({c: f // x * d[c] for c, x in zip(cls, t)})
            else:
                k = t.index(0)
                t[k] = d[cls[k]]
                row.append({cls[k]: prod(t)})
        num.append(row)
        den[a] = row[a % m][a] // d[a]
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a in range(n):
        ra, same = a % m, classes[a % m]
        for b in range(n):
            rb, other = b % m, classes[b % m]
            if a != b and ra == rb:
                entries[a, b, b, a], entries[a, b, a, b] = w[b, a], w[a, b]
            elif not e[a][b]:  # b = a (case 2, both sums empty), or l_a = l_b across classes
                case4 = (sum(Fraction(d[b] * d[k] * lcm, e[b][k]) for k in other if v[k] not in counts[ra])
                         - sum(Fraction(d[b] * d[k] * lcm, e[b][k]) for k in same if v[k] not in counts[rb]))
                if case4:
                    entries[a, b, b, a] = case4
                entries.update({(a, b, k, a): w[b, k] for k in other if k != b})
                entries.update({(a, b, b, k): w[k, a] for k in same if k != a})
            elif a < b:  # (b, a) is written here too: a skew partner is the negative
                dd = den[a] * den[b]
                dab = dd * e[a][b]
                qac, qbd = num[a][rb], num[b][ra]
                for c, x in qac.items():
                    x *= lcm
                    for k, y in qbd.items():
                        if c != b or k != a:
                            entries[a, b, c, k] = z = Fraction(x * y, dab)
                            entries[b, a, k, c] = -z
                case4 = qac.get(b, 0) * qbd.get(a, 0) - dd * d[a] * d[b]
                if case4:
                    entries[a, b, b, a] = z = Fraction(case4 * lcm, dab)
                    entries[b, a, a, b] = -z
    return _checked(n, entries)
