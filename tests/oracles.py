"""Shared test helpers: random inputs and dense oracles that the sparse
library code is checked against."""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from hypothesis import strategies as st

from aybe.exactlin import RatMatrix, SingularMatrix, mat_inverse
from aybe.frobenius import LambdaSpec, make_lambda
from aybe.tensor import Tensor4


def rand_fraction(rng: random.Random, bound: int = 10, max_den: int = 10, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_distinct_values(rng: random.Random, n: int, bound: int = 20) -> tuple:
    vals: list[Fraction] = []
    while len(vals) < n:
        f = rand_fraction(rng, bound=bound)
        if f not in vals:
            vals.append(f)
    return tuple(vals)


def rand_distinct_lambda(rng: random.Random, n: int, m: int):
    return make_lambda(n, m, rand_distinct_values(rng, n))


def rand_block_lambda(rng: random.Random, n: int, m: int):
    block_vals = rand_distinct_values(rng, n // m)
    return make_lambda(n, m, [block_vals[i // m] for i in range(n)])


def dense(n: int, entries) -> RatMatrix:
    """The n x n matrix with the given (row, col, value) entries, summed."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i, j, v in entries:
        grid[i][j] += v
    return RatMatrix(grid)


def rand_matrix(rng: random.Random, n: int) -> RatMatrix:
    return RatMatrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng: random.Random, n: int) -> RatMatrix:
    while True:
        g = rand_matrix(rng, n)
        try:
            mat_inverse(g)
        except SingularMatrix:
            continue
        return g


# --- dense oracles ------------------------------------------------------


def zeros(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)])


def identity(n: int) -> RatMatrix:
    return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def negative(a: RatMatrix) -> RatMatrix:
    return RatMatrix([[-v for v in a[i]] for i in range(a.rows)])


def leibniz(a: RatMatrix) -> Fraction:
    """Determinant as the signed sum over permutations."""
    total = Fraction(0)
    for perm in permutations(range(a.rows)):
        inversions = sum(x > y for x, y in combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def diagonal(values) -> RatMatrix:
    vals = list(values)
    return RatMatrix([[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))])


def commutator(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """xy - yx for square matrices of equal size."""
    if not x.is_square() or not y.is_square() or x.rows != y.rows:
        raise ValueError("commutator needs square matrices of equal size")
    n = x.rows
    xs, ys = [x[i] for i in range(n)], [y[i] for i in range(n)]
    return RatMatrix(
        [
            [sum((xs[i][k] * ys[k][j] - ys[i][k] * xs[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    )


def trace(a: RatMatrix) -> Fraction:
    if not a.is_square():
        raise ValueError("trace needs a square matrix")
    return sum((a[i][i] for i in range(a.rows)), Fraction(0))


def form_eval(x: RatMatrix, y: RatMatrix, lam) -> Fraction:
    """(x, y) = tr([x, y] diag(lambda)) = sum x_uv y_vu (lambda_u - lambda_v),
    summed over every index pair."""
    n = lam.n
    if not x.is_square() or x.rows != n or y.rows != n or y.cols != n:
        raise ValueError(f"form needs {n}x{n} matrices")
    vals, xs, ys = lam.values, [x[u] for u in range(n)], [y[v] for v in range(n)]
    return sum(
        (xs[u][v] * ys[v][u] * (vals[u] - vals[v]) for u in range(n) for v in range(n) if xs[u][v]),
        Fraction(0),
    )


def gram_dense(mats, lam) -> RatMatrix:
    """The Gram matrix of the form over the given matrices, pair by pair."""
    return RatMatrix([[form_eval(x, y, lam) for y in mats] for x in mats])


def r_from_matrices(mats, lam) -> Tensor4:
    """r^{ab}_{cd} = sum g^{st} (e_s)^a_c (e_t)^b_d with g the inverse of the
    dense Gram matrix over the given matrices; raises SingularMatrix, with
    the Gram rank, when the form is degenerate on them."""
    n = lam.n
    ginv = mat_inverse(gram_dense(mats, lam))
    acc: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for s, t, g in ginv.nonzero_items():
        for a, c, va in mats[s].nonzero_items():
            for b, d, vb in mats[t].nonzero_items():
                acc[(a, b, c, d)] += g * va * vb
    return Tensor4(n, acc)


def membership_check(a: RatMatrix, n: int, m: int) -> bool:
    """True when every column sums to zero over each residue class mod m."""
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    for j in range(n):
        for res in range(m):
            if sum((a[i][j] for i in range(res, n, m)), Fraction(0)):
                return False
    return True


def _class_prod(vals, pivot: Fraction, idx: int, m: int) -> Fraction:
    # product of (pivot - l_k) over k congruent to idx mod m, k != idx
    return prod(
        (pivot - vals[k] for k in range(idx % m, len(vals), m) if k != idx),
        start=Fraction(1),
    )


def r_closed_distinct_reference(lam: LambdaSpec) -> Tensor4:
    """The distinct-lambda family evaluated quadruple by quadruple over all
    n^4 index quadruples, in the precedence of r_closed_distinct's cases,
    with P(a,b,c,d) the ratio of class products

        [prod_{c'~c, c'!=c}(l_a - l_{c'}) * prod_{d'~d, d'!=d}(l_b - l_{d'})]
      / [prod_{a'~a, a'!=a}(l_a - l_{a'}) * prod_{b'~b, b'!=b}(l_b - l_{b'})]

    recomputed for each quadruple."""
    if len(set(lam.values)) != lam.n:
        raise ValueError("lambda values must be pairwise distinct")
    n, m = lam.n, lam.m
    vals = lam.values

    def ratio(a: int, b: int, c: int, d: int) -> Fraction:
        num = _class_prod(vals, vals[a], c, m) * _class_prod(vals, vals[b], d, m)
        den = _class_prod(vals, vals[a], a, m) * _class_prod(vals, vals[b], b, m)
        return num / den

    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a, b, c, d in product(range(n), repeat=4):
        if (a - d) % m or (b - c) % m:
            continue
        if a == b:
            if d == a and c != a:
                v = 1 / (vals[a] - vals[c])
            elif c == a and d != a:
                v = -1 / (vals[a] - vals[d])
            else:
                continue
        elif c == b and d == a:
            v = (ratio(a, b, b, a) - 1) / (vals[a] - vals[b])
        else:
            v = ratio(a, b, c, d) / (vals[a] - vals[b])
        if v:
            entries[(a, b, c, d)] = v
    return Tensor4(n, entries)


def negate(r: Tensor4) -> Tensor4:
    return Tensor4(r.n, {k: -v for k, v in r.iter_items()})


def unrelated_denominators(count: int) -> list[int]:
    """2000-digit denominators 10^1999 k + 1, k = 1..count: two of them share
    at most a factor dividing the difference of their k, so their LCM has
    about count times the bits of the largest."""
    return [10**1999 * k + 1 for k in range(1, count + 1)]


def _coefficient(k):
    """Where the value at k, or at its skew partner, lands in a bracket
    table: the lower pair in increasing order and the unordered upper pair."""
    a, b, c, d = k if k[2] < k[3] else (k[1], k[0], k[3], k[2])
    return min(a, b), max(a, b), c, d


@st.composite
def mixed_denominator_skew_tensor(draw):
    """(r, unrelated): a skew tensor at n <= 3 whose values have 30-bit and
    2000-digit denominators. Lower index pairs are distinct and each skew
    pair lands in bracket coefficients of its own, so the scalar and matrix
    bracket tables carry exactly the tensor's values.

    unrelated: one skew pair for each of five unrelated_denominators, so
    the LCM runs far past the largest denominator and
    exactlin.common_denominator keeps the Fractions. Otherwise up to three
    30-bit denominators and at most one 2000-digit one: the LCM stays near
    the largest and the checks run on integers.
    """
    unrelated = draw(st.booleans())
    if unrelated:
        n, dens = 3, unrelated_denominators(5)
    else:
        n = draw(st.integers(min_value=2, max_value=3))
        dens = draw(st.lists(st.integers(2**29, 2**30), min_size=1, max_size=3))
        dens += draw(st.lists(st.integers(10**1999, 10**2000), max_size=1))
    idx = st.integers(min_value=0, max_value=n - 1)
    keys = draw(
        st.lists(
            st.tuples(idx, idx, idx, idx).filter(lambda k: k[2] != k[3]),
            min_size=len(dens) if unrelated else 1,
            max_size=len(dens) if unrelated else 3,
            unique_by=_coefficient,
        )
    )
    num = st.integers(min_value=1, max_value=2**40)
    entries = {}
    for (a, b, c, d), den in zip(keys, dens * len(keys)):
        v = Fraction(draw(num) * draw(st.sampled_from((-1, 1))), den)
        entries[(a, b, c, d)] = v
        entries[(b, a, d, c)] = -v
    return Tensor4(n, entries), unrelated
