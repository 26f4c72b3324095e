"""Shared test helpers: random inputs and dense oracles that the sparse
library code is checked against."""

import random
import re
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from hypothesis import strategies as st

from aybe.exactlin import RatMatrix, SingularMatrix, common_denominator, format_rational, mat_inverse
from aybe.frobenius import LambdaSpec, _entries, _pairings, bar_index, build_basis
from aybe.poisson import QuadraticBracket
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
    return LambdaSpec(n, m, rand_distinct_values(rng, n))


def rand_block_lambda(rng: random.Random, n: int, m: int):
    block_vals = rand_distinct_values(rng, n // m)
    return LambdaSpec(n, m, [block_vals[i // m] for i in range(n)])


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


def _nonzeros(a: RatMatrix) -> list[tuple[int, int, Fraction]]:
    """(row, column, value) of every nonzero entry of a."""
    return [(i, j, v) for i, row in enumerate(a.sparse_rows) for j, v in row.items()]


def mat_inverse_fractions(a: RatMatrix) -> RatMatrix:
    """exactlin.mat_inverse as Gauss-Jordan elimination of [a | I] on sparse
    rows of Fractions, each pivot row divided by its pivot: the oracle for
    the fraction-free elimination. It keeps the same pivot rule (the first
    row not yet pivoted that is nonzero in the column), so a singular a
    raises SingularMatrix with the same rank."""
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    rows = [{j: Fraction(v) for j, v in row.items()} for row in a.sparse_rows]
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
    if len(pivots) < n:
        raise SingularMatrix(len(pivots))
    return RatMatrix.from_rows(
        n, ({k - n: v for k, v in rows[pivots[c]].items() if k >= n} for c in range(n))
    )


def r_from_matrices(mats, lam) -> Tensor4:
    """r^{ab}_{cd} = sum g^{st} (e_s)^a_c (e_t)^b_d with g the inverse of the
    dense Gram matrix over the given matrices; raises SingularMatrix, with
    the Gram rank, when the form is degenerate on them."""
    n = lam.n
    ginv = mat_inverse_fractions(gram_dense(mats, lam))
    acc: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for s, t, g in _nonzeros(ginv):
        for a, c, va in _nonzeros(mats[s]):
            for b, d, vb in _nonzeros(mats[t]):
                acc[(a, b, c, d)] += g * va * vb
    return Tensor4(n, acc)


def r_from_algebra_fractions(lam: LambdaSpec) -> Tensor4:
    """The Gram construction that frobenius.r_from_algebra evaluates in
    closed form: the Gram matrix of the unscaled lambda inverted by Fraction
    elimination, then one Fraction add per inverse nonzero and pair of basis
    entries. A singular Gram matrix raises SingularMatrix with its rank."""
    items = [_entries(e) for e in build_basis(lam.n, lam.m)]
    ginv = mat_inverse_fractions(RatMatrix.from_rows(len(items), _pairings(items, items, lam.values)))
    acc: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for s, t, g in _nonzeros(ginv):
        for a, c, va in items[s]:
            gva = g * va
            for b, d, vb in items[t]:
                acc[(a, b, c, d)] += gva * vb
    return Tensor4(lam.n, acc)


def gl_transform_fractions(r: Tensor4, g: RatMatrix) -> Tensor4:
    """tensor.gl_transform as four Fraction contraction passes over tuple
    keys: the oracle for its integer-keyed passes."""
    gt = g.transpose().sparse_rows  # gt[p] = {a: g^a_p}
    h = mat_inverse_fractions(g).sparse_rows  # h[r] = {c: (g^-1)^r_c}

    def contract(entries, rows, pos):
        out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
        for key, v in entries.items():
            for new, coeff in rows[key[pos]].items():
                out[key[:pos] + (new,) + key[pos + 1 :]] += coeff * v
        return out

    cur = dict(r.iter_items())
    cur = contract(cur, gt, 0)
    cur = contract(cur, gt, 1)
    cur = contract(cur, h, 2)
    cur = contract(cur, h, 3)
    return Tensor4(r.n, cur)


def membership_check(a: RatMatrix, n: int, m: int) -> bool:
    """True when every column sums to zero over each residue class mod m."""
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    for j in range(n):
        for res in range(m):
            if sum((a[i][j] for i in range(res, n, m)), Fraction(0)):
                return False
    return True


# every (n, m) with n <= 10 whose residue classes hold at most four
# indices, so that lambda_i in {0..3} can meet nondegenerate's criterion
NM_SMALL_CLASSES = [(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5)]


def nondegenerate(lam: LambdaSpec) -> bool:
    """The exact criterion for the trace form to be nondegenerate: lambda
    is pairwise distinct within each residue class mod m."""
    return all(len(set(lam.values[r :: lam.m])) == lam.n // lam.m for r in range(lam.m))


def scalar_bracket_two_block(lam: LambdaSpec) -> QuadraticBracket:
    """The scalar bracket at n = 2m with the printed formula's misprint
    corrected ((l_a - l_b') in the denominator reads (l_a - l_a')):

        {x_a, x_b} = (x_a - x_a')(x_b - x_b')(l_a' - l_b')
                     / ((l_a - l_a')(l_b - l_b'))

    with g' = g +- m the partner of g; defined when l_g != l_g' for every
    g, which at n = 2m is the nondegeneracy criterion."""
    n, m, vals = lam.n, lam.m, lam.values
    assert n == 2 * m
    partner = [(g + m) % n for g in range(n)]
    table = {}
    for a, b in combinations(range(n), 2):
        ap, bp = partner[a], partner[b]
        c = (vals[ap] - vals[bp]) / ((vals[a] - vals[ap]) * (vals[b] - vals[bp]))
        terms = defaultdict(Fraction)
        for x, y, sign in ((a, b, 1), (a, bp, -1), (ap, b, -1), (ap, bp, 1)):
            terms[(min(x, y), max(x, y))] += sign * c
        table[(a, b)] = terms
    return QuadraticBracket(n, table)


def compare_tensors_dense(r1: Tensor4, r2: Tensor4) -> list:
    """compare_tensors by the definition: every quadruple in lexicographic
    order, read through Tensor4.get."""
    return [(key, r1.get(*key), r2.get(*key)) for key in product(range(r1.n), repeat=4)
            if r1.get(*key) != r2.get(*key)]


def r_closed_m1_printed(lam: LambdaSpec) -> Tensor4:
    """The m1 family as printed: for every ordered pair (a, b), a != b,

        r^{ab}_{ab} = r^{ba}_{ab} = r^{aa}_{ba} = -r^{aa}_{ab} = 1/(l_a - l_b),

    all other components zero."""
    if lam.m != 1:
        raise ValueError("the m1 family requires m == 1")
    lam.require_distinct()
    vals = lam.values
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a, b in product(range(lam.n), repeat=2):
        if a == b:
            continue
        v = 1 / (vals[a] - vals[b])
        entries[(a, b, a, b)] = v
        entries[(b, a, a, b)] = v
        entries[(a, a, b, a)] = v
        entries[(a, a, a, b)] = -v
    return Tensor4(lam.n, entries)


def r_closed_block_printed(lam: LambdaSpec) -> Tensor4:
    """The block-pattern family as printed:

        r^{ab}_{cd} = (d^a_d - d^a_{bar(d,c)}) (d^b_c - d^b_{bar(c,d)}) / (l_c - l_d)

    for c, d in different blocks, zero otherwise. When c and d share a
    block both delta factors vanish identically, so the value is zero
    without ever dividing by l_c - l_d."""
    if not lam.has_block_pattern():
        raise ValueError("lambda does not match the block pattern")
    n, m = lam.n, lam.m
    vals = lam.values
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for c, d in product(range(n), repeat=2):
        if c // m == d // m:
            continue
        v = 1 / (vals[c] - vals[d])
        dbar = bar_index(d, c, m)
        cbar = bar_index(c, d, m)
        entries[(d, c, c, d)] = v
        entries[(d, cbar, c, d)] = -v
        entries[(dbar, c, c, d)] = -v
        entries[(dbar, cbar, c, d)] = v
    return Tensor4(n, entries)


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


def aybe_residual_join(r: Tensor4) -> list[tuple[tuple[int, ...], Fraction]]:
    """The AYBE residual by the sparse join with one update per term: each
    pair of entries that share the summed index adds its product to the
    three cyclic relabelings of its index tuple, summed on the integers of
    common_denominator (or on the Fractions it keeps)."""
    items = list(r.iter_items())
    lcm, scaled = common_denominator([v for _, v in items])
    entries = [(k, v) for (k, _), v in zip(items, scaled)]
    by_lower0: dict[int, list] = defaultdict(list)
    for (a, b, c, d), v in entries:
        by_lower0[c].append((a, b, d, v))
    acc: dict[tuple[int, ...], int | Fraction] = defaultdict(int)
    for (a1, b1, c1, d1), v1 in entries:
        for (a2, b2, d2, v2) in by_lower0[b1]:
            p = v1 * v2
            acc[(a1, a2, b2, c1, d1, d2)] += p
            acc[(b2, a1, a2, d2, c1, d1)] += p
            acc[(a2, b2, a1, d1, d2, c1)] += p
    den = lcm * lcm
    return sorted((k, Fraction(v, den) if den > 1 else Fraction(v)) for k, v in acc.items() if v)


def check_skew_sum(r: Tensor4) -> list[tuple[tuple[int, int, int, int], Fraction]]:
    """The skew check by its definition: r^{ab}_{cd} + r^{ba}_{dc} at every
    quadruple that r or its partner holds, where the sum is nonzero, sorted."""
    entries = dict(r.iter_items())
    keys = set(entries) | {(b, a, d, c) for a, b, c, d in entries}
    sums = ((k, entries.get(k, Fraction(0)) + entries.get((k[1], k[0], k[3], k[2]), Fraction(0))) for k in keys)
    return sorted((k, s) for k, s in sums if s)


def bracket_table_fractions(r: Tensor4, m: int) -> dict:
    """poisson._bracket_table as a loop on Fractions: each term of a
    component r^{ge}_{ab}, a <= b, added to the coefficient of x_x x_y in
    {x_u, x_v}, with u = (a, i1, j1), v = (b, i2, j2), x = (g, i1, j2) and
    y = (e, i2, j1), then zeros and empty entries dropped and the pairs
    sorted, as the QuadraticBracket constructor keeps them."""
    mm = m * m
    acc: dict = defaultdict(lambda: defaultdict(Fraction))
    for (g, e, a, b), val in r.iter_items():
        if a > b:
            continue
        for i1, j1, i2, j2 in product(range(m), repeat=4):
            u, v = a * mm + i1 * m + j1, b * mm + i2 * m + j2
            if u < v:
                x, y = g * mm + i1 * m + j2, e * mm + i2 * m + j1
                acc[(u, v)][(x, y) if x <= y else (y, x)] += val
    table = {uv: {mono: c for mono, c in terms.items() if c} for uv, terms in sorted(acc.items())}
    return {uv: terms for uv, terms in table.items() if terms}


def jacobi_residual_tuples(b: QuadraticBracket) -> list:
    """poisson.jacobi_residual with monomials as sorted index tuples: the
    same triples and integer (or Fraction fallback) contraction, but every
    update builds its cubic monomial with tuple(sorted(...))."""
    pairs = b.pairs()
    lcm, scaled = common_denominator([c for _, entry in pairs for c in entry.values()])
    coeffs = iter(scaled)
    rows: dict = {}
    for (u, v), entry in pairs:
        terms = {mono: next(coeffs) for mono in entry}
        rows.setdefault(u, {})[v] = terms
        rows.setdefault(v, {})[u] = {mono: -c for mono, c in terms.items()}
    den = lcm * lcm
    out = []
    for u, v, w in combinations(sorted(rows), 3):
        acc: dict = defaultdict(int)
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            row = rows[x]
            for (g, e), c in rows[y].get(z, {}).items():
                for k, other in ((g, e), (e, g)):
                    for (p, q), d in row.get(k, {}).items():
                        acc[tuple(sorted((p, q, other)))] += c * d
        total = {mono: Fraction(c, den) if den > 1 else Fraction(c) for mono, c in acc.items() if c}
        if total:
            out.append(((u, v, w), total))
    return out


def tensor_json_obj(r: Tensor4) -> dict:
    """The JSON object of r's file: json.dumps(tensor_json_obj(r), indent=2)
    + "\\n" is the text r.dumps() writes."""
    return {
        "n": r.n,
        "entries": [
            {"upper": [a, b], "lower": [c, d], "value": format_rational(v)}
            for (a, b, c, d), v in r.items()
        ],
    }


def tensor_init_old(n: int, entries=None) -> Tensor4:
    """Tensor4(n, entries) as the constructor built it with an all() over
    the indices and a Fraction() of every value."""
    if n < 1:
        raise ValueError("tensor dimension must be >= 1")
    kept: dict = {}
    for key, value in (entries or {}).items():
        a, b, c, d = key
        if not all(0 <= idx < n for idx in (a, b, c, d)):
            raise ValueError(f"index out of range for n={n}: {key}")
        v = Fraction(value)
        if v:
            kept[(a, b, c, d)] = v
    r = object.__new__(Tensor4)
    r.n, r._entries = n, kept
    return r


def _parse_rational_old(text: str) -> Fraction:
    s = text.strip()
    if not re.match(r"-?[0-9]+(?:/[0-9]+)?\Z", s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def tensor_from_json_obj_old(obj) -> Tensor4:
    """Tensor4.loads(text) as it was read from json.loads(text) in a second
    pass, with isinstance checks, a split of each "p/q" and the old
    constructor: the oracle for the one-pass reader."""
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("tensor JSON needs a positive integer 'n'")
    raw = obj.get("entries")
    if not isinstance(raw, list):
        raise ValueError("tensor JSON needs an 'entries' list")
    entries: dict = {}
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError("tensor entries must be objects")
        upper = item.get("upper")
        lower = item.get("lower")
        if (
            not isinstance(upper, list)
            or not isinstance(lower, list)
            or len(upper) != 2
            or len(lower) != 2
            or not all(isinstance(i, int) and not isinstance(i, bool) for i in upper + lower)
        ):
            raise ValueError(f"bad index pair in tensor entry: {item!r}")
        value = item.get("value")
        if not isinstance(value, str):
            raise ValueError("tensor entry values must be rational strings")
        v = _parse_rational_old(value)
        if v == 0:
            raise ValueError("explicit zero entry in tensor file")
        key = (upper[0], upper[1], lower[0], lower[1])
        if key in entries:
            raise ValueError(f"duplicate tensor entry at {key}")
        entries[key] = v
    return tensor_init_old(n, entries)


def negate(r: Tensor4) -> Tensor4:
    return Tensor4(r.n, {k: -v for k, v in r.iter_items()})


def grid(n, shift=0):
    return [Fraction(k * k + 1, k + 2) + shift for k in range(n)]


def perturbed(r):
    """r with one entry moved by 2/3 and its skew partner by -2/3: still
    skew, no longer a solution of the AYBE."""
    entries = dict(r.iter_items())
    a, b, c, d = min(k for k in entries if k != (k[1], k[0], k[3], k[2]))
    entries[(a, b, c, d)] += Fraction(2, 3)
    entries[(b, a, d, c)] = entries.get((b, a, d, c), Fraction(0)) - Fraction(2, 3)
    return Tensor4(r.n, entries)


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
