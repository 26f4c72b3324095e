"""Quadratic Poisson brackets induced by a solution tensor, and a
Jacobi-identity checker that contracts the quadratic table directly.

Generators commute. For the scalar case the bracket of generators is
{x_a, x_b} = sum r^{ge}_{ab} x_g x_e; for m x m matrix entries indexed
(a, i, j) it is {x^{j1}_{i1,a}, x^{j2}_{i2,b}} = sum r^{ge}_{ab}
x^{j2}_{i1,g} x^{j1}_{i2,e}. Skew-symmetry of r makes both antisymmetric.
By the Odesskii-Rubtsov-Sokolov theorem the matrix bracket is Poisson for
every m when the skew r solves the AYBE, so the CLI decides its Jacobi
check at m > 1 from tensor.aybe_residual; jacobi_residual lists the
violations otherwise, and checks a scalar bracket, which can be Poisson
though r does not solve the AYBE.

A monomial is the sorted tuple of its generator indices, so x_0^2 x_3 is
(0, 0, 3), and a polynomial is a plain dict from monomials to nonzero
Fractions. Dense exponent vectors appear only in the JSON form (terms_json).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, product

from aybe.exactlin import common_denominator, format_rational
from aybe.frobenius import LambdaSpec
from aybe.tensor import Tensor4, check_skew

__all__ = [
    "QuadraticBracket",
    "NotSkewSymmetric",
    "matrix_bracket_from_r",
    "jacobi_residual",
    "scalar_bracket_closed_2m",
    "compare_to_closed_2m",
    "bracket_to_json",
    "terms_json",
]

Mono = tuple[int, ...]


def _names(n: int, m: int) -> list[str]:
    """x_a at m == 1, else x^{j}_{i,a}, in generator order (a, i, j)."""
    if m == 1:
        return [f"x_{a}" for a in range(n)]
    return [f"x^{{{j}}}_{{{i},{a}}}" for a in range(n) for i in range(m) for j in range(m)]


class QuadraticBracket:
    """Bracket table on commuting generators; antisymmetric by construction.

    `table` maps pairs u < v to {x_u, x_v} as a dict {(g, e): c}, g <= e.
    The constructor, the checked entry point for tables from outside the
    package, checks these dicts, converts each c with Fraction and drops
    zeros and empty entries; matrix_bracket_from_r builds its table in that
    form and skips the pass (_built). entry(u, v) fills in the other pairs
    by antisymmetry. Every entry is homogeneous quadratic, which
    jacobi_residual relies on. Returned dicts are the bracket's own: do not
    modify them.
    """

    def __init__(self, n_gens: int, table: Mapping[tuple[int, int], Mapping], names=None):
        self.n_gens = n_gens
        self.names = list(names) if names is not None else _names(n_gens, 1)
        self._table: dict[tuple[int, int], dict[Mono, Fraction]] = {}
        for (u, v), terms in sorted(table.items()):
            if not (0 <= u < v < n_gens):
                raise ValueError(f"bracket table keys must have 0 <= u < v < {n_gens}")
            kept = {}
            for mono, coeff in terms.items():
                if len(mono) != 2 or not (0 <= mono[0] <= mono[1] < n_gens):
                    raise ValueError(f"bad quadratic monomial {mono} for {n_gens} generators")
                c = Fraction(coeff)
                if c:
                    kept[mono] = c
            if kept:
                self._table[(u, v)] = kept

    def entry(self, u: int, v: int) -> dict[Mono, Fraction]:
        if u < v:
            return self._table.get((u, v), {})
        if u > v:
            return {mono: -c for mono, c in self._table.get((v, u), {}).items()}
        return {}

    def pairs(self) -> list[tuple[tuple[int, int], dict[Mono, Fraction]]]:
        """The nonzero entries u < v, in increasing (u, v)."""
        return list(self._table.items())


def _built(n_gens: int, table: dict[tuple[int, int], dict[Mono, Fraction]], names: list[str]) -> QuadraticBracket:
    """The bracket holding table as it is, without the constructor's pass:
    the caller has sorted it by (u, v), 0 <= u < v < n_gens, and made each
    entry a nonempty dict from sorted pairs below n_gens to nonzero
    Fractions, as matrix_bracket_from_r does."""
    b = QuadraticBracket.__new__(QuadraticBracket)
    b.n_gens, b.names, b._table = n_gens, names, table
    return b


class NotSkewSymmetric(ValueError):
    """A bracket asked of a tensor that is not skew-symmetric; `violations`
    is check_skew's list, so a caller can report it without a second pass."""

    def __init__(self, violations: list):
        super().__init__(
            f"tensor is not skew-symmetric ({len(violations)} violating components); "
            "the induced bracket would not be antisymmetric"
        )
        self.violations = violations


def _bracket_table(r: Tensor4, m: int) -> dict[tuple[int, int], dict[Mono, Fraction]]:
    """{x_u, x_v} for u < v on generators (a, i, j) numbered a*m*m + i*m + j,
    sorted by (u, v), without zeros: the table QuadraticBracket would keep.

    Walks the tensor's nonzero components r^{ge}_{ab} with a <= b, the
    only lower-index groups that reach a pair u < v. The components are
    scaled to ints by their common denominator L
    (exactlin.common_denominator), and each distinct nonzero sum c becomes
    Fraction(c, L) once; when L would grow far past the largest
    denominator, the same loop adds the Fractions.
    """
    mm = m * m
    comps = [(key, val) for key, val in r.iter_items() if key[2] <= key[3]]
    lcm, scaled = common_denominator([val for _, val in comps])
    acc: dict[tuple[int, int], dict[Mono, int | Fraction]] = defaultdict(lambda: defaultdict(int))
    for ((g, e, a, b), _), val in zip(comps, scaled):
        for i1, j1, i2, j2 in product(range(m), repeat=4):
            u, v = a * mm + i1 * m + j1, b * mm + i2 * m + j2
            if u < v:
                x, y = g * mm + i1 * m + j2, e * mm + i2 * m + j1
                acc[(u, v)][(x, y) if x <= y else (y, x)] += val
    table: dict[tuple[int, int], dict[Mono, Fraction]] = {}
    coeffs: dict[int | Fraction, Fraction] = {}  # a sum -> its Fraction, made once
    for uv, terms in sorted(acc.items()):
        entry = {}
        for mono, c in terms.items():
            if c:
                coeff = coeffs.get(c)
                if coeff is None:
                    coeff = coeffs[c] = Fraction(c, lcm)
                entry[mono] = coeff
        if entry:
            table[uv] = entry
    return table


def matrix_bracket_from_r(r: Tensor4, m: int) -> QuadraticBracket:
    """Bracket on r.n * m^2 generators indexed (a, i, j); at m == 1 it is
    the scalar bracket {x_a, x_b} = sum r^{ge}_{ab} x_g x_e, on generators
    named x_a. Raises ValueError for m < 1, then NotSkewSymmetric unless r
    is skew-symmetric."""
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    if violations := check_skew(r):
        raise NotSkewSymmetric(violations)
    return _built(r.n * m * m, _bracket_table(r, m), _names(r.n, m))


def scalar_bracket_from_r(r: Tensor4) -> QuadraticBracket:
    """matrix_bracket_from_r(r, 1); not public (bench/tracing.py traces it)."""
    return matrix_bracket_from_r(r, 1)


def _monomial(key: int) -> Mono:
    """The sorted index tuple of a cubic monomial key sum 4^k (see
    jacobi_residual): the top index is half the key's top bit position."""
    mono = []
    for _ in range(3):
        mono.append((key.bit_length() - 1) >> 1)
        key -= 1 << 2 * mono[-1]
    return tuple(reversed(mono))


def jacobi_residual(b: QuadraticBracket) -> list[tuple[tuple[int, int, int], dict[Mono, Fraction]]]:
    """Triples u < v < w where {x_u,{x_v,x_w}} + cyclic is nonzero, each
    with that residual as a dict {cubic monomial: nonzero Fraction}.

    Checking generator triples suffices: the Leibniz extension propagates
    the identity to all polynomials. A triple vanishes when an index
    repeats, by antisymmetry, or when one generator brackets to zero with
    everything, so only triples of distinct active generators are visited.
    Each term is contracted directly as
    {x_u, c x_g x_e} = c({x_u,x_g} x_e + x_g {x_u,x_e}).

    The contraction multiplies integers: the table's coefficients scaled
    by the LCM L of their denominators (exactlin.common_denominator), so a
    residual coefficient sums to an int v and is returned as
    Fraction(v, L^2). When L would grow far past the largest denominator,
    the helper keeps the Fractions and the same contraction runs on them.

    Monomials are additive base-4 keys: generator k weighs 4^k, so x_g x_e
    is 4^g + 4^e and multiplying it by x_k adds 4^k. An exponent is at most
    3, so no base-4 digit carries and a key determines its monomial. Each
    table entry is a list of (key, coefficient); a key is decoded into its
    sorted index tuple only for the nonzero coefficients of a residual.
    """
    pairs = b.pairs()
    lcm, scaled = common_denominator([c for _, terms in pairs for c in terms.values()])
    coeffs = iter(scaled)
    weight = [1 << 2 * k for k in range(b.n_gens)]
    # quadratic key of x_g x_e -> the (k, weight of the other) pairs of
    # {x_u, x_g x_e} = {x_u, x_g} x_e + {x_u, x_e} x_g
    halves: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    rows: dict[int, dict[int, list[tuple[int, int | Fraction]]]] = {}
    for (u, v), terms in pairs:
        row = []
        for g, e in terms:
            key = weight[g] + weight[e]
            halves[key] = ((g, weight[e]), (e, weight[g]))
            row.append((key, next(coeffs)))
        rows.setdefault(u, {})[v] = row
        rows.setdefault(v, {})[u] = [(key, -c) for key, c in row]
    den = lcm * lcm
    out = []
    for u, v, w in combinations(sorted(rows), 3):
        acc: dict[int, int | Fraction] = defaultdict(int)
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            row = rows[x]
            for key, c in rows[y].get(z, ()):
                for k, other in halves[key]:
                    for key2, d in row.get(k, ()):
                        acc[key2 + other] += c * d
        total = {_monomial(key): Fraction(c, den) for key, c in acc.items() if c}
        if total:
            out.append(((u, v, w), total))
    return out


def _partner(g: int, m: int) -> int:
    return g + m if g < m else g - m


def scalar_bracket_closed_2m(
    lam: LambdaSpec,
) -> tuple[QuadraticBracket, tuple[tuple[int, int], ...]]:
    """Literal evaluation of the printed two-block bracket formula

        {x_a, x_b} = (x_a - x_a')(x_b - x_b')(l_a' - l_b')
                     / ((l_a - l_b')(l_b - l_b'))

    for n = 2m, where g' is the index with |g' - g| = m, as the pair
    (bracket of the defined pairs, undefined_pairs). Pairs where the
    printed denominator vanishes are reported as undefined rather than
    silently corrected. A defined pair has v != u', so the four monomials
    of the expanded product are distinct.
    """
    if lam.n != 2 * lam.m:
        raise ValueError("the two-block bracket formula requires n == 2m")
    lam.require_distinct()
    n, m = lam.n, lam.m
    vals = lam.values
    table: dict[tuple[int, int], dict[Mono, Fraction]] = {}
    undefined: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            up, vp = _partner(u, m), _partner(v, m)
            den = (vals[u] - vals[vp]) * (vals[v] - vals[vp])
            if den == 0:
                undefined.append((u, v))
                continue
            c = (vals[up] - vals[vp]) / den
            signed = (((u, v), c), ((u, vp), -c), ((up, v), -c), ((up, vp), c))
            table[(u, v)] = {tuple(sorted(xy)): cx for xy, cx in signed}
    return QuadraticBracket(n, table), tuple(undefined)


def compare_to_closed_2m(derived: QuadraticBracket, lam: LambdaSpec) -> list[dict]:
    """Per-pair verdicts comparing a derived bracket with the printed
    formula: 'match', 'mismatch', or 'undefined' (denominator vanished)."""
    closed, undefined_pairs = scalar_bracket_closed_2m(lam)
    if derived.n_gens != lam.n:
        raise ValueError("derived bracket generator count differs from n")
    undefined = set(undefined_pairs)
    report = []
    for u in range(lam.n):
        for v in range(u + 1, lam.n):
            derived_terms = derived.entry(u, v)
            item = {"pair": [u, v], "derived": terms_json(lam.n, derived_terms)}
            if (u, v) in undefined:
                item["status"] = "undefined"
                item["closed"] = None
            else:
                closed_terms = closed.entry(u, v)
                item["status"] = "match" if closed_terms == derived_terms else "mismatch"
                item["closed"] = terms_json(lam.n, closed_terms)
            report.append(item)
    return report


def terms_json(n_gens: int, terms: Mapping[Mono, Fraction]) -> list[dict]:
    """Terms as dense exponent vectors in graded-lexicographic order, the
    bracket file format. Within one degree a larger sorted index tuple has
    the smaller exponent vector, hence the negated indices in the key."""
    out = []
    for mono, c in sorted(terms.items(), key=lambda t: (len(t[0]), [-k for k in t[0]])):
        exps = [0] * n_gens
        for k in mono:
            exps[k] += 1
        out.append({"exps": exps, "coeff": format_rational(c)})
    return out


def bracket_to_json(b: QuadraticBracket) -> dict:
    return {
        "generators": b.n_gens,
        "names": list(b.names),
        "table": [
            {"u": u, "v": v, "poly": terms_json(b.n_gens, terms)}
            for (u, v), terms in b.pairs()
        ],
    }
