"""Quadratic Poisson brackets induced by a solution tensor, and a
Jacobi-identity checker that contracts the quadratic table directly.

Generators commute. For the scalar case the bracket of generators is
{x_a, x_b} = sum r^{ge}_{ab} x_g x_e; for m x m matrix entries indexed
(a, i, j) it is {x^{j1}_{i1,a}, x^{j2}_{i2,b}} = sum r^{ge}_{ab}
x^{j2}_{i1,g} x^{j1}_{i2,e}. Skew-symmetry of r makes both antisymmetric.

A monomial is the sorted tuple of its generator indices, so x_0^2 x_3 is
(0, 0, 3). Dense exponent vectors appear only in the JSON form.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

from aybe.exactlin import common_denominator, format_rational
from aybe.frobenius import LambdaSpec
from aybe.tensor import Tensor4, check_skew

__all__ = [
    "Polynomial",
    "QuadraticBracket",
    "scalar_bracket_from_r",
    "matrix_bracket_from_r",
    "jacobi_residual",
    "Closed2mBracket",
    "scalar_bracket_closed_2m",
    "compare_to_closed_2m",
    "bracket_to_json",
]

Mono = tuple[int, ...]


class Polynomial:
    """Sparse polynomial: map from sorted generator-index tuples to coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Mono, Fraction] | None = None):
        self.nvars = nvars
        kept: dict[Mono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if list(mono) != sorted(mono) or not all(0 <= k < nvars for k in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            c = Fraction(coeff)
            if c:
                kept[mono] = c
        self._terms = kept

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in graded-lexicographic order of their exponent vectors.

        Within one degree a larger sorted index tuple has the smaller
        exponent vector, hence the negated indices in the key.
        """
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), [-k for k in t[0]]))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {mono: -c for mono, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def to_json_obj(self) -> list[dict]:
        """Terms as dense exponent vectors, the bracket file format."""
        out = []
        for mono, c in self.terms():
            exps = [0] * self.nvars
            for k in mono:
                exps[k] += 1
            out.append({"exps": exps, "coeff": format_rational(c)})
        return out


def _scalar_names(n: int) -> list[str]:
    return [f"x_{a}" for a in range(n)]


def _matrix_names(n: int, m: int) -> list[str]:
    return [
        f"x^{{{j}}}_{{{i},{a}}}"
        for a in range(n)
        for i in range(m)
        for j in range(m)
    ]


class QuadraticBracket:
    """Bracket table on commuting generators; antisymmetric by construction.

    Only pairs u < v with a nonzero polynomial are stored; entry(u, v)
    fills in the rest by antisymmetry. Every entry is homogeneous
    quadratic, which jacobi_residual relies on.
    """

    def __init__(self, n_gens: int, table: Mapping[tuple[int, int], Polynomial], names=None):
        self.n_gens = n_gens
        self.names = list(names) if names is not None else _scalar_names(n_gens)
        self._table: dict[tuple[int, int], Polynomial] = {}
        for (u, v), poly in table.items():
            if not (0 <= u < v < n_gens):
                raise ValueError(f"bracket table keys must have 0 <= u < v < {n_gens}")
            if poly.nvars != n_gens:
                raise ValueError("bracket polynomial has wrong variable count")
            if any(len(mono) != 2 for mono in poly._terms):
                raise ValueError("bracket polynomials must be homogeneous quadratic")
            if not poly.is_zero():
                self._table[(u, v)] = poly

    def entry(self, u: int, v: int) -> Polynomial:
        if u < v:
            return self._table.get((u, v), Polynomial(self.n_gens))
        if u > v:
            return -self._table.get((v, u), Polynomial(self.n_gens))
        return Polynomial(self.n_gens)

    def pairs(self) -> list[tuple[tuple[int, int], Polynomial]]:
        return sorted(self._table.items())

    def is_zero(self) -> bool:
        return not self._table


def _require_skew(r: Tensor4) -> None:
    bad = check_skew(r)
    if bad:
        raise ValueError(
            f"tensor is not skew-symmetric ({len(bad)} violating components); "
            "the induced bracket would not be antisymmetric"
        )


def _bracket_table(r: Tensor4, m: int) -> dict[tuple[int, int], Polynomial]:
    """{x_u, x_v} for u < v on generators (a, i, j) numbered a*m*m + i*m + j.

    Walks the tensor's nonzero components r^{ge}_{ab} with a <= b, the
    only lower-index groups that reach a pair u < v.
    """
    _require_skew(r)
    mm = m * m
    acc: dict[tuple[int, int], dict[Mono, Fraction]] = defaultdict(lambda: defaultdict(Fraction))
    for (g, e, a, b), val in r.iter_items():
        if a > b:
            continue
        for i1, j1, i2, j2 in product(range(m), repeat=4):
            u, v = a * mm + i1 * m + j1, b * mm + i2 * m + j2
            if u < v:
                x, y = g * mm + i1 * m + j2, e * mm + i2 * m + j1
                acc[(u, v)][(x, y) if x <= y else (y, x)] += val
    return {uv: Polynomial(r.n * mm, terms) for uv, terms in acc.items()}


def scalar_bracket_from_r(r: Tensor4) -> QuadraticBracket:
    """{x_a, x_b} = sum r^{ge}_{ab} x_g x_e on r.n commuting generators."""
    return QuadraticBracket(r.n, _bracket_table(r, 1), _scalar_names(r.n))


def matrix_bracket_from_r(r: Tensor4, m: int) -> QuadraticBracket:
    """Bracket on r.n * m^2 generators indexed (a, i, j); m == 1 reduces to
    the scalar bracket with identical generator numbering."""
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    return QuadraticBracket(r.n * m * m, _bracket_table(r, m), _matrix_names(r.n, m))


def jacobi_residual(b: QuadraticBracket) -> list[tuple[tuple[int, int, int], Polynomial]]:
    """Triples u < v < w where {x_u,{x_v,x_w}} + cyclic is nonzero.

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
    """
    pairs = b.pairs()
    lcm, scaled = common_denominator([c for _, poly in pairs for c in poly._terms.values()])
    coeffs = iter(scaled)
    rows: dict[int, dict[int, dict[Mono, int | Fraction]]] = {}
    for (u, v), poly in pairs:
        terms = {mono: next(coeffs) for mono in poly._terms}
        rows.setdefault(u, {})[v] = terms
        rows.setdefault(v, {})[u] = {mono: -c for mono, c in terms.items()}
    den = lcm * lcm
    out = []
    for u, v, w in combinations(sorted(rows), 3):
        acc: dict[Mono, int | Fraction] = defaultdict(int)
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            row = rows[x]
            for (g, e), c in rows[y].get(z, {}).items():
                for k, other in ((g, e), (e, g)):
                    for (p, q), d in row.get(k, {}).items():
                        acc[tuple(sorted((p, q, other)))] += c * d
        total = {mono: Fraction(c, den) if den > 1 else c for mono, c in acc.items() if c}
        if total:
            out.append(((u, v, w), Polynomial(b.n_gens, total)))
    return out


@dataclass(frozen=True)
class Closed2mBracket:
    """Result of the printed pairing formula: the evaluable part of the
    table plus the generator pairs whose denominator vanishes."""

    bracket: QuadraticBracket
    undefined_pairs: tuple[tuple[int, int], ...]


def _partner(g: int, m: int) -> int:
    return g + m if g < m else g - m


def scalar_bracket_closed_2m(lam: LambdaSpec) -> Closed2mBracket:
    """Literal evaluation of the printed two-block bracket formula

        {x_a, x_b} = (x_a - x_a')(x_b - x_b')(l_a' - l_b')
                     / ((l_a - l_b')(l_b - l_b'))

    for n = 2m, where g' is the index with |g' - g| = m. Pairs where the
    printed denominator vanishes are reported as undefined rather than
    silently corrected. A defined pair has v != u', so the four monomials
    of the expanded product are distinct.
    """
    if lam.n != 2 * lam.m:
        raise ValueError("the two-block bracket formula requires n == 2m")
    if len(set(lam.values)) != lam.n:
        raise ValueError("lambda values must be pairwise distinct")
    n, m = lam.n, lam.m
    vals = lam.values
    table: dict[tuple[int, int], Polynomial] = {}
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
            table[(u, v)] = Polynomial(n, {tuple(sorted(xy)): cx for xy, cx in signed})
    return Closed2mBracket(QuadraticBracket(n, table), tuple(undefined))


def compare_to_closed_2m(derived: QuadraticBracket, lam: LambdaSpec) -> list[dict]:
    """Per-pair verdicts comparing a derived bracket with the printed
    formula: 'match', 'mismatch', or 'undefined' (denominator vanished)."""
    closed = scalar_bracket_closed_2m(lam)
    if derived.n_gens != lam.n:
        raise ValueError("derived bracket generator count differs from n")
    undefined = set(closed.undefined_pairs)
    report = []
    for u in range(lam.n):
        for v in range(u + 1, lam.n):
            item = {
                "pair": [u, v],
                "derived": derived.entry(u, v).to_json_obj(),
            }
            if (u, v) in undefined:
                item["status"] = "undefined"
                item["closed"] = None
            else:
                closed_poly = closed.bracket.entry(u, v)
                item["status"] = (
                    "match" if closed_poly == derived.entry(u, v) else "mismatch"
                )
                item["closed"] = closed_poly.to_json_obj()
            report.append(item)
    return report


def bracket_to_json(b: QuadraticBracket) -> dict:
    return {
        "generators": b.n_gens,
        "names": list(b.names),
        "table": [
            {"u": u, "v": v, "poly": poly.to_json_obj()}
            for (u, v), poly in b.pairs()
        ],
    }
