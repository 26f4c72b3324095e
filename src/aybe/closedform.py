"""The three explicit tensor families that the Gram-inverse construction
is checked against.

Variants:
  m1       single-index blocks (m == 1), pairwise-distinct lambda
  block    lambda equal exactly within blocks of m consecutive indices
  distinct lambda pairwise distinct, any proper divisor m
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from aybe.frobenius import LambdaSpec, bar_index
from aybe.tensor import Tensor4

__all__ = [
    "VARIANTS",
    "r_closed_m1",
    "r_closed_block",
    "r_closed_distinct",
    "r_closed",
]


def _require_distinct(lam: LambdaSpec) -> None:
    if len(set(lam.values)) != lam.n:
        raise ValueError("lambda values must be pairwise distinct")


def r_closed_m1(lam: LambdaSpec) -> Tensor4:
    """Single-block family: for every ordered pair (a, b), a != b,

        r^{ab}_{ab} = r^{ba}_{ab} = r^{aa}_{ba} = -r^{aa}_{ab} = 1/(l_a - l_b),

    all other components zero.
    """
    if lam.m != 1:
        raise ValueError("the m1 family requires m == 1")
    _require_distinct(lam)
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


def r_closed_block(lam: LambdaSpec) -> Tensor4:
    """Block-pattern family:

        r^{ab}_{cd} = (d^a_d - d^a_{bar(d,c)}) (d^b_c - d^b_{bar(c,d)}) / (l_c - l_d)

    for c, d in different blocks, zero otherwise. When c and d share a
    block both delta factors vanish identically, so the value is zero
    without ever dividing by l_c - l_d.
    """
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


def r_closed_distinct(lam: LambdaSpec) -> Tensor4:
    """Distinct-lambda family, applied case by case in fixed precedence:

    1. zero unless a = d and b = c mod m;
    2. r^{aa}_{ea} = -r^{aa}_{ae} = 1/(l_a - l_e) for e != a;
    3. remaining upper-equal components are zero;
    4. r^{ab}_{ba} = (P(a,b,b,a) - 1) / (l_a - l_b) for a != b;
    5. r^{ab}_{cd} = P(a,b,c,d) / (l_a - l_b) otherwise,

    where P(a,b,c,d) is the ratio of class products

        [prod_{c'~c, c'!=c}(l_a - l_{c'}) * prod_{d'~d, d'!=d}(l_b - l_{d'})]
      / [prod_{a'~a, a'!=a}(l_a - l_{a'}) * prod_{b'~b, b'!=b}(l_b - l_{b'})]

    with ~ denoting congruence mod m.
    """
    _require_distinct(lam)
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


def r_closed(variant: str, lam: LambdaSpec) -> Tensor4:
    try:
        fn = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown closed-form variant {variant!r}") from None
    return fn(lam)


VARIANTS = {
    "m1": r_closed_m1,
    "block": r_closed_block,
    "distinct": r_closed_distinct,
}
