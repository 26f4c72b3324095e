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


def r_closed_m1(lam: LambdaSpec) -> Tensor4:
    """Single-block family: for every ordered pair (a, b), a != b,

        r^{ab}_{ab} = r^{ba}_{ab} = r^{aa}_{ba} = -r^{aa}_{ab} = 1/(l_a - l_b),

    all other components zero.
    """
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


def r_closed_distinct(lam: LambdaSpec) -> Tensor4:
    """Distinct-lambda family, applied case by case in fixed precedence:

    1. zero unless a = d and b = c mod m;
    2. r^{aa}_{ea} = -r^{aa}_{ae} = w[a][e] for e ~ a, e != a;
    3. remaining upper-equal components are zero;
    4. r^{ab}_{ba} = (q[a][b] q[b][a] - 1) w[a][b] for a != b;
    5. r^{ab}_{cd} = q[a][c] q[b][d] w[a][b] otherwise,

    with ~ denoting congruence mod m and the per-pair tables

        P[a][c] = prod_{k~c, k!=c} (l_a - l_k),
        q[a][c] = P[a][c] / P[a][a],
        w[a][b] = 1 / (l_a - l_b).

    q[a][c] is zero when c ~ a and c != a, since P[a][c] then has the
    factor l_a - l_a. The tables cost n^3/m Fraction operations; the loop
    then visits only the n^4/m^2 congruent quadruples, going through the
    residue classes, with O(1) Fraction operations each.
    """
    lam.require_distinct()
    n, m = lam.n, lam.m
    vals = lam.values
    classes = [range(r, n, m) for r in range(m)]
    P = [
        [prod((la - vals[k] for k in classes[c % m] if k != c), start=Fraction(1)) for c in range(n)]
        for la in vals
    ]
    q = [[p / row[a] for p in row] for a, row in enumerate(P)]
    w = [[1 / (la - lb) if la != lb else None for lb in vals] for la in vals]
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a in range(n):
        same = classes[a % m]
        for e in same:
            if e != a:
                entries[(a, a, e, a)] = w[a][e]
                entries[(a, a, a, e)] = -w[a][e]
        for b in range(n):
            if b == a:
                continue
            wab = w[a][b]
            # case 4 first: when b ~ a, q[a][b] is zero and the skip below
            # would pass over (b, a)
            entries[(a, b, b, a)] = (q[a][b] * q[b][a] - 1) * wab
            for c in classes[b % m]:
                x = q[a][c] * wab
                if not x:
                    continue
                for d in same:
                    if c != b or d != a:
                        entries[(a, b, c, d)] = x * q[b][d]
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
