"""The three explicit tensor families that the Gram-inverse construction
is checked against. Each variant checks its own lambda, then calls one
kernel, `_r_closed`, which holds for every lambda that is pairwise
distinct within each residue class mod m:
  m1       single-index blocks (m == 1), pairwise-distinct lambda
  block    lambda equal exactly within blocks of m consecutive indices
  distinct lambda pairwise distinct, any proper divisor m
"""
from __future__ import annotations

from fractions import Fraction

from aybe.frobenius import LambdaSpec
from aybe.tensor import Tensor4, _checked

__all__ = [
    "VARIANTS",
    "r_closed_m1",
    "r_closed_block",
    "r_closed_distinct",
    "r_closed",
]


def _r_closed(lam: LambdaSpec) -> Tensor4:
    """The tensor, applied case by case in fixed precedence:

    1. zero unless a = d and b = c mod m;
    2. r^{aa}_{ea} = -r^{aa}_{ae} = w[a][e] for e ~ a, e != a;
    3. remaining upper-equal components are zero;
    4. r^{ab}_{ba} = (q[a][b] q[b][a] - 1) w[a][b] for a != b;
    5. r^{ab}_{cd} = q[a][c] q[b][d] w[a][b] otherwise,

    with ~ denoting congruence mod m and the per-pair tables

        P[a][c] = prod_{k~c, k!=c} (l_a - l_k),
        q[a][c] = P[a][c] / P[a][a],
        w[a][b] = 1 / (l_a - l_b).

    It holds wherever lambda is pairwise distinct within each residue
    class, so that P[a][a] != 0. Row a of q is kept as its nonzeros per
    class, in n^2 work: where a k in the class has l_k = l_a (at most one
    does; in a's own class, a), q[a][c] is nonzero only at c = k, and
    otherwise P[a][c] = F w[a][c], F the product over the whole class.
    Where l_a = l_b across classes the factor l_a - l_b cancels: case 4 is
    sum_{k~b, k!=b} w[b][k] - sum_{k~a, k!=a} w[b][k], and case 5 is
    w[b][c] at d = a, -w[a][d] at c = b and zero otherwise, which at b = a
    is case 2. Only congruent quadruples with nonzero q are visited, and an
    exact 1 is not multiplied by.
    """
    n, m = lam.n, lam.m
    vals = lam.values
    classes = [range(r, n, m) for r in range(m)]
    w = [[None] * n for _ in vals]  # None where l_a = l_b
    for a, b in ((a, b) for a in range(n) for b in range(a) if vals[a] != vals[b]):
        w[a][b] = x = 1 / (vals[a] - vals[b])
        w[b][a] = -x
    q = []  # q[a][r] = {c: q[a][c]} over the nonzeros in class r
    for a in range(n):
        wa, prods = w[a], []
        for cls in classes:
            k, f = None, Fraction(1)  # f is P[a][k] where l_k = l_a, else F
            for j in cls:
                if wa[j] is None:
                    k = j
                else:
                    f /= wa[j]
            prods.append((cls, k, f))
        own, row = prods[a % m][2], []
        for cls, k, f in prods:
            g = 1 if f == own else f / own
            row.append({k: g} if k is not None else {c: g * wa[c] for c in cls})
        q.append(row)
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a in range(n):
        same, wa, qa = classes[a % m], w[a], q[a]
        for b in range(n):
            wab, other, qac, qbd = wa[b], classes[b % m], qa[b % m], q[b][a % m]
            if wab is None:  # b = a, or l_a = l_b across classes
                wb = w[b]
                if b != a:
                    entries[(a, b, b, a)] = (sum(wb[k] for k in other if k != b)
                                             - sum(wb[k] for k in same if k != a))
                entries.update({(a, b, c, a): wb[c] for c in other if c != b})
                entries.update({(a, b, b, d): w[d][a] for d in same if d != a})
                continue
            qq = qac.get(b, 0) * qbd.get(a, 0)
            entries[(a, b, b, a)] = (qq - 1) * wab if qq else w[b][a]
            for c, x in qac.items():
                x = wab if x == 1 else x * wab
                for d, y in qbd.items():
                    if c != b or d != a:  # case 4 is written above
                        entries[(a, b, c, d)] = x if y == 1 else x * y
    return _checked(n, {key: v for key, v in entries.items() if v})  # case 4 sums may cancel


def r_closed_m1(lam: LambdaSpec) -> Tensor4:
    """Single-block family: for every ordered pair (a, b), a != b,

        r^{ab}_{ab} = r^{ba}_{ab} = r^{aa}_{ba} = -r^{aa}_{ab} = 1/(l_a - l_b),

    all other components zero.
    """
    if lam.m != 1:
        raise ValueError("the m1 family requires m == 1")
    lam.require_distinct()
    return _r_closed(lam)


def r_closed_block(lam: LambdaSpec) -> Tensor4:
    """Block-pattern family:

        r^{ab}_{cd} = (d^a_d - d^a_{bar(d,c)}) (d^b_c - d^b_{bar(c,d)}) / (l_c - l_d)

    for c, d in different blocks, zero otherwise. When c and d share a
    block both delta factors vanish identically, so the value is zero
    without ever dividing by l_c - l_d.
    """
    if not lam.has_block_pattern():
        raise ValueError("lambda does not match the block pattern")
    return _r_closed(lam)


def r_closed_distinct(lam: LambdaSpec) -> Tensor4:
    """Distinct-lambda family: lambda pairwise distinct, any proper divisor m."""
    lam.require_distinct()
    return _r_closed(lam)


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
