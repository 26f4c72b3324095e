"""The three explicit tensor families of the paper. Each variant checks
its own lambda, then calls the one construction,
frobenius.r_from_algebra, whose closed form holds for every lambda that
is pairwise distinct within each residue class mod m:
  m1       single-index blocks (m == 1), pairwise-distinct lambda
  block    lambda equal exactly within blocks of m consecutive indices
  distinct lambda pairwise distinct, any proper divisor m
"""
from __future__ import annotations

from aybe.frobenius import LambdaSpec, r_from_algebra
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
    return r_from_algebra(lam)


def r_closed_block(lam: LambdaSpec) -> Tensor4:
    """Block-pattern family:

        r^{ab}_{cd} = (d^a_d - d^a_{bar(d,c)}) (d^b_c - d^b_{bar(c,d)}) / (l_c - l_d)

    for c, d in different blocks, zero otherwise. When c and d share a
    block both delta factors vanish identically, so the value is zero
    without ever dividing by l_c - l_d.
    """
    if not lam.has_block_pattern():
        raise ValueError("lambda does not match the block pattern")
    return r_from_algebra(lam)


def r_closed_distinct(lam: LambdaSpec) -> Tensor4:
    """Distinct-lambda family: lambda pairwise distinct, any proper divisor m."""
    lam.require_distinct()
    return r_from_algebra(lam)


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
