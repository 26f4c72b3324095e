import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aybe.closedform import (
    r_closed,
    r_closed_block,
    r_closed_distinct,
    r_closed_m1,
)
from aybe.exactlin import RatMatrix
from aybe.frobenius import LambdaSpec, r_from_algebra
from aybe.tensor import Tensor4, aybe_residual, check_skew, compare_tensors, gl_transform
from oracles import (
    NM_SMALL_CLASSES,
    nondegenerate,
    r_closed_block_printed,
    r_closed_distinct_reference,
    r_closed_m1_printed,
    r_from_algebra_fractions,
    rand_block_lambda,
    rand_distinct_lambda,
    unrelated_denominators,
)

LAMBDA_FAMILIES = {
    "small": st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
    "30-bit": st.integers(2**29, 2**30),
    "2000-digit": st.builds(Fraction, st.integers(10**1999, 10**2000), st.integers(1, 2**30)),
}


@st.composite
def distinct_lambda(draw, m1=False):
    """n <= 9 with any proper divisor m, m = 1 included (the only one when
    m1); 2000-digit values only up to n = 5, where the oracle's n^5/m^3
    products of 2000-digit numbers still take well under a second."""
    family = draw(st.sampled_from(list(LAMBDA_FAMILIES)))
    n = draw(st.integers(2, 5 if family == "2000-digit" else 9))
    m = 1 if m1 else draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    values = draw(st.lists(LAMBDA_FAMILIES[family], min_size=n, max_size=n, unique=True))
    return LambdaSpec(n, m, values)


@st.composite
def block_lambda(draw):
    """lambda equal exactly within blocks of m, m = 1 included, with the
    sizes and families of distinct_lambda."""
    family = draw(st.sampled_from(list(LAMBDA_FAMILIES)))
    n = draw(st.integers(2, 5 if family == "2000-digit" else 9))
    m = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    blocks = draw(st.lists(LAMBDA_FAMILIES[family], min_size=n // m, max_size=n // m, unique=True))
    return LambdaSpec(n, m, [blocks[i // m] for i in range(n)])


@st.composite
def nondegenerate_lambda(draw):
    """lambda_i in {0..3}, pairwise distinct within each residue class mod
    m but often equal across classes (mode OTHER)."""
    n, m = draw(st.sampled_from(NM_SMALL_CLASSES))
    cls = [draw(st.lists(st.integers(0, 3), min_size=n // m, max_size=n // m, unique=True)) for _ in range(m)]
    return LambdaSpec(n, m, [cls[i % m][i // m] for i in range(n)])


@st.composite
def unrelated_lambda(draw):
    """lambda over unrelated_denominators at (5,1) or (6,3), where
    common_denominator keeps lambda's Fractions; at (6,3) l_1 = l_0 on some
    draws, a value shared across classes (mode OTHER)."""
    n, m = draw(st.sampled_from([(5, 1), (6, 3)]))
    nums = st.integers(-50, 50).filter(bool)
    values = [Fraction(draw(nums), d) for d in unrelated_denominators(n)]
    if m > 1 and draw(st.booleans()):
        values[1] = values[0]
    return LambdaSpec(n, m, values)


def test_m1_n2_frozen_values():
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    assert dict(r.items()) == {
        (0, 0, 0, 1): Fraction(-1),
        (0, 0, 1, 0): Fraction(1),
        (0, 1, 0, 1): Fraction(1),
        (0, 1, 1, 0): Fraction(-1),
        (1, 0, 0, 1): Fraction(1),
        (1, 0, 1, 0): Fraction(-1),
        (1, 1, 0, 1): Fraction(-1),
        (1, 1, 1, 0): Fraction(1),
    }


def test_m1_entry_count():
    for n in (2, 3, 4):
        r = r_closed_m1(LambdaSpec(n, 1, list(range(n))))
        assert r.nnz == 4 * n * (n - 1)


def test_m1_rejects_repeated_lambda():
    with pytest.raises(ValueError):
        r_closed_m1(LambdaSpec(2, 1, [1, 1]))


def test_m1_rejects_wrong_m():
    with pytest.raises(ValueError):
        r_closed_m1(LambdaSpec(4, 2, [0, 1, 2, 3]))


def test_m1_matches_gram_construction():
    lam = LambdaSpec(3, 1, [0, 1, 2])
    assert compare_tensors(r_closed_m1(lam), r_from_algebra_fractions(lam)) == []


@settings(max_examples=40, deadline=None)
@given(block_lambda())
def test_block_reduces_to_m1(lam):
    """The block variant writes the printed block formula, which at m = 1
    is the printed m1 formula."""
    text = r_closed_block(lam).dumps()
    assert text == r_closed_block_printed(lam).dumps()
    if lam.m == 1:
        assert text == r_closed_m1_printed(lam).dumps()


def test_block_42_spot_values():
    lam = LambdaSpec(4, 2, [1, 1, 0, 0])
    r = r_closed_block(lam)
    assert r.get(2, 0, 0, 2) == 1
    for a in range(4):
        for b in range(4):
            assert r.get(a, b, 0, 1) == 0


def test_block_rejects_non_block_lambda():
    with pytest.raises(ValueError):
        r_closed_block(LambdaSpec(4, 2, [1, 1, 1, 1]))
    with pytest.raises(ValueError):
        r_closed_block(LambdaSpec(4, 2, [0, 1, 2, 3]))


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
def test_block_matches_gram_construction(n, m):
    rng = random.Random(n * 100 + m)
    lam = rand_block_lambda(rng, n, m)
    assert compare_tensors(r_closed_block(lam), r_from_algebra_fractions(lam)) == []


def test_distinct_spot_value_m1():
    # the swapped-pair case where the product ratio collapses to zero
    r = r_closed_distinct(LambdaSpec(2, 1, [3, 1]))
    assert r.get(0, 1, 1, 0) == Fraction(-1, 2)


@settings(max_examples=40, deadline=None)
@given(distinct_lambda(m1=True))
def test_distinct_reduces_to_m1(lam):
    """At m = 1 the distinct and m1 variants both write the printed m1
    formula."""
    text = r_closed_m1_printed(lam).dumps()
    assert r_closed_distinct(lam).dumps() == text
    assert r_closed_m1(lam).dumps() == text


@pytest.mark.parametrize(
    "n,m", [(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5)]
)
def test_distinct_matches_gram_construction(n, m):
    rng = random.Random(n * 100 + m + 7)
    lam = rand_distinct_lambda(rng, n, m)
    assert compare_tensors(r_closed_distinct(lam), r_from_algebra_fractions(lam)) == []


@settings(max_examples=40, deadline=None)
@given(distinct_lambda())
def test_distinct_matches_reference(lam):
    assert r_closed_distinct(lam).dumps() == r_closed_distinct_reference(lam).dumps()


@settings(max_examples=60, deadline=None)
@given(st.one_of(nondegenerate_lambda(), unrelated_lambda()))
@example(LambdaSpec(6, 3, [0, 1, 2, 1, 0, 0]))  # OTHER: l_0 = l_4, l_1 = l_3
@example(LambdaSpec(8, 4, [0, 0, 0, 0, 1, 1, 1, 1]))  # BLOCK
def test_kernel_matches_gram_construction(lam):
    """The one closed form equals the Gram inverse of the Fraction oracle,
    byte for byte, on every lambda that meets the criterion, the OTHER mode
    included, and on both sides of the common_denominator guard."""
    assert nondegenerate(lam)
    assert r_from_algebra(lam).dumps() == r_from_algebra_fractions(lam).dumps()


@settings(max_examples=30, deadline=None)
@given(
    nondegenerate_lambda(),
    st.fractions(-5, 5, max_denominator=7).filter(bool),
    st.fractions(-5, 5, max_denominator=7),
)
def test_kernel_affine_symmetry(lam, a, b):
    """r(a lambda + b) = r(lambda) / a."""
    moved = r_from_algebra(LambdaSpec(lam.n, lam.m, [a * v + b for v in lam.values]))
    assert moved == Tensor4(lam.n, {k: v / a for k, v in r_from_algebra(lam).iter_items()})


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_relabelling_symmetry(data):
    """Relabelling blocks by s and residues by t, i = blk*m + res to p(i) =
    s(blk)*m + t(res), takes r(lambda) to r(lambda o p^-1), which is
    gl_transform(r(lambda), P) with P[p(j)][j] = 1."""
    lam = data.draw(nondegenerate_lambda())
    n, m = lam.n, lam.m
    s = data.draw(st.permutations(range(n // m)))
    t = data.draw(st.permutations(range(m)))
    p = [s[i // m] * m + t[i % m] for i in range(n)]
    moved = [None] * n
    for i, v in enumerate(lam.values):
        moved[p[i]] = v
    perm = RatMatrix([[1 if p[j] == i else 0 for j in range(n)] for i in range(n)])
    assert r_from_algebra(LambdaSpec(n, m, moved)) == gl_transform(r_from_algebra(lam), perm)


def test_distinct_congruence_sparsity():
    rng = random.Random(17)
    for n, m in [(4, 2), (6, 2), (6, 3)]:
        lam = rand_distinct_lambda(rng, n, m)
        for (a, b, c, d), _ in r_closed_distinct(lam).items():
            assert (a - d) % m == 0
            assert (b - c) % m == 0


def test_distinct_rejects_repeated_lambda():
    with pytest.raises(ValueError):
        r_closed_distinct(LambdaSpec(4, 2, [1, 1, 0, 0]))


@pytest.mark.parametrize(
    "variant,n,m,values",
    [
        ("m1", 2, 1, [2, 1]),
        ("m1", 4, 1, [0, 1, 2, 3]),
        ("block", 4, 2, [1, 1, 0, 0]),
        ("block", 6, 3, [2, 2, 2, -1, -1, -1]),
        ("distinct", 4, 2, [0, 1, 2, 3]),
        ("distinct", 6, 2, [0, 1, 2, 3, 4, 5]),
    ],
)
def test_closed_forms_solve_equation(variant, n, m, values):
    r = r_closed(variant, LambdaSpec(n, m, values))
    assert (check_skew(r), aybe_residual(r)) == ([], [])


def test_unknown_variant():
    with pytest.raises(ValueError):
        r_closed("cubic", LambdaSpec(2, 1, [2, 1]))
