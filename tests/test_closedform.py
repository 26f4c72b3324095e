import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aybe.closedform import (
    r_closed,
    r_closed_block,
    r_closed_distinct,
    r_closed_m1,
)
from aybe.frobenius import make_lambda, r_from_algebra
from aybe.tensor import aybe_report, compare_tensors
from oracles import r_closed_distinct_reference, rand_block_lambda, rand_distinct_lambda


def test_m1_n2_frozen_values():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
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
        r = r_closed_m1(make_lambda(n, 1, list(range(n))))
        assert r.nnz == 4 * n * (n - 1)


def test_m1_rejects_repeated_lambda():
    with pytest.raises(ValueError):
        r_closed_m1(make_lambda(2, 1, [1, 1]))


def test_m1_rejects_wrong_m():
    with pytest.raises(ValueError):
        r_closed_m1(make_lambda(4, 2, [0, 1, 2, 3]))


def test_m1_matches_gram_construction():
    lam = make_lambda(3, 1, [0, 1, 2])
    assert compare_tensors(r_closed_m1(lam), r_from_algebra(lam)) == []


def test_block_reduces_to_m1():
    for n in (2, 3, 4):
        lam = make_lambda(n, 1, [Fraction(1, k + 2) for k in range(n)])
        assert compare_tensors(r_closed_block(lam), r_closed_m1(lam)) == []


def test_block_42_spot_values():
    lam = make_lambda(4, 2, [1, 1, 0, 0])
    r = r_closed_block(lam)
    assert r.get(2, 0, 0, 2) == 1
    for a in range(4):
        for b in range(4):
            assert r.get(a, b, 0, 1) == 0


def test_block_rejects_non_block_lambda():
    with pytest.raises(ValueError):
        r_closed_block(make_lambda(4, 2, [1, 1, 1, 1]))
    with pytest.raises(ValueError):
        r_closed_block(make_lambda(4, 2, [0, 1, 2, 3]))


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
def test_block_matches_gram_construction(n, m):
    rng = random.Random(n * 100 + m)
    lam = rand_block_lambda(rng, n, m)
    assert compare_tensors(r_closed_block(lam), r_from_algebra(lam)) == []


def test_distinct_spot_value_m1():
    # the swapped-pair case where the product ratio collapses to zero
    r = r_closed_distinct(make_lambda(2, 1, [3, 1]))
    assert r.get(0, 1, 1, 0) == Fraction(-1, 2)


def test_distinct_reduces_to_m1():
    rng = random.Random(9)
    for n in (2, 3, 4):
        lam = rand_distinct_lambda(rng, n, 1)
        assert compare_tensors(r_closed_distinct(lam), r_closed_m1(lam)) == []


@pytest.mark.parametrize(
    "n,m", [(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 5)]
)
def test_distinct_matches_gram_construction(n, m):
    rng = random.Random(n * 100 + m + 7)
    lam = rand_distinct_lambda(rng, n, m)
    assert compare_tensors(r_closed_distinct(lam), r_from_algebra(lam)) == []


LAMBDA_FAMILIES = {
    "small": st.builds(Fraction, st.integers(-20, 20), st.integers(1, 10)),
    "30-bit": st.integers(2**29, 2**30),
    "2000-digit": st.builds(Fraction, st.integers(10**1999, 10**2000), st.integers(1, 2**30)),
}


@st.composite
def distinct_lambda(draw):
    """n <= 9 with any proper divisor m, m = 1 included; 2000-digit values
    only up to n = 5, where the oracle's n^5/m^3 products of 2000-digit
    numbers still take well under a second."""
    family = draw(st.sampled_from(list(LAMBDA_FAMILIES)))
    n = draw(st.integers(2, 5 if family == "2000-digit" else 9))
    m = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    values = draw(st.lists(LAMBDA_FAMILIES[family], min_size=n, max_size=n, unique=True))
    return make_lambda(n, m, values)


@settings(max_examples=40, deadline=None)
@given(distinct_lambda())
def test_distinct_matches_reference(lam):
    assert r_closed_distinct(lam).dumps() == r_closed_distinct_reference(lam).dumps()


def test_distinct_congruence_sparsity():
    rng = random.Random(17)
    for n, m in [(4, 2), (6, 2), (6, 3)]:
        lam = rand_distinct_lambda(rng, n, m)
        for (a, b, c, d), _ in r_closed_distinct(lam).items():
            assert (a - d) % m == 0
            assert (b - c) % m == 0


def test_distinct_rejects_repeated_lambda():
    with pytest.raises(ValueError):
        r_closed_distinct(make_lambda(4, 2, [1, 1, 0, 0]))


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
    r = r_closed(variant, make_lambda(n, m, values))
    assert aybe_report(r) == ([], [])


def test_unknown_variant():
    with pytest.raises(ValueError):
        r_closed("cubic", make_lambda(2, 1, [2, 1]))
