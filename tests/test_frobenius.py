import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aybe import frobenius
from aybe.closedform import r_closed_block, r_closed_m1
from aybe.exactlin import RatMatrix, SingularMatrix, mat_inverse, mat_mul
from aybe.frobenius import (
    AlgebraBasis,
    DegenerateForm,
    LambdaMode,
    _pairings,
    _product,
    bar_index,
    build_basis,
    cocycle_residual,
    make_lambda,
    r_from_algebra,
)
from aybe.tensor import aybe_report, compare_tensors, transpose_dual
from oracles import (
    commutator,
    dense,
    diagonal,
    form_eval,
    gram_dense,
    identity,
    membership_check,
    negate,
    negative,
    r_from_matrices,
    rand_block_lambda,
    rand_distinct_lambda,
    rand_fraction,
    rand_matrix,
    trace,
    zeros,
)

ALL_NM = [(n, m) for n in range(2, 9) for m in range(1, n) if n % m == 0]


def gram(basis, lam):
    """The Gram matrix as r_from_algebra builds it, from _pairings."""
    items = [e.entries for e in basis.elements]
    return RatMatrix.from_rows(len(items), frobenius._pairings(items, items, lam.values))


def positions(basis):
    """(i, j) -> position of e_{i,j} in the basis."""
    return {(e.i, e.j): k for k, e in enumerate(basis.elements)}


def test_bar_index_same_block():
    for m in (1, 2, 3):
        for i in range(6):
            assert bar_index(i, i, m) == i


def test_bar_index_example():
    assert bar_index(0, 2, 2) == 2


def test_bar_index_m1():
    for i in range(4):
        for j in range(4):
            assert bar_index(i, j, 1) == j


def test_lambda_modes():
    assert make_lambda(2, 1, [2, 1]).mode is LambdaMode.DISTINCT
    assert make_lambda(4, 2, [1, 1, 0, 0]).mode is LambdaMode.BLOCK
    assert make_lambda(4, 2, [0, 1, 2, 3]).mode is LambdaMode.DISTINCT
    assert make_lambda(4, 2, [1, 1, 1, 1]).mode is LambdaMode.OTHER
    assert make_lambda(4, 2, [1, 2, 3, 3]).mode is LambdaMode.OTHER
    assert make_lambda(2, 1, [1, 1]).mode is LambdaMode.OTHER


def test_lambda_validation():
    with pytest.raises(ValueError):
        make_lambda(4, 3, [0, 1, 2, 3])  # 3 does not divide 4
    with pytest.raises(ValueError):
        make_lambda(4, 4, [0, 1, 2, 3])  # must be proper
    with pytest.raises(ValueError):
        make_lambda(4, 2, [0, 1, 2])  # wrong length


def test_build_basis_n2_m1():
    basis = build_basis(2, 1)
    assert len(basis) == 2
    # (j, i) ordering: e_{1,0} before e_{0,1}
    assert [(e.i, e.j) for e in basis.elements] == [(1, 0), (0, 1)]
    assert dense(2, basis.elements[0].entries) == RatMatrix([[-1, 0], [1, 0]])
    assert dense(2, basis.elements[1].entries) == RatMatrix([[0, 1], [0, -1]])


@pytest.mark.parametrize("n,m", ALL_NM)
def test_build_basis_count_and_membership(n, m):
    basis = build_basis(n, m)
    assert len(basis) == n * (n - m)
    for e in basis.elements:
        assert membership_check(dense(n, e.entries), n, m)


def test_build_basis_rejects_bad_m():
    with pytest.raises(ValueError):
        build_basis(4, 4)
    with pytest.raises(ValueError):
        build_basis(4, 3)
    with pytest.raises(ValueError):
        build_basis(4, 0)


def test_membership_examples():
    assert membership_check(zeros(3, 3), 3, 1)
    assert membership_check(RatMatrix([[0, 1], [0, -1]]), 2, 1)
    e00 = RatMatrix([[1, 0], [0, 0]])
    assert not membership_check(e00, 2, 1)
    with pytest.raises(ValueError):
        membership_check(e00, 3, 1)


def test_form_self_is_zero():
    lam = make_lambda(2, 1, [2, 1])
    x = RatMatrix([[1, 2], [3, 4]])
    assert form_eval(x, x, lam) == 0


def test_form_pairing_values():
    lam = make_lambda(2, 1, [2, 1])
    basis = build_basis(2, 1)
    at = positions(basis)
    e01 = dense(2, basis.elements[at[(0, 1)]].entries)
    e10 = dense(2, basis.elements[at[(1, 0)]].entries)
    assert form_eval(e01, e10, lam) == 1

    lam42 = make_lambda(4, 2, [1, 1, 0, 0])
    b42 = build_basis(4, 2)
    at = positions(b42)
    e02 = dense(4, b42.elements[at[(0, 2)]].entries)
    e20 = dense(4, b42.elements[at[(2, 0)]].entries)
    assert form_eval(e02, e20, lam42) == 1


@pytest.mark.parametrize("seed", range(6))
def test_form_matches_trace_definition(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    lam = make_lambda(n, 1, [rand_fraction(rng) for _ in range(n)])
    x, y = rand_matrix(rng, n), rand_matrix(rng, n)
    diag = diagonal(lam.values)
    assert form_eval(x, y, lam) == trace(mat_mul(commutator(x, y), diag))
    assert form_eval(x, y, lam) == -form_eval(y, x, lam)


def test_cocycle_empty_on_examples():
    basis = build_basis(2, 1)
    lam = make_lambda(2, 1, [2, 1])
    assert cocycle_residual(basis, lam) == []

    rng = random.Random(11)
    basis42 = build_basis(4, 2)
    lam_random = make_lambda(4, 2, [rand_fraction(rng) for _ in range(4)])
    assert cocycle_residual(basis42, lam_random) == []


def test_cocycle_empty_with_repeated_lambda():
    basis = build_basis(4, 2)
    assert cocycle_residual(basis, make_lambda(4, 2, [1, 1, 1, 1])) == []


def test_gram_example_custom_order():
    # explicit ordering (e_{0,1}, e_{1,0}) gives [[0, 1], [-1, 0]]
    lam = make_lambda(2, 1, [2, 1])
    default = build_basis(2, 1)
    by_pair = {(e.i, e.j): e for e in default.elements}
    basis = AlgebraBasis(2, 1, [by_pair[(0, 1)], by_pair[(1, 0)]])
    g = gram(basis, lam)
    assert g == RatMatrix([[0, 1], [-1, 0]])


def test_gram_zero_for_equal_lambda():
    lam = make_lambda(2, 1, [1, 1])
    g = gram(build_basis(2, 1), lam)
    assert g == zeros(2, 2)


@pytest.mark.parametrize("seed", range(5))
def test_gram_antisymmetric(seed):
    rng = random.Random(40 + seed)
    n, m = rng.choice([(2, 1), (3, 1), (4, 2)])
    lam = make_lambda(n, m, [rand_fraction(rng) for _ in range(n)])
    g = gram(build_basis(n, m), lam)
    assert g.transpose() == negative(g)


GRAM_NM = [(4, 1), (4, 2), (6, 2), (6, 3), (8, 4)]


@functools.cache
def _products(n, m):
    """The nonzero products e_j e_k of the basis at (n, m), sparse and dense
    (test_sparse_product_matches_dense checks that the zero ones agree)."""
    basis = build_basis(n, m)
    pairs = [(y, z, mat_mul(dense(n, y.entries), dense(n, z.entries))) for y in basis.elements for z in basis.elements]
    pairs = [(y, z, yz) for y, z, yz in pairs if yz != zeros(n, n)]
    return [_product(y.entries, z.entries) for y, z, _ in pairs], [yz for _, _, yz in pairs]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gram_matches_dense_form(data):
    # lambdas from a pool of at most three values repeat, so zero pairings,
    # degenerate and all-zero Gram matrices are drawn too
    n, m = data.draw(st.sampled_from(GRAM_NM))
    pool = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3))
    lam = make_lambda(n, m, data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    basis = build_basis(n, m)
    mats = [dense(n, e.entries) for e in basis.elements]
    assert gram(basis, lam) == gram_dense(mats, lam)
    # the same pairing routine against the products the cocycle check uses
    sparse, dense_products = _products(n, m)
    grid = [{t: v for t, yz in enumerate(dense_products) if (v := form_eval(x, yz, lam))} for x in mats]
    assert _pairings([e.entries for e in basis.elements], sparse, lam.values) == grid


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_gram_block_mode_structure(n, m):
    rng = random.Random(n * 10 + m)
    lam = rand_block_lambda(rng, n, m)
    basis = build_basis(n, m)
    g = gram(basis, lam)
    at = positions(basis)
    # exactly one nonzero per row, pairing (i,j) with (j,i), value l_i - l_j
    for pos, e in enumerate(basis.elements):
        row = g[pos]
        nonzero = [(k, v) for k, v in enumerate(row) if v]
        assert len(nonzero) == 1
        k, v = nonzero[0]
        assert k == at[(e.j, e.i)]
        assert v == lam.values[e.i] - lam.values[e.j]


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_gram_distinct_mode_nondegenerate(n, m):
    rng = random.Random(500 + n * 10 + m)
    for _ in range(20):
        lam = rand_distinct_lambda(rng, n, m)
        mat_inverse(gram(build_basis(n, m), lam))


def test_r_from_algebra_n2_matches_closed_form():
    lam = make_lambda(2, 1, [2, 1])
    r = r_from_algebra(build_basis(2, 1), lam)
    expected = {
        (0, 0, 0, 1): Fraction(-1),
        (0, 0, 1, 0): Fraction(1),
        (0, 1, 0, 1): Fraction(1),
        (0, 1, 1, 0): Fraction(-1),
        (1, 0, 0, 1): Fraction(1),
        (1, 0, 1, 0): Fraction(-1),
        (1, 1, 0, 1): Fraction(-1),
        (1, 1, 1, 0): Fraction(1),
    }
    assert dict(r.items()) == expected
    assert compare_tensors(r, r_closed_m1(lam)) == []


def test_r_from_algebra_degenerate():
    lam = make_lambda(2, 1, [1, 1])
    with pytest.raises(DegenerateForm) as exc:
        r_from_algebra(build_basis(2, 1), lam)
    assert exc.value.rank == 0


@pytest.mark.parametrize(
    "n, m, values, dim, rank",
    [
        (4, 1, (0, 0, 1, 2), 12, 10),
        (4, 1, (0, 0, 1, 1), 12, 8),
        (4, 2, (0, 1, 0, 2), 8, 4),
        (6, 3, (0, 1, 2, 0, 1, 2), 18, 6),
    ],
)
def test_degenerate_gram_rank(n, m, values, dim, rank):
    """Degenerate lambdas where the Gram matrix keeps part of its rank."""
    basis = build_basis(n, m)
    assert len(basis.elements) == dim
    with pytest.raises(DegenerateForm) as exc:
        r_from_algebra(basis, make_lambda(n, m, values))
    assert exc.value.rank == rank


def test_r_from_algebra_matches_block_closed_form():
    lam = make_lambda(4, 2, [1, 1, 0, 0])
    r = r_from_algebra(build_basis(4, 2), lam)
    assert compare_tensors(r, r_closed_block(lam)) == []


@pytest.mark.parametrize(
    "n,m,values",
    [
        (2, 1, [2, 1]),
        (3, 1, [0, 1, 2]),
        (4, 2, [1, 1, 0, 0]),
        (4, 2, [0, 1, 2, 3]),
        (6, 3, [5, 5, 5, 1, 1, 1]),
    ],
)
def test_r_from_algebra_solves_equation(n, m, values):
    lam = make_lambda(n, m, values)
    r = r_from_algebra(build_basis(n, m), lam)
    assert aybe_report(r).passed


def test_other_mode_attempted_not_prerejected():
    # repeated lambda outside the block pattern: construction is attempted,
    # and an invertible form still yields a valid solution
    lam = make_lambda(4, 2, [0, 0, 1, 2])
    assert lam.mode is LambdaMode.OTHER
    r = r_from_algebra(build_basis(4, 2), lam)
    assert aybe_report(r).passed

    with pytest.raises(DegenerateForm):
        r_from_algebra(build_basis(4, 2), make_lambda(4, 2, [1, 1, 1, 1]))


def test_transposed_basis_gives_negated_dual():
    # transposition flips the sign of the trace form, so building from the
    # transposed algebra yields the negative of the index-swapped dual
    lam = make_lambda(4, 2, [1, 1, 0, 0])
    basis = build_basis(4, 2)
    r = r_from_algebra(basis, lam)
    r_t = r_from_matrices([dense(4, e.entries).transpose() for e in basis.elements], lam)
    assert r_t == negate(transpose_dual(r))
    assert aybe_report(r_t).passed


DENSE_NM = [(4, 1), (4, 2), (6, 3)]


@pytest.mark.parametrize("n,m", DENSE_NM)
def test_sparse_product_matches_dense(n, m):
    # (x,yz) + (y,zx) + (z,xy) = 0 holds for any matrices, so an empty
    # cocycle residual cannot catch a product that drops terms
    basis = build_basis(n, m)
    for y in basis.elements:
        for z in basis.elements:
            expected = mat_mul(dense(n, y.entries), dense(n, z.entries))
            assert dense(n, _product(y.entries, z.entries)) == expected


@pytest.mark.parametrize("n,m", DENSE_NM)
def test_cocycle_places_each_pairing_at_three_rotations(n, m, monkeypatch):
    # the identity holds for any matrices, so an empty residual cannot
    # catch a join that drops or misrotates terms; doubling the pairings of
    # e_0 with the products leaves (e_0, e_j e_k) once more at each of the
    # triples (0, j, k), (k, 0, j) and (j, k, 0)
    pairings = frobenius._pairings

    def doubled(xs, ys, values):
        rows = pairings(xs, ys, values)
        if ys is not xs:
            rows[0] = {t: 2 * v for t, v in rows[0].items()}
        return rows

    monkeypatch.setattr(frobenius, "_pairings", doubled)
    lam = make_lambda(n, m, [Fraction(k * k + 1, k + 2) for k in range(n)])
    basis = build_basis(n, m)
    mats = [dense(n, e.entries) for e in basis.elements]
    first = {(j, k): form_eval(mats[0], mat_mul(y, z), lam) for j, y in enumerate(mats) for k, z in enumerate(mats)}
    expected = []
    for a, b, c in product(range(len(mats)), repeat=3):
        v = sum(first[jk] for x, jk in ((a, (b, c)), (b, (c, a)), (c, (a, b))) if x == 0)
        if v:
            expected.append(((a, b, c), v))
    assert expected and all(0 in key for key, _ in expected)
    assert gram(basis, lam) == gram_dense(mats, lam)
    assert cocycle_residual(basis, lam) == expected


@pytest.mark.parametrize("n,m", DENSE_NM)
def test_r_from_algebra_matches_dense_matrices(n, m):
    basis = build_basis(n, m)
    mats = [dense(n, e.entries) for e in basis.elements]
    patterns = [
        [Fraction(k * k + 1, k + 2) for k in range(n)],
        [i // m for i in range(n)],
        [1] * n,
        [i % 2 for i in range(n)],
    ]
    degenerate = 0
    for values in patterns:
        lam = make_lambda(n, m, values)
        try:
            r = r_from_algebra(basis, lam)
        except DegenerateForm as exc:
            degenerate += 1
            with pytest.raises(SingularMatrix) as dense_exc:
                r_from_matrices(mats, lam)
            assert dense_exc.value.rank == exc.rank
        else:
            assert r_from_matrices(mats, lam) == r
    assert degenerate >= 1


def test_shape_mismatch_errors():
    basis = build_basis(4, 2)
    with pytest.raises(ValueError):
        r_from_algebra(basis, make_lambda(6, 2, [0, 1, 2, 3, 4, 5]))
    with pytest.raises(ValueError):
        form_eval(identity(3), identity(3), make_lambda(2, 1, [0, 1]))
