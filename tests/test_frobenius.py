import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aybe import frobenius
from aybe.closedform import r_closed_m1
from aybe.exactlin import RatMatrix, SingularMatrix, common_denominator, mat_inverse, mat_mul
from aybe.frobenius import (
    LambdaSpec,
    _entries,
    _pairings,
    _product,
    bar_index,
    build_basis,
    cocycle_residual,
    r_from_algebra,
)
from aybe.tensor import aybe_residual, check_skew, compare_tensors, transpose_dual
from oracles import (
    NM_SMALL_CLASSES,
    commutator,
    dense,
    diagonal,
    form_eval,
    gram_dense,
    identity,
    mat_inverse_fractions,
    membership_check,
    negate,
    negative,
    nondegenerate,
    r_from_algebra_fractions,
    r_closed_block_printed,
    r_from_matrices,
    rand_block_lambda,
    rand_distinct_lambda,
    rand_fraction,
    rand_matrix,
    trace,
    unrelated_denominators,
    zeros,
)

ALL_NM = [(n, m) for n in range(2, 9) for m in range(1, n) if n % m == 0]


def gram(basis, lam):
    """The Gram matrix from _pairings on the unscaled lambda (r_from_algebra
    inverts L times it, on lambda scaled by its common denominator L)."""
    items = [_entries(e) for e in basis]
    return RatMatrix.from_rows(len(items), frobenius._pairings(items, items, lam.values))


def positions(basis):
    """(i, j) -> position of e_{i,j} in the basis."""
    return {(i, j): k for k, (i, j, _) in enumerate(basis)}


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
    assert LambdaSpec(2, 1, [2, 1]).mode == "DISTINCT"
    assert LambdaSpec(4, 2, [1, 1, 0, 0]).mode == "BLOCK"
    assert LambdaSpec(4, 2, [0, 1, 2, 3]).mode == "DISTINCT"
    assert LambdaSpec(4, 2, [1, 1, 1, 1]).mode == "OTHER"
    assert LambdaSpec(4, 2, [1, 2, 3, 3]).mode == "OTHER"
    assert LambdaSpec(2, 1, [1, 1]).mode == "OTHER"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lambda_modes_distinct_iff_pairwise_distinct(data):
    # require_distinct reads the mode: "DISTINCT" must mean pairwise
    # distinct values for every proper divisor m, block patterns included
    n, m = data.draw(st.sampled_from(ALL_NM))
    if data.draw(st.booleans()):
        per_block = data.draw(st.lists(st.integers(-2, 2), min_size=n // m, max_size=n // m))
        values = [per_block[i // m] for i in range(n)]
    else:
        values = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    lam = LambdaSpec(n, m, values)
    distinct = len(set(values)) == n
    assert (lam.mode == "DISTINCT") == distinct
    if distinct:
        lam.require_distinct()
    else:
        with pytest.raises(ValueError, match="lambda values must be pairwise distinct"):
            lam.require_distinct()


def test_lambda_validation():
    with pytest.raises(ValueError):
        LambdaSpec(4, 3, [0, 1, 2, 3])  # 3 does not divide 4
    with pytest.raises(ValueError):
        LambdaSpec(4, 4, [0, 1, 2, 3])  # must be proper
    with pytest.raises(ValueError):
        LambdaSpec(4, 2, [0, 1, 2])  # wrong length


def test_build_basis_n2_m1():
    basis = build_basis(2, 1)
    assert len(basis) == 2
    # (j, i) ordering: e_{1,0} before e_{0,1}
    assert [(i, j) for i, j, _ in basis] == [(1, 0), (0, 1)]
    assert dense(2, _entries(basis[0])) == RatMatrix([[-1, 0], [1, 0]])
    assert dense(2, _entries(basis[1])) == RatMatrix([[0, 1], [0, -1]])


@pytest.mark.parametrize("n,m", ALL_NM)
def test_build_basis_count_and_membership(n, m):
    basis = build_basis(n, m)
    assert len(basis) == n * (n - m)
    for e in basis:
        assert membership_check(dense(n, _entries(e)), n, m)


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
    lam = LambdaSpec(2, 1, [2, 1])
    x = RatMatrix([[1, 2], [3, 4]])
    assert form_eval(x, x, lam) == 0


def test_form_pairing_values():
    lam = LambdaSpec(2, 1, [2, 1])
    basis = build_basis(2, 1)
    at = positions(basis)
    e01 = dense(2, _entries(basis[at[(0, 1)]]))
    e10 = dense(2, _entries(basis[at[(1, 0)]]))
    assert form_eval(e01, e10, lam) == 1

    lam42 = LambdaSpec(4, 2, [1, 1, 0, 0])
    b42 = build_basis(4, 2)
    at = positions(b42)
    e02 = dense(4, _entries(b42[at[(0, 2)]]))
    e20 = dense(4, _entries(b42[at[(2, 0)]]))
    assert form_eval(e02, e20, lam42) == 1


@pytest.mark.parametrize("seed", range(6))
def test_form_matches_trace_definition(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    lam = LambdaSpec(n, 1, [rand_fraction(rng) for _ in range(n)])
    x, y = rand_matrix(rng, n), rand_matrix(rng, n)
    diag = diagonal(lam.values)
    assert form_eval(x, y, lam) == trace(mat_mul(commutator(x, y), diag))
    assert form_eval(x, y, lam) == -form_eval(y, x, lam)


def test_cocycle_empty_on_examples():
    lam = LambdaSpec(2, 1, [2, 1])
    assert cocycle_residual(lam) == []

    rng = random.Random(11)
    lam_random = LambdaSpec(4, 2, [rand_fraction(rng) for _ in range(4)])
    assert cocycle_residual(lam_random) == []


def test_cocycle_empty_with_repeated_lambda():
    assert cocycle_residual(LambdaSpec(4, 2, [1, 1, 1, 1])) == []


def test_gram_example_custom_order():
    # explicit ordering (e_{0,1}, e_{1,0}) gives [[0, 1], [-1, 0]]
    lam = LambdaSpec(2, 1, [2, 1])
    by_pair = {e[:2]: e for e in build_basis(2, 1)}
    basis = [by_pair[(0, 1)], by_pair[(1, 0)]]
    g = gram(basis, lam)
    assert g == RatMatrix([[0, 1], [-1, 0]])


def test_gram_zero_for_equal_lambda():
    lam = LambdaSpec(2, 1, [1, 1])
    g = gram(build_basis(2, 1), lam)
    assert g == zeros(2, 2)


@pytest.mark.parametrize("seed", range(5))
def test_gram_antisymmetric(seed):
    rng = random.Random(40 + seed)
    n, m = rng.choice([(2, 1), (3, 1), (4, 2)])
    lam = LambdaSpec(n, m, [rand_fraction(rng) for _ in range(n)])
    g = gram(build_basis(n, m), lam)
    assert g.transpose() == negative(g)


GRAM_NM = [(4, 1), (4, 2), (6, 2), (6, 3), (8, 4)]


@functools.cache
def _products(n, m):
    """The nonzero products e_j e_k of the basis at (n, m), sparse and dense
    (test_sparse_product_matches_dense checks that the zero ones agree)."""
    basis = build_basis(n, m)
    pairs = [(y, z, mat_mul(dense(n, _entries(y)), dense(n, _entries(z)))) for y in basis for z in basis]
    pairs = [(y, z, yz) for y, z, yz in pairs if yz != zeros(n, n)]
    return [_product(_entries(y), _entries(z)) for y, z, _ in pairs], [yz for _, _, yz in pairs]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gram_matches_dense_form(data):
    # lambdas from a pool of at most three values repeat, so zero pairings,
    # degenerate and all-zero Gram matrices are drawn too
    n, m = data.draw(st.sampled_from(GRAM_NM))
    pool = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3))
    lam = LambdaSpec(n, m, data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    basis = build_basis(n, m)
    mats = [dense(n, _entries(e)) for e in basis]
    assert gram(basis, lam) == gram_dense(mats, lam)
    # the same pairing routine against the products the cocycle check uses
    sparse, dense_products = _products(n, m)
    grid = [{t: v for t, yz in enumerate(dense_products) if (v := form_eval(x, yz, lam))} for x in mats]
    assert _pairings([_entries(e) for e in basis], sparse, lam.values) == grid


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_gram_block_mode_structure(n, m):
    rng = random.Random(n * 10 + m)
    lam = rand_block_lambda(rng, n, m)
    basis = build_basis(n, m)
    g = gram(basis, lam)
    at = positions(basis)
    # exactly one nonzero per row, pairing (i,j) with (j,i), value l_i - l_j
    for pos, (i, j, _) in enumerate(basis):
        row = g[pos]
        nonzero = [(k, v) for k, v in enumerate(row) if v]
        assert len(nonzero) == 1
        k, v = nonzero[0]
        assert k == at[(j, i)]
        assert v == lam.values[i] - lam.values[j]


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_gram_distinct_mode_nondegenerate(n, m):
    rng = random.Random(500 + n * 10 + m)
    for _ in range(20):
        lam = rand_distinct_lambda(rng, n, m)
        mat_inverse(gram(build_basis(n, m), lam))


def test_r_from_algebra_n2_matches_closed_form():
    lam = LambdaSpec(2, 1, [2, 1])
    r = r_from_algebra(lam)
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
    lam = LambdaSpec(2, 1, [1, 1])
    with pytest.raises(SingularMatrix) as exc:
        r_from_algebra(lam)
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
    assert len(build_basis(n, m)) == dim
    with pytest.raises(SingularMatrix) as exc:
        r_from_algebra(LambdaSpec(n, m, values))
    assert exc.value.rank == rank


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gram_rank_matches_fraction_elimination(data):
    """On degenerate lambdas (a value repeated within a residue class, so
    mode OTHER), the rank that r_from_algebra reports is the rank that the
    Fraction elimination finds on the same Gram rows."""
    n, m = data.draw(st.sampled_from([(n, m) for n, m in ALL_NM if n >= 4]))
    values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n))
    r = data.draw(st.integers(0, m - 1))
    i, j = data.draw(st.lists(st.sampled_from(range(r, n, m)), min_size=2, max_size=2, unique=True))
    values[j] = values[i]
    lam = LambdaSpec(n, m, values)
    assert lam.mode == "OTHER" and not nondegenerate(lam)
    with pytest.raises(SingularMatrix) as expected:
        mat_inverse_fractions(gram(build_basis(n, m), lam))
    with pytest.raises(SingularMatrix) as got:
        r_from_algebra(lam)
    assert got.value.rank == expected.value.rank


RANK_NM = [(n, m) for n in range(4, 13) for m in range(1, n) if n % m == 0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gram_rank_count_matches_elimination(data):
    """The Gram rank that r_from_algebra counts on degenerate lambdas is the
    rank the Fraction elimination finds on the Gram rows, and the Gram
    matrix is invertible exactly when lambda is distinct within every
    residue class."""
    n, m = data.draw(st.sampled_from(RANK_NM))
    size = n // m
    # a small pool, so that values repeat across classes (mode OTHER) and,
    # on the degenerate side, within them
    pool = data.draw(st.lists(st.fractions(-9, 9, max_denominator=3), min_size=size, max_size=size + 2, unique=True))
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        r = data.draw(st.integers(0, m - 1))  # a value repeated within class r
        i, j = data.draw(st.permutations(range(r, n, m)))[:2]
        values[j] = values[i]
    else:
        values = [None] * n
        for r in range(m):
            values[r::m] = data.draw(st.permutations(pool))[:size]
    lam = LambdaSpec(n, m, values)
    rows = gram(build_basis(n, m), lam)
    if nondegenerate(lam):
        mat_inverse_fractions(rows)
        r_from_algebra(lam)
    else:
        with pytest.raises(SingularMatrix) as expected:
            mat_inverse_fractions(rows)
        with pytest.raises(SingularMatrix) as got:
            r_from_algebra(lam)
        assert got.value.rank == expected.value.rank


def test_r_from_algebra_matches_block_closed_form():
    lam = LambdaSpec(4, 2, [1, 1, 0, 0])
    r = r_from_algebra(lam)
    assert compare_tensors(r, r_closed_block_printed(lam)) == []


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
    lam = LambdaSpec(n, m, values)
    r = r_from_algebra(lam)
    assert (check_skew(r), aybe_residual(r)) == ([], [])


def test_other_mode_attempted_not_prerejected():
    # repeated lambda outside the block pattern: construction is attempted,
    # and an invertible form still yields a valid solution
    lam = LambdaSpec(4, 2, [0, 0, 1, 2])
    assert lam.mode == "OTHER"
    r = r_from_algebra(lam)
    assert (check_skew(r), aybe_residual(r)) == ([], [])

    with pytest.raises(SingularMatrix):
        r_from_algebra(LambdaSpec(4, 2, [1, 1, 1, 1]))


def test_transposed_basis_gives_negated_dual():
    # transposition flips the sign of the trace form, so building from the
    # transposed algebra yields the negative of the index-swapped dual
    lam = LambdaSpec(4, 2, [1, 1, 0, 0])
    r = r_from_algebra(lam)
    r_t = r_from_matrices([dense(4, _entries(e)).transpose() for e in build_basis(4, 2)], lam)
    assert r_t == negate(transpose_dual(r))
    assert (check_skew(r_t), aybe_residual(r_t)) == ([], [])


DENSE_NM = [(4, 1), (4, 2), (6, 3)]


@pytest.mark.parametrize("n,m", DENSE_NM)
def test_sparse_product_matches_dense(n, m):
    # (x,yz) + (y,zx) + (z,xy) = 0 holds for any matrices, so an empty
    # cocycle residual cannot catch a product that drops terms
    basis = build_basis(n, m)
    for y in basis:
        for z in basis:
            expected = mat_mul(dense(n, _entries(y)), dense(n, _entries(z)))
            assert dense(n, _product(_entries(y), _entries(z))) == expected


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
    lam = LambdaSpec(n, m, [Fraction(k * k + 1, k + 2) for k in range(n)])
    basis = build_basis(n, m)
    mats = [dense(n, _entries(e)) for e in basis]
    first = {(j, k): form_eval(mats[0], mat_mul(y, z), lam) for j, y in enumerate(mats) for k, z in enumerate(mats)}
    expected = []
    for a, b, c in product(range(len(mats)), repeat=3):
        v = sum(first[jk] for x, jk in ((a, (b, c)), (b, (c, a)), (c, (a, b))) if x == 0)
        if v:
            expected.append(((a, b, c), v))
    assert expected and all(0 in key for key, _ in expected)
    assert gram(basis, lam) == gram_dense(mats, lam)
    assert cocycle_residual(lam) == expected


@pytest.mark.parametrize("n,m", DENSE_NM)
def test_r_from_algebra_matches_dense_matrices(n, m):
    mats = [dense(n, _entries(e)) for e in build_basis(n, m)]
    patterns = [
        [Fraction(k * k + 1, k + 2) for k in range(n)],
        [i // m for i in range(n)],
        [1] * n,
        [i % 2 for i in range(n)],
    ]
    degenerate = 0
    for values in patterns:
        lam = LambdaSpec(n, m, values)
        try:
            r = r_from_algebra(lam)
        except SingularMatrix as exc:
            degenerate += 1
            with pytest.raises(SingularMatrix) as dense_exc:
                r_from_matrices(mats, lam)
            assert dense_exc.value.rank == exc.rank
        else:
            assert r_from_matrices(mats, lam) == r
    assert degenerate >= 1


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_r_from_algebra_matches_fraction_assembly(data):
    # on both sides of the common_denominator guard: n >= 5 lambdas over
    # unrelated 2000-digit denominators keep their Fractions, small ones
    # run the Gram rows and the assembly on ints
    unrelated = data.draw(st.booleans())
    if unrelated:
        n, m = data.draw(st.sampled_from([(5, 1), (6, 3)]))
        nums = st.integers(-50, 50).filter(bool)
        values = [Fraction(data.draw(nums), d) for d in unrelated_denominators(n)]
    else:
        n, m = data.draw(st.sampled_from(GRAM_NM))
        values = data.draw(st.lists(st.fractions(-5, 5, max_denominator=9), min_size=n, max_size=n))
    lam = LambdaSpec(n, m, values)
    assert (type(common_denominator(list(lam.values))[1][0]) is int) != unrelated
    try:
        expected = r_from_algebra_fractions(lam)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as got:
            r_from_algebra(lam)
        assert got.value.rank == exc.rank
    else:
        assert r_from_algebra(lam) == expected
    if unrelated:
        assert cocycle_residual(lam) == []


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(NM_SMALL_CLASSES).flatmap(
        lambda nm: st.lists(st.integers(0, 3), min_size=nm[0], max_size=nm[0]).map(lambda v: LambdaSpec(*nm, v))
    )
)
@example(LambdaSpec(6, 3, [0, 1, 2, 1, 0, 0]))  # OTHER, nondegenerate
@example(LambdaSpec(6, 3, [0, 1, 2, 0, 2, 1]))  # OTHER, a value repeated in class 0
def test_degenerate_exactly_when_criterion_fails(lam):
    """r_from_algebra raises SingularMatrix exactly when lambda repeats a
    value within a residue class mod m; lambda_i in {0..3}, so both sides
    occur."""
    try:
        r_from_algebra(lam)
    except SingularMatrix:
        assert not nondegenerate(lam)
    else:
        assert nondegenerate(lam)


def test_shape_mismatch_errors():
    with pytest.raises(ValueError):
        form_eval(identity(3), identity(3), LambdaSpec(2, 1, [0, 1]))
