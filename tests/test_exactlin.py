import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aybe.closedform import r_closed_distinct, r_closed_m1
from aybe.exactlin import (
    LCM_FLOOR_BITS,
    MAX_LITERAL_CHARS,
    RatMatrix,
    SingularMatrix,
    common_denominator,
    format_rational,
    load_json,
    mat_inverse,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
)
from aybe.frobenius import LambdaSpec, _entries, _pairings, build_basis, r_from_algebra
from oracles import (
    commutator,
    identity,
    leibniz,
    mat_inverse_fractions,
    negative,
    rand_invertible,
    rand_matrix,
    trace,
    unrelated_denominators,
    zeros,
)

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=10
)


def square_matrix_st(n):
    return st.lists(
        st.lists(fractions_st, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RatMatrix)


def test_parse_rational_canonical_forms():
    assert parse_rational("0") == 0
    assert parse_rational("-3") == -3
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("2/4") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "1/0", "1/-2", "--2", "1//2", "١/٢", "１"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_literal_length_limit():
    # a literal of MAX_LITERAL_CHARS characters is read, one more is
    # refused before int() sees it: as a rational and as a JSON integer
    at = "-" + "7" * (MAX_LITERAL_CHARS - 3) + "/9"
    assert parse_rational(at) == Fraction(-int(at[1:-2]), 9)
    digits = "7" * MAX_LITERAL_CHARS
    assert load_json(f"[{digits}]") == [int(digits)]
    message = f"literal length = {MAX_LITERAL_CHARS + 1} characters exceeds the limit of {MAX_LITERAL_CHARS}"
    for bad in (at + "1", "1" + digits):
        with pytest.raises(ValueError, match=message):
            parse_rational(bad)
    with pytest.raises(ValueError, match=message):
        load_json(f'{{"n": {digits}1}}')


def test_load_json_scans_every_digit_run():
    # the scan before json.loads counts a run's leading "-" and looks inside
    # strings and fractional parts too; runs at the limit still read
    digits = "7" * MAX_LITERAL_CHARS
    assert load_json(f'["{digits}", -{digits[1:]}, 0.{digits}, "x{digits}"]')[0] == digits
    message = f"literal length = {MAX_LITERAL_CHARS + 1} characters exceeds the limit of {MAX_LITERAL_CHARS}"
    for bad in (f'["{digits}1"]', f"[-{digits}]", f"[1, 0.{digits}1]", f'{{"v": "1/{digits}1"}}'):
        with pytest.raises(ValueError, match=message):
            load_json(bad)


def test_format_rational_round_trip():
    for v in [Fraction(0), Fraction(-3), Fraction(5, 2), Fraction(-7, 3)]:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(3, 1)) == "3"


def test_mat_mul_identity():
    a = RatMatrix([[1, 2], [3, 4]])
    assert mat_mul(identity(2), a) == a


def test_mat_mul_unit_matrices():
    e01 = RatMatrix([[0, 1], [0, 0]])
    e10 = RatMatrix([[0, 0], [1, 0]])
    assert mat_mul(e01, e10) == RatMatrix([[1, 0], [0, 0]])


def test_mat_mul_diagonal_inverse_pair():
    a = RatMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    b = RatMatrix([[2, 0], [0, 3]])
    assert mat_mul(a, b) == identity(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(RatMatrix([[1, 2]]), RatMatrix([[1, 2]]))


def test_commutator_self_is_zero():
    x = RatMatrix([[1, 2], [3, 4]])
    assert commutator(x, x) == zeros(2, 2)


def test_commutator_unit_matrices():
    e01 = RatMatrix([[0, 1], [0, 0]])
    e10 = RatMatrix([[0, 0], [1, 0]])
    assert commutator(e01, e10) == RatMatrix([[1, 0], [0, -1]])


def test_commutator_with_identity():
    a = RatMatrix([[5, -1], [2, 7]])
    assert commutator(identity(2), a) == zeros(2, 2)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(identity(2), identity(3))


def test_inverse_identity():
    assert mat_inverse(identity(3)) == identity(3)


def test_inverse_rotation():
    j = RatMatrix([[0, 1], [-1, 0]])
    assert mat_inverse(j) == RatMatrix([[0, -1], [1, 0]])
    assert repr(mat_inverse(RatMatrix([[0, 2], [-1, 0]]))) == "RatMatrix(2x2: 0 -1; 1/2 0)"


@pytest.mark.parametrize("entries,message", [
    ([], "at least one row and one column"),
    ([[]], "at least one row and one column"),
    ([[1], [1, 2]], "rows have unequal lengths"),
])
def test_matrix_shape_refused(entries, message):
    with pytest.raises(ValueError, match=message):
        RatMatrix(entries)


def test_inverse_needs_square_matrix():
    with pytest.raises(ValueError, match="inverse needs a square matrix"):
        mat_inverse(RatMatrix([[1, 2]]))


def test_elimination_needs_square_matrix():
    # mat_inverse is the elimination itself: a tall matrix is refused as a wide one is
    with pytest.raises(ValueError, match="inverse needs a square matrix"):
        mat_inverse(RatMatrix([[1], [2]]))


def test_inverse_singular_carries_rank():
    with pytest.raises(SingularMatrix) as exc:
        mat_inverse(RatMatrix([[1, 1], [1, 1]]))
    assert exc.value.rank == 1


# the determinant oracle


def test_determinant_identity():
    assert leibniz(identity(4)) == 1


def test_determinant_rotation():
    assert leibniz(RatMatrix([[0, 1], [-1, 0]])) == 1


def test_determinant_repeated_rows():
    assert leibniz(RatMatrix([[1, 1], [1, 1]])) == 0


def test_trace():
    assert trace(RatMatrix([[1, 2], [3, 4]])) == 5


@settings(max_examples=40, deadline=None)
@given(square_matrix_st(3), square_matrix_st(3))
def test_commutator_antisymmetry(x, y):
    assert commutator(x, y) == negative(commutator(y, x))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_inverse_round_trip(seed):
    rng = random.Random(seed)
    a = rand_invertible(rng, 3)
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == identity(3)
    assert mat_mul(inv, a) == identity(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_determinant_zero_iff_singular(seed):
    rng = random.Random(seed)
    a = rand_matrix(rng, rng.choice([2, 3]))
    if rng.random() < 0.5:
        # force a rank drop by repeating a row
        rows = [list(row) for row in (a[i] for i in range(a.rows))]
        rows[-1] = rows[0]
        a = RatMatrix(rows)
    if leibniz(a) == 0:
        with pytest.raises(SingularMatrix):
            mat_inverse(a)
    else:
        mat_inverse(a)


def submatrix(a, rows, cols):
    return RatMatrix([[a[i][j] for j in cols] for i in rows])


def minor_rank(a):
    """Size of the largest square submatrix with nonzero determinant."""
    for k in range(a.rows, 0, -1):
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                if leibniz(submatrix(a, rows, cols)):
                    return k
    return 0


def adjugate_inverse(a):
    n, det = a.rows, leibniz(a)
    if n == 1:
        return RatMatrix([[1 / det]])
    others = [[k for k in range(n) if k != i] for i in range(n)]
    return RatMatrix(
        [
            [(-1) ** (i + j) * leibniz(submatrix(a, others[j], others[i])) / det for j in range(n)]
            for i in range(n)
        ]
    )


@st.composite
def sparse_matrix_st(draw):
    """n <= 4, at least half of the entries zero."""
    n = draw(st.integers(1, 4))
    nonzero = draw(st.sets(st.integers(0, n * n - 1), max_size=n * n // 2))
    cells = [draw(fractions_st.filter(bool)) if k in nonzero else 0 for k in range(n * n)]
    return RatMatrix([cells[i * n : (i + 1) * n] for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(sparse_matrix_st())
def test_elimination_matches_oracles(a):
    rank = minor_rank(a)
    if rank < a.rows:
        with pytest.raises(SingularMatrix) as exc:
            mat_inverse(a)
        assert exc.value.rank == rank
    else:
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == identity(a.rows)
        assert mat_mul(inv, a) == identity(a.rows)


def assert_same_inverse(a):
    """mat_inverse(a) is the Fraction elimination's RatMatrix, of Fractions,
    or both raise SingularMatrix with the same rank."""
    try:
        expected = mat_inverse_fractions(a)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as got:
            mat_inverse(a)
        assert got.value.rank == exc.rank
        return
    inv = mat_inverse(a)
    assert inv == expected
    assert all(type(v) is Fraction for row in inv.sparse_rows for v in row.values())


@st.composite
def int_fraction_rows_st(draw):
    """Sparse rows (n <= 6) of ints and Fractions, taken as they are by
    RatMatrix.from_rows; about half the entries are zero, and the last row
    is sometimes a multiple of another, so singular matrices are drawn too."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), fractions_st)
    rows = [{j: v for j, v in enumerate(draw(st.lists(value, min_size=n, max_size=n))) if v} for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(fractions_st.filter(bool))
        rows[-1] = {j: k * v for j, v in rows[draw(st.integers(0, n - 2))].items()}
    return RatMatrix.from_rows(n, rows)


@settings(max_examples=300, deadline=None)
@given(int_fraction_rows_st())
def test_inverse_matches_fraction_elimination(a):
    assert_same_inverse(a)


def test_inverse_matches_fraction_elimination_on_transform_shapes():
    # transform's largest basis changes, at n = 40: a unitriangular g
    # (identity plus entries in {+-1, +-2} over the diagonal, as the
    # benchmark's unitriangular builds it) and a dense one-digit g
    rng = random.Random(30)
    n = 40
    upper = [[int(i == j) if j <= i else rng.choice((-2, -1, 1, 2)) for j in range(n)] for i in range(n)]
    dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for grid in (upper, dense):
        g = RatMatrix(grid)
        assert_same_inverse(g)
        assert mat_mul(g, mat_inverse(g)) == identity(n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_singular_inverse_rank_matches_fraction_elimination(data):
    # a singular n <= 8 basis change: k < n one-digit rows, and n - k rows
    # that combine them with Fraction coefficients, in any order
    n = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(0, n - 1))
    rows = [data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) for _ in range(k)]
    for _ in range(n - k):
        coeffs = data.draw(st.lists(fractions_st, min_size=k, max_size=k))
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n)])
    g = RatMatrix(data.draw(st.permutations(rows)))
    with pytest.raises(SingularMatrix):
        mat_inverse_fractions(g)
    assert_same_inverse(g)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gram_inverse_matches_fraction_elimination(data):
    # Gram rows on both sides of the common_denominator guard: over unrelated
    # 2000-digit denominators lambda keeps its Fractions and so do the rows;
    # small lambdas, degenerate ones included, give rows of ints
    unrelated = data.draw(st.booleans())
    if unrelated:
        n, m = data.draw(st.sampled_from([(5, 1), (6, 3)]))
        nums = st.integers(-50, 50).filter(bool)
        values = [Fraction(data.draw(nums), d) for d in unrelated_denominators(n)]
    else:
        n, m = data.draw(st.sampled_from([(3, 1), (4, 1), (4, 2), (6, 2), (6, 3)]))
        values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=5), min_size=n, max_size=n))
    lcm, scaled = common_denominator(list(LambdaSpec(n, m, values).values))
    assert (type(scaled[0]) is int) != unrelated
    items = [_entries(e) for e in build_basis(n, m)]
    assert_same_inverse(RatMatrix.from_rows(len(items), _pairings(items, items, scaled)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 10_000))
def test_inverse_of_permuted_block_diagonal(sizes, seed):
    """A = P D Q^T with D block-diagonal inverts to Q D^-1 P^T, block by block."""
    rng = random.Random(seed)
    n = sum(sizes)
    d = [[Fraction(0)] * n for _ in range(n)]
    d_inv = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for k in sizes:
        block = rand_matrix(rng, k)
        while not leibniz(block):
            block = rand_matrix(rng, k)
        block_inv = adjugate_inverse(block)
        for i in range(k):
            for j in range(k):
                d[start + i][start + j] = block[i][j]
                d_inv[start + i][start + j] = block_inv[i][j]
        start += k
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    a = RatMatrix([[d[p[i]][q[j]] for j in range(n)] for i in range(n)])
    expected = RatMatrix([[d_inv[q[j]][p[i]] for i in range(n)] for j in range(n)])
    assert mat_inverse(a) == expected


def test_results_are_canonical_fractions():
    a = RatMatrix([[Fraction(2, 4), Fraction(-6, 4)], [1, 0]])
    prod = mat_mul(a, a)
    for i in range(2):
        for j in range(2):
            v = prod[i][j]
            assert v.denominator >= 1
            # Fraction canonicalizes eagerly; spot-check the invariant
            from math import gcd

            assert gcd(abs(v.numerator), v.denominator) == 1


def test_matrix_json_round_trip():
    a = RatMatrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    assert matrix_from_json(matrix_to_json(a)) == a


def test_matrix_json_rejects_floats():
    with pytest.raises(ValueError):
        matrix_from_json([[1.5, 0], [0, 1]])


def test_common_denominator_sides_of_the_guard():
    rng = random.Random(3)
    wide = [Fraction(rng.choice((-1, 1)) * (rng.getrandbits(29) | 1 << 29)) for _ in range(6)]
    tensors = [
        r_closed_m1(LambdaSpec(4, 1, [0, 1, 3, 7])),
        r_closed_distinct(LambdaSpec(6, 2, [Fraction(k * k + 1, k + 2) for k in range(6)])),
        r_from_algebra(LambdaSpec(6, 2, wide)),
    ]
    # four unrelated 2000-digit denominators: L just under 4 * max_den_bits + 64
    values_sets = [[v for _, v in r.items()] for r in tensors]
    values_sets.append([Fraction(k, d) for k, d in enumerate(unrelated_denominators(4), 1)])
    # fourteen 10-bit primes: L past 4 * 10 + 64 bits, but under the floor
    primes = [p for p in range(600, 1024) if all(p % q for q in range(2, 32))][:14]
    assert 4 * 10 + 64 < math.prod(primes).bit_length() <= LCM_FLOOR_BITS
    values_sets.append([Fraction(1, p) for p in primes])
    for values in values_sets:
        lcm, scaled = common_denominator(values)
        assert lcm == math.lcm(*(v.denominator for v in values)) > 1
        assert all(type(x) is int for x in scaled)
        assert scaled == [v * lcm for v in values]
    # five are past it: the same list comes back, with L = 1
    values = [Fraction(k, d) for k, d in enumerate(unrelated_denominators(5), 1)]
    lcm, kept = common_denominator(values)
    assert lcm == 1 and kept is values
    assert common_denominator([]) == (1, [])
