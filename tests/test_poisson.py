import random
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aybe.cli import MAX_GENERATORS
from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import common_denominator, format_rational
from aybe.frobenius import LambdaSpec, r_from_algebra
from aybe.poisson import (
    NotSkewSymmetric,
    QuadraticBracket,
    _bracket_table,
    bracket_to_json,
    compare_to_closed_2m,
    _monomial,
    jacobi_residual,
    matrix_bracket_from_r,
    scalar_bracket_closed_2m,
    terms_json,
)
from aybe.tensor import Tensor4, aybe_residual, check_skew, gl_transform, transpose_dual
from oracles import (
    bracket_table_fractions,
    grid,
    jacobi_residual_tuples,
    mixed_denominator_skew_tensor,
    perturbed,
    rand_distinct_lambda,
    rand_invertible,
    scalar_bracket_two_block,
)


def x_sq(i, c=1):
    return {(i, i): Fraction(c)}


def neg(terms):
    return {mono: -c for mono, c in terms.items()}


# --- polynomials: term dicts ----------------------------------------------


def poly_st(nvars=3, max_terms=5):
    """Quadratic term dicts, zero coefficients included."""
    idx = st.integers(min_value=0, max_value=nvars - 1)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(st.tuples(idx, idx).map(lambda xy: tuple(sorted(xy))), coeff, max_size=max_terms)


def exps_of(nvars, mono):
    return [mono.count(k) for k in range(nvars)]


def test_polynomial_basics():
    # the bracket converts coefficients to Fractions and drops zeros and
    # empty entries; entry(v, u) is the negated entry(u, v)
    b = QuadraticBracket(2, {(0, 1): {(0, 0): 1, (0, 1): 0, (1, 1): Fraction(-1)}})
    assert b.entry(0, 1) == {(0, 0): 1, (1, 1): -1}
    assert all(type(c) is Fraction for c in b.entry(0, 1).values())
    assert b.entry(1, 0) == {(0, 0): -1, (1, 1): 1} == neg(b.entry(0, 1))
    assert b.entry(0, 0) == b.entry(1, 1) == {}
    assert not QuadraticBracket(2, {(0, 1): {(0, 1): 0}}).pairs() and b.pairs()


def test_polynomial_terms_graded_lex():
    got = terms_json(2, {(1, 1): 1, (0,): 1, (0, 0): 1, (): 1})
    assert [t["exps"] for t in got] == [[0, 0], [1, 0], [0, 2], [2, 0]]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3).map(
                    lambda ks: tuple(sorted(ks))
                ),
                st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
                max_size=8,
            ),
        )
    )
)
def test_terms_json_graded_lex(case):
    # the order jacobi_reference sorts its residuals in: (degree, exps)
    n, terms = case
    expected = sorted(((exps_of(n, mono), c) for mono, c in terms.items()), key=lambda t: (sum(t[0]), t[0]))
    assert terms_json(n, terms) == [{"exps": e, "coeff": format_rational(c)} for e, c in expected]


def test_polynomial_ring_mismatch():
    # a pair key outside u < v < n_gens, or a monomial that is out of range,
    # unsorted or not quadratic, is rejected
    bad_tables = [
        {(1, 0): {(0, 1): 1}}, {(1, 1): {(0, 1): 1}}, {(0, 3): {(0, 1): 1}}, {(-1, 0): {(0, 1): 1}},
        {(0, 1): {(0, 3): 1}}, {(0, 1): {(-1, 0): 1}}, {(0, 1): {(1, 0): 1}},
        {(0, 1): {(0,): 1}}, {(0, 1): {(0, 1, 2): 1}}, {(0, 1): {(): 1}},
    ]
    for table in bad_tables:
        with pytest.raises(ValueError):
            QuadraticBracket(3, table)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.sampled_from([(0, 1), (0, 2), (1, 2)]), poly_st()))
def test_polynomial_canonical_idempotent(table):
    b = QuadraticBracket(3, table)
    kept = {uv: {mono: c for mono, c in terms.items() if c} for uv, terms in table.items()}
    assert b.pairs() == sorted((uv, terms) for uv, terms in kept.items() if terms)
    assert QuadraticBracket(3, dict(b.pairs())).pairs() == b.pairs()


# --- brackets from tensors -------------------------------------------------


def test_scalar_bracket_zero_tensor():
    b = matrix_bracket_from_r(Tensor4(3), 1)
    assert not b.pairs()


def test_scalar_bracket_n2_value():
    # {x_0, x_1} = -(x_0 - x_1)^2
    b = matrix_bracket_from_r(r_closed_m1(LambdaSpec(2, 1, [2, 1])), 1)
    expected = {(0, 0): -1, (0, 1): 2, (1, 1): -1}
    assert b.entry(0, 1) == expected
    assert b.entry(1, 0) == neg(expected)
    assert b.entry(0, 0) == {}


def test_scalar_bracket_family_is_zero():
    fam = Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1})
    assert not matrix_bracket_from_r(fam, 1).pairs()


def test_scalar_bracket_rejects_non_skew():
    r = Tensor4(2, {(0, 1, 0, 1): 1})
    for m in (1, 2):
        with pytest.raises(NotSkewSymmetric) as exc:
            matrix_bracket_from_r(r, m)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == ("tensor is not skew-symmetric (2 violating components); "
                                  "the induced bracket would not be antisymmetric")
        assert exc.value.violations == check_skew(r)
    # a matrix size below 1 is refused before the skew check, whatever the tensor
    for m in (0, -1):
        with pytest.raises(ValueError, match="matrix size must be >= 1") as exc:
            matrix_bracket_from_r(r, m)
        assert not isinstance(exc.value, NotSkewSymmetric)


def test_matrix_bracket_m1_reduction():
    r = r_closed_m1(LambdaSpec(3, 1, [0, 1, 2]))
    matrix = matrix_bracket_from_r(r, 1)
    assert matrix.n_gens == 3
    assert matrix.names == ["x_0", "x_1", "x_2"]
    # {x_a, x_b} = sum r^{ge}_{ab} x_g x_e
    for a, b in combinations_with_replacement(range(3), 2):
        expected = defaultdict(Fraction)
        for g, e in product(range(3), repeat=2):
            expected[tuple(sorted((g, e)))] += r.get(g, e, a, b)
        assert matrix.entry(a, b) == {mono: v for mono, v in expected.items() if v}


def test_matrix_bracket_example():
    # family tensor r^{10}_{11}=1, r^{01}_{11}=-1 at m=2:
    # {x^0_{0,1}, x^1_{1,1}} = x^1_{0,1} x^0_{1,0} - x^1_{0,0} x^0_{1,1}
    fam = Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1})
    b = matrix_bracket_from_r(fam, 2)

    def gen(a, i, j):
        return a * 4 + i * 2 + j

    u = gen(1, 0, 0)  # x^0_{0,1}
    v = gen(1, 1, 1)  # x^1_{1,1}
    t1 = tuple(sorted((gen(1, 0, 1), gen(0, 1, 0))))
    t2 = tuple(sorted((gen(0, 0, 1), gen(1, 1, 0))))
    expected = {t1: Fraction(1), t2: Fraction(-1)}
    assert b.entry(u, v) == expected


def test_matrix_bracket_zero_tensor():
    assert not matrix_bracket_from_r(Tensor4(2), 2).pairs()


def test_bracket_antisymmetry_table():
    r = r_closed_m1(LambdaSpec(3, 1, [0, 1, 2]))
    b = matrix_bracket_from_r(r, 1)
    for u in range(3):
        for v in range(3):
            assert b.entry(u, v) == neg(b.entry(v, u))


# --- Jacobi ----------------------------------------------------------------


def test_jacobi_zero_bracket():
    assert jacobi_residual(QuadraticBracket(3, {})) == []


def test_jacobi_solution_brackets_pass():
    for n in (2, 3, 4):
        r = r_closed_m1(LambdaSpec(n, 1, list(range(n))))
        assert jacobi_residual(matrix_bracket_from_r(r, 1)) == []


def test_jacobi_nonposson_control():
    # B(0,1)=x0^2, B(1,2)=x1^2, B(2,0)=x2^2; hand expansion of the only
    # strict triple gives 2(x0^2 x1 + x1^2 x2 + x2^2 x0)
    b = QuadraticBracket(3, {(0, 1): x_sq(0), (1, 2): x_sq(1), (0, 2): x_sq(2, -1)})
    violations = jacobi_residual(b)
    assert len(violations) == 1
    (triple, poly), = violations
    assert triple == (0, 1, 2)
    assert poly == {(0, 0, 1): 2, (1, 1, 2): 2, (0, 2, 2): 2}


def test_cyclic_squares_bracket_is_poisson():
    # B(0,1)=x2^2, B(1,2)=x0^2, B(2,0)=x1^2 has a cubic conserved quantity;
    # every cyclic term vanishes, so it is NOT a usable negative control
    b = QuadraticBracket(3, {(0, 1): x_sq(2), (1, 2): x_sq(0), (0, 2): x_sq(1, -1)})
    assert jacobi_residual(b) == []


def test_failing_tensor_gives_failing_bracket():
    # skew tensor with B(0,1)=x1^2, B(1,2)=x0^2: fails the residual check
    # and its bracket fails Jacobi with residual -2 x0^2 x1 at (0,1,2)
    bad = Tensor4(3, {(1, 1, 0, 1): 1, (1, 1, 1, 0): -1, (0, 0, 1, 2): 1, (0, 0, 2, 1): -1})
    assert aybe_residual(bad)
    violations = jacobi_residual(matrix_bracket_from_r(bad, 1))
    assert violations == [((0, 1, 2), {(0, 0, 1): Fraction(-2)})]


def test_jacobi_matrix_case():
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    assert jacobi_residual(matrix_bracket_from_r(r, 2)) == []


def jacobi_reference(bracket_json):
    """Jacobi residuals by the Leibniz rule on dense exponent vectors,
    read from the bracket JSON table: {x_u, p} = sum_k (dp/dx_k) {x_u, x_k}
    over all triples u <= v <= w. Shares no code with aybe.poisson."""
    n = bracket_json["generators"]
    entry = {}
    for item in bracket_json["table"]:
        poly = {tuple(t["exps"]): Fraction(t["coeff"]) for t in item["poly"]}
        entry[(item["u"], item["v"])] = poly
        entry[(item["v"], item["u"])] = {e: -c for e, c in poly.items()}

    def diff(p, k):
        return {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in p.items() if e[k]}

    def bracket_gen(u, p, acc):
        for k in range(n):
            for e1, c1 in diff(p, k).items():
                for e2, c2 in entry.get((u, k), {}).items():
                    acc[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2

    out = []
    for u, v, w in combinations_with_replacement(range(n), 3):
        acc = defaultdict(Fraction)
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            bracket_gen(x, entry.get((y, z), {}), acc)
        terms = sorted(((e, c) for e, c in acc.items() if c), key=lambda t: (sum(t[0]), t[0]))
        if terms:
            out.append(((u, v, w), [{"exps": list(e), "coeff": str(c)} for e, c in terms]))
    return out


@st.composite
def skew_tensor_st(draw):
    """Random skew tensors at n <= 3; most fail the AYBE, so their
    brackets fail Jacobi with nonzero residuals."""
    n = draw(st.integers(min_value=1, max_value=3))
    idx = st.integers(min_value=0, max_value=n - 1)
    raw = draw(
        st.dictionaries(
            st.tuples(idx, idx, idx, idx),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            max_size=6,
        )
    )
    acc = defaultdict(Fraction)
    for (g, e, a, b), v in raw.items():
        acc[(g, e, a, b)] += v
        acc[(e, g, b, a)] -= v
    return Tensor4(n, acc)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(skew_tensor_st(), st.just(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])))),
    st.integers(min_value=1, max_value=2),
)
def test_jacobi_matches_leibniz_reference(r, m_size):
    b = matrix_bracket_from_r(r, m_size)
    got = [(t, terms_json(b.n_gens, p)) for t, p in jacobi_residual(b)]
    assert got == jacobi_reference(bracket_to_json(b))


@settings(max_examples=20, deadline=None)
@given(mixed_denominator_skew_tensor(), st.data())
def test_jacobi_matches_leibniz_reference_with_large_denominators(drawn, data):
    r, unrelated = drawn
    # the reference takes seconds on a matrix bracket of five unrelated
    # 2000-digit denominators; both sides share the contraction loop
    m_size = data.draw(st.integers(min_value=1, max_value=1 if unrelated else 2))
    b = matrix_bracket_from_r(r, m_size)
    coeffs = [c for _, poly in b.pairs() for c in poly.values()]
    assert (common_denominator(coeffs)[1] is coeffs) == unrelated
    # residual coefficients pass 4300 digits; exactlin lifts that limit
    got = [(t, terms_json(b.n_gens, p)) for t, p in jacobi_residual(b)]
    assert got == jacobi_reference(bracket_to_json(b))


GRID = [Fraction(k * k + 1, k + 2) for k in range(6)]


@pytest.mark.parametrize(
    "r, m_sizes",
    [
        (r_closed_m1(LambdaSpec(4, 1, [0, 1, 3, 7])), (1, 2)),
        (r_closed_block(LambdaSpec(4, 2, [1, 1, 5, 5])), (1, 2)),
        (r_closed_distinct(LambdaSpec(6, 3, GRID)), (1,)),
        (r_from_algebra(LambdaSpec(4, 2, GRID[:4])), (1, 2)),
        (r_from_algebra(LambdaSpec(6, 2, GRID)), (1,)),
        (r_from_algebra(LambdaSpec(6, 3, GRID)), (1,)),
    ],
)
def test_aybe_solution_gives_poisson_bracket(r, m_sizes):
    # Odesskii-Rubtsov-Sokolov: a skew solution of the AYBE induces a
    # quadratic Poisson bracket, scalar and on m x m matrix entries
    assert check_skew(r) == [] and aybe_residual(r) == []
    for m_size in m_sizes:
        b = matrix_bracket_from_r(r, m_size)
        assert jacobi_residual(b) == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(skew_tensor_st(), st.just(r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])))))
def test_jacobi_at_m3_iff_aybe(r):
    # Odesskii-Rubtsov-Sokolov in both directions: the bracket on 3 x 3
    # matrix entries is Poisson exactly when the skew r solves the AYBE.
    # The scalar bracket alone cannot decide: many skew non-solutions pass
    # its Jacobi check.
    assert (jacobi_residual(matrix_bracket_from_r(r, 3)) == []) == (aybe_residual(r) == [])


@cache
def n2_skew_solutions() -> tuple[Tensor4, ...]:
    """Every skew tensor at n = 2 with values in {-1, 0, 1, 2} on the six
    skew pairs that solves the AYBE (22 of the 4096)."""
    keys = [k for k in product(range(2), repeat=4) if k < (k[1], k[0], k[3], k[2])]
    out = []
    for values in product((-1, 0, 1, 2), repeat=len(keys)):
        entries = {}
        for (a, b, c, d), v in zip(keys, values):
            if v:
                entries[(a, b, c, d)], entries[(b, a, d, c)] = v, -v
        r = Tensor4(2, entries)
        if not aybe_residual(r):
            out.append(r)
    return tuple(out)


@st.composite
def transformed_solution_st(draw):
    """r_from_algebra at a random distinct lambda, optionally passed
    through gl_transform at a random invertible g and transpose_dual: each
    a skew solution of the AYBE."""
    n, m = draw(st.sampled_from([(2, 1), (3, 1), (4, 2)]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    r = r_from_algebra(rand_distinct_lambda(rng, n, m))
    if draw(st.booleans()):
        r = gl_transform(r, rand_invertible(rng, n))
    if draw(st.booleans()):
        r = transpose_dual(r)
    return r


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(skew_tensor_st(), transformed_solution_st(), st.deferred(lambda: st.sampled_from(n2_skew_solutions()))),
    st.integers(min_value=2, max_value=3),
)
def test_empty_aybe_residual_implies_jacobi_at_matrix_sizes(r, m_size):
    # the shortcut bracket --check-jacobi takes at --m-size > 1: a skew r
    # with an empty AYBE residual gives a bracket the full contraction
    # finds Poisson
    if r.n > 3:
        m_size = 2  # (4,2) at m_size 3 has 36 generators
    if not aybe_residual(r):
        assert jacobi_residual(matrix_bracket_from_r(r, m_size)) == []


def test_n2_skew_solutions_are_skew_and_varied():
    sols = n2_skew_solutions()
    assert len(sols) == 22 and all(check_skew(r) == [] for r in sols)
    assert max(r.nnz for r in sols) == 8


# skew, with {x_0, x_1} = (1 - 1) x_0 x_1 at m = 1: a pair whose terms all
# cancel, which the table drops
CANCELLING = Tensor4(2, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1, (1, 0, 0, 1): -1, (0, 1, 1, 0): 1})


def table_items(table):
    return [(uv, list(terms.items())) for uv, terms in table.items()]


@settings(max_examples=30, deadline=None)
@given(mixed_denominator_skew_tensor(), st.integers(min_value=1, max_value=3))
def test_bracket_table_matches_fraction_oracle(drawn, m_size):
    # both sides of the common_denominator guard: the integer table and the
    # Fraction fallback give the oracle's table, pair order, term order and
    # names, and the bracket holds the table the checked constructor keeps
    r, unrelated = drawn
    values = [v for k, v in r.iter_items() if k[2] <= k[3]]
    assert (common_denominator(values)[1] is values) == unrelated
    table = _bracket_table(r, m_size)
    expected = bracket_table_fractions(r, m_size)
    assert table_items(table) == table_items(expected)
    assert all(type(c) is Fraction for terms in table.values() for c in terms.values())
    b = matrix_bracket_from_r(r, m_size)
    checked = QuadraticBracket(b.n_gens, expected, b.names)
    assert b.pairs() == checked.pairs() and table_items(dict(b.pairs())) == table_items(expected)
    assert b.n_gens == r.n * m_size**2 and len(b.names) == b.n_gens
    assert b.names == ([f"x_{a}" for a in range(r.n)] if m_size == 1 else
                       [f"x^{{{j}}}_{{{i},{a}}}" for a in range(r.n) for i in range(m_size) for j in range(m_size)])


@pytest.mark.parametrize(
    "r, m_size",
    [
        (r_closed_distinct(LambdaSpec(8, 2, grid(8, -7))), 1),
        (r_closed_distinct(LambdaSpec(4, 2, grid(4, 3))), 2),
        (r_closed_distinct(LambdaSpec(6, 3, grid(6))), 3),
        (perturbed(r_closed_distinct(LambdaSpec(6, 3, grid(6, 11)))), 2),
        (gl_transform(r_closed_m1(LambdaSpec(3, 1, [0, 1, 3])), rand_invertible(random.Random(7), 3)), 3),
        (CANCELLING, 1),
        (CANCELLING, 2),
    ],
    ids=["distinct-8x2-m1", "distinct-4x2-m2", "distinct-6x3-m3", "non-aybe-6x3-m2", "dense-3-m3",
         "cancelling-m1", "cancelling-m2"],
)
def test_bracket_table_matches_fraction_oracle_on_shapes(r, m_size):
    assert table_items(_bracket_table(r, m_size)) == table_items(bracket_table_fractions(r, m_size))


def test_built_bracket_table_passes_the_checked_constructor():
    # a table the package builds passes QuadraticBracket unchanged, which
    # still refuses a bad key or a bad monomial in one from outside
    b = matrix_bracket_from_r(r_closed_distinct(LambdaSpec(4, 2, grid(4, 3))), 2)
    table = dict(b.pairs())
    assert QuadraticBracket(b.n_gens, table, b.names).pairs() == b.pairs()
    (u, v), terms = b.pairs()[0]
    (x, y), c = next(iter(terms.items()))
    for bad in ({(v, u): terms}, {(u, b.n_gens): terms}, {(u, v): {(y, x) if x < y else (x, b.n_gens): c}},
                {(u, v): {(x,): c}}):
        with pytest.raises(ValueError):
            QuadraticBracket(b.n_gens, {**table, **bad})


def term_lists(residual):
    return [(t, list(p.items())) for t, p in residual]


@pytest.mark.parametrize(
    "r, m_size, fails",
    [
        (r_closed_distinct(LambdaSpec(8, 2, grid(8, -7))), 1, False),
        (r_closed_distinct(LambdaSpec(6, 3, grid(6, 11))), 1, False),
        (r_closed_distinct(LambdaSpec(4, 2, grid(4, 3))), 2, False),
        (perturbed(r_closed_distinct(LambdaSpec(6, 3, grid(6, 11)))), 1, True),
        (r_closed_m1(LambdaSpec(4, 1, grid(4, -2))), 2, False),
    ],
    ids=["distinct-8x2", "distinct-6x3", "distinct-4x2-m2", "non-aybe-6x3", "m1-4-m2"],
)
def test_jacobi_matches_tuple_oracle_on_bench_shapes(r, m_size, fails):
    # the shapes of the bracket benchmark: same triples, monomials,
    # coefficients and order as the sort-based contraction
    b = matrix_bracket_from_r(r, m_size)
    got = jacobi_residual(b)
    assert term_lists(got) == term_lists(jacobi_residual_tuples(b))
    assert bool(got) == fails


@settings(max_examples=20, deadline=None)
@given(mixed_denominator_skew_tensor(), st.integers(min_value=1, max_value=2))
def test_jacobi_matches_tuple_oracle_with_large_denominators(drawn, m_size):
    # covers both the integer path and the Fraction fallback
    r, _ = drawn
    b = matrix_bracket_from_r(r, m_size)
    assert term_lists(jacobi_residual(b)) == term_lists(jacobi_residual_tuples(b))


def test_jacobi_keys_at_generator_limit():
    # generator 99 weighs 4^99: x_99^3 is the largest key and x_0 x_99^2
    # joins the lowest digit to the top one
    n = MAX_GENERATORS
    b = QuadraticBracket(
        n,
        {
            (97, 98): x_sq(99),
            (96, 99): x_sq(99),
            (0, 1): {(0, 99): Fraction(1, 3)},
        },
    )
    got = jacobi_residual(b)
    assert got == [
        ((0, 1, 96), {(0, 99, 99): Fraction(1, 3)}),
        ((96, 97, 98), {(99, 99, 99): Fraction(2)}),
    ]
    assert term_lists(got) == term_lists(jacobi_residual_tuples(b))


def test_monomial_decodes_every_cubic_key():
    for mono in combinations_with_replacement(range(MAX_GENERATORS), 3):
        assert _monomial(sum(4**k for k in mono)) == mono


# --- the printed two-block formula ----------------------------------------


def test_closed_2m_requires_shape():
    with pytest.raises(ValueError):
        scalar_bracket_closed_2m(LambdaSpec(6, 2, [0, 1, 2, 3, 4, 5]))


def test_closed_2m_m1_all_pairs_undefined():
    bracket, undefined = scalar_bracket_closed_2m(LambdaSpec(2, 1, [2, 1]))
    assert undefined == ((0, 1),)
    assert not bracket.pairs()


def test_closed_2m_42():
    lam = LambdaSpec(4, 2, [0, 1, 2, 3])
    bracket, undefined = scalar_bracket_closed_2m(lam)
    # partner pairs hit a vanishing printed denominator
    assert undefined == ((0, 2), (1, 3))
    # {x_0, x_1} = (x_0 - x_2)(x_1 - x_3)(l_2 - l_3)/((l_0 - l_3)(l_1 - l_3))
    #            = -(x_0 x_1 - x_0 x_3 - x_1 x_2 + x_2 x_3) / 6
    sixth = Fraction(1, 6)
    expected = {(0, 1): -sixth, (0, 3): sixth, (1, 2): sixth, (2, 3): -sixth}
    assert bracket.entry(0, 1) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_2m_matches_printed_formula(data):
    # each defined pair, evaluated at a random rational point, against the
    # printed formula evaluated there with Fractions
    m = data.draw(st.integers(min_value=1, max_value=4))
    n = 2 * m
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    lam = LambdaSpec(n, m, data.draw(st.lists(rationals, min_size=n, max_size=n, unique=True)))
    x = data.draw(st.lists(rationals, min_size=n, max_size=n))
    bracket, undefined_pairs = scalar_bracket_closed_2m(lam)
    vals = lam.values
    undefined = []
    for a in range(n):
        for b in range(a + 1, n):
            ap, bp = (a + m) % n, (b + m) % n
            den = (vals[a] - vals[bp]) * (vals[b] - vals[bp])
            if den == 0:
                undefined.append((a, b))
                continue
            expected = (x[a] - x[ap]) * (x[b] - x[bp]) * (vals[ap] - vals[bp]) / den
            poly = bracket.entry(a, b)
            assert sum(c * prod(x[k] for k in mono) for mono, c in poly.items()) == expected
    assert list(undefined_pairs) == undefined


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_two_block_bracket_is_the_corrected_formula(data):
    """The scalar bracket of the constructed tensor at n = 2m is the printed
    two-block formula with (l_a - l_b') read as (l_a - l_a'), on every pair,
    for every lambda distinct within each residue class {g, g + m}: values
    from a small pool, so that they repeat across classes (mode OTHER)."""
    m = data.draw(st.integers(min_value=1, max_value=4))
    n = 2 * m
    pool = data.draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=2, max_size=n, unique=True))
    values = [None] * n
    for g in range(m):
        values[g], values[g + m] = data.draw(st.permutations(pool))[:2]
    lam = LambdaSpec(n, m, values)
    derived = matrix_bracket_from_r(r_from_algebra(lam), 1)
    assert derived.pairs() == scalar_bracket_two_block(lam).pairs()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_printed_two_block_formula_never_matches(data):
    """The misprint is a finding, not a bug to mend: for n >= 4 and
    pairwise-distinct lambda, no pair of the literal printed formula matches
    the derived bracket (a partner pair is undefined, any other mismatches)."""
    m = data.draw(st.integers(min_value=2, max_value=4))
    n = 2 * m
    values = data.draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=n, max_size=n, unique=True))
    lam = LambdaSpec(n, m, values)
    report = compare_to_closed_2m(matrix_bracket_from_r(r_from_algebra(lam), 1), lam)
    statuses = [item["status"] for item in report]
    assert "match" not in statuses and "mismatch" in statuses


def test_compare_to_closed_2m_needs_n_generators():
    derived = matrix_bracket_from_r(r_closed_distinct(LambdaSpec(2, 1, [0, 1])), 1)
    with pytest.raises(ValueError, match="generator count differs from n"):
        compare_to_closed_2m(derived, LambdaSpec(4, 2, [0, 1, 2, 3]))


def test_compare_to_closed_2m_report():
    lam = LambdaSpec(4, 2, [0, 1, 2, 3])
    derived = matrix_bracket_from_r(r_closed_distinct(lam), 1)
    report = compare_to_closed_2m(derived, lam)
    statuses = {tuple(item["pair"]): item["status"] for item in report}
    assert statuses[(0, 2)] == "undefined"
    assert statuses[(1, 3)] == "undefined"
    # the literal printed formula disagrees with the derived bracket
    assert statuses[(0, 1)] == "mismatch"
    assert set(statuses) == {(u, v) for u in range(4) for v in range(u + 1, 4)}
    # the derived bracket itself is Poisson
    assert jacobi_residual(derived) == []
