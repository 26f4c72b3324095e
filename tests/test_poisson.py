from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import common_denominator
from aybe.frobenius import build_basis, make_lambda, r_from_algebra
from aybe.poisson import (
    Polynomial,
    QuadraticBracket,
    bracket_to_json,
    compare_to_closed_2m,
    jacobi_residual,
    matrix_bracket_from_r,
    scalar_bracket_closed_2m,
    scalar_bracket_from_r,
)
from aybe.tensor import Tensor4, aybe_residual, check_skew
from oracles import mixed_denominator_skew_tensor


def poly_st(nvars=3, max_terms=5):
    monos = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars).map(
        lambda exps: tuple(k for k, e in enumerate(exps) for _ in range(e))
    )
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(monos, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, terms)
    )


def x_sq(nvars, i):
    return Polynomial(nvars, {(i, i): Fraction(1)})


# --- polynomial engine -----------------------------------------------------


def test_polynomial_basics():
    p = Polynomial(2, {(0, 0): 1, (0, 1): 0, (1, 1): Fraction(-1)})
    assert p.terms() == [((1, 1), Fraction(-1)), ((0, 0), Fraction(1))]
    assert -p == Polynomial(2, {(0, 0): -1, (1, 1): 1})
    assert -(-p) == p
    assert Polynomial(2, {(0, 1): 0}).is_zero() and not p.is_zero()


def test_polynomial_terms_graded_lex():
    p = Polynomial(2, {(1, 1): 1, (0,): 1, (0, 0): 1, (): 1})
    assert [e for e, _ in p.terms()] == [(), (0,), (1, 1), (0, 0)]


def test_polynomial_ring_mismatch():
    # a monomial outside the ring, or unsorted, is rejected; polynomials in
    # two rings differ, and a bracket takes only its own ring's
    with pytest.raises(ValueError):
        Polynomial(2, {(2,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1})
    assert Polynomial(2) != Polynomial(3)
    with pytest.raises(ValueError):
        QuadraticBracket(3, {(0, 1): Polynomial(2, {(0, 1): 1})})


@settings(max_examples=50, deadline=None)
@given(poly_st())
def test_polynomial_canonical_idempotent(p):
    assert Polynomial(p.nvars, dict(p.terms())) == p


# --- brackets from tensors -------------------------------------------------


def test_scalar_bracket_zero_tensor():
    b = scalar_bracket_from_r(Tensor4(3))
    assert b.is_zero()


def test_scalar_bracket_n2_value():
    # {x_0, x_1} = -(x_0 - x_1)^2
    b = scalar_bracket_from_r(r_closed_m1(make_lambda(2, 1, [2, 1])))
    expected = Polynomial(2, {(0, 0): -1, (0, 1): 2, (1, 1): -1})
    assert b.entry(0, 1) == expected
    assert b.entry(1, 0) == -expected
    assert b.entry(0, 0).is_zero()


def test_scalar_bracket_family_is_zero():
    fam = Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1})
    assert scalar_bracket_from_r(fam).is_zero()


def test_scalar_bracket_rejects_non_skew():
    with pytest.raises(ValueError):
        scalar_bracket_from_r(Tensor4(2, {(0, 1, 0, 1): 1}))


def test_matrix_bracket_m1_reduction():
    r = r_closed_m1(make_lambda(3, 1, [0, 1, 2]))
    scalar = scalar_bracket_from_r(r)
    matrix = matrix_bracket_from_r(r, 1)
    assert matrix.n_gens == scalar.n_gens
    assert matrix.pairs() == scalar.pairs()


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
    expected = Polynomial(8, {t1: Fraction(1), t2: Fraction(-1)})
    assert b.entry(u, v) == expected


def test_matrix_bracket_zero_tensor():
    assert matrix_bracket_from_r(Tensor4(2), 2).is_zero()


def test_bracket_antisymmetry_table():
    r = r_closed_m1(make_lambda(3, 1, [0, 1, 2]))
    b = scalar_bracket_from_r(r)
    for u in range(3):
        for v in range(3):
            assert b.entry(u, v) == -b.entry(v, u)


# --- Jacobi ----------------------------------------------------------------


def test_jacobi_zero_bracket():
    assert jacobi_residual(QuadraticBracket(3, {})) == []


def test_jacobi_solution_brackets_pass():
    for n in (2, 3, 4):
        r = r_closed_m1(make_lambda(n, 1, list(range(n))))
        assert jacobi_residual(scalar_bracket_from_r(r)) == []


def test_jacobi_nonposson_control():
    # B(0,1)=x0^2, B(1,2)=x1^2, B(2,0)=x2^2; hand expansion of the only
    # strict triple gives 2(x0^2 x1 + x1^2 x2 + x2^2 x0)
    b = QuadraticBracket(3, {(0, 1): x_sq(3, 0), (1, 2): x_sq(3, 1), (0, 2): -x_sq(3, 2)})
    violations = jacobi_residual(b)
    assert len(violations) == 1
    (triple, poly), = violations
    assert triple == (0, 1, 2)
    assert poly == Polynomial(3, {(0, 0, 1): 2, (1, 1, 2): 2, (0, 2, 2): 2})


def test_cyclic_squares_bracket_is_poisson():
    # B(0,1)=x2^2, B(1,2)=x0^2, B(2,0)=x1^2 has a cubic conserved quantity;
    # every cyclic term vanishes, so it is NOT a usable negative control
    b = QuadraticBracket(3, {(0, 1): x_sq(3, 2), (1, 2): x_sq(3, 0), (0, 2): -x_sq(3, 1)})
    assert jacobi_residual(b) == []


def test_failing_tensor_gives_failing_bracket():
    # skew tensor with B(0,1)=x1^2, B(1,2)=x0^2: fails the residual check
    # and its bracket fails Jacobi with residual -2 x0^2 x1 at (0,1,2)
    bad = Tensor4(3, {(1, 1, 0, 1): 1, (1, 1, 1, 0): -1, (0, 0, 1, 2): 1, (0, 0, 2, 1): -1})
    assert aybe_residual(bad)
    violations = jacobi_residual(scalar_bracket_from_r(bad))
    assert violations == [((0, 1, 2), Polynomial(3, {(0, 0, 1): Fraction(-2)}))]


def test_jacobi_matrix_case():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
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
    st.one_of(skew_tensor_st(), st.just(r_closed_m1(make_lambda(3, 1, [0, 1, 2])))),
    st.integers(min_value=1, max_value=2),
)
def test_jacobi_matches_leibniz_reference(r, m_size):
    b = scalar_bracket_from_r(r) if m_size == 1 else matrix_bracket_from_r(r, m_size)
    got = [(t, p.to_json_obj()) for t, p in jacobi_residual(b)]
    assert got == jacobi_reference(bracket_to_json(b))


@settings(max_examples=20, deadline=None)
@given(mixed_denominator_skew_tensor(), st.data())
def test_jacobi_matches_leibniz_reference_with_large_denominators(drawn, data):
    r, unrelated = drawn
    # the reference takes seconds on a matrix bracket of five unrelated
    # 2000-digit denominators; both sides share the contraction loop
    m_size = data.draw(st.integers(min_value=1, max_value=1 if unrelated else 2))
    b = scalar_bracket_from_r(r) if m_size == 1 else matrix_bracket_from_r(r, m_size)
    coeffs = [c for _, poly in b.pairs() for _, c in poly.terms()]
    assert (common_denominator(coeffs)[1] is coeffs) == unrelated
    # residual coefficients pass 4300 digits; exactlin lifts that limit
    got = [(t, p.to_json_obj()) for t, p in jacobi_residual(b)]
    assert got == jacobi_reference(bracket_to_json(b))


GRID = [Fraction(k * k + 1, k + 2) for k in range(6)]


@pytest.mark.parametrize(
    "r, m_sizes",
    [
        (r_closed_m1(make_lambda(4, 1, [0, 1, 3, 7])), (1, 2)),
        (r_closed_block(make_lambda(4, 2, [1, 1, 5, 5])), (1, 2)),
        (r_closed_distinct(make_lambda(6, 3, GRID)), (1,)),
        (r_from_algebra(build_basis(4, 2), make_lambda(4, 2, GRID[:4])), (1, 2)),
        (r_from_algebra(build_basis(6, 2), make_lambda(6, 2, GRID)), (1,)),
        (r_from_algebra(build_basis(6, 3), make_lambda(6, 3, GRID)), (1,)),
    ],
)
def test_aybe_solution_gives_poisson_bracket(r, m_sizes):
    # Odesskii-Rubtsov-Sokolov: a skew solution of the AYBE induces a
    # quadratic Poisson bracket, scalar and on m x m matrix entries
    assert check_skew(r) == [] and aybe_residual(r) == []
    for m_size in m_sizes:
        b = scalar_bracket_from_r(r) if m_size == 1 else matrix_bracket_from_r(r, m_size)
        assert jacobi_residual(b) == []


# --- the printed two-block formula ----------------------------------------


def test_closed_2m_requires_shape():
    with pytest.raises(ValueError):
        scalar_bracket_closed_2m(make_lambda(6, 2, [0, 1, 2, 3, 4, 5]))


def test_closed_2m_m1_all_pairs_undefined():
    res = scalar_bracket_closed_2m(make_lambda(2, 1, [2, 1]))
    assert res.undefined_pairs == ((0, 1),)
    assert res.bracket.is_zero()


def test_closed_2m_42():
    lam = make_lambda(4, 2, [0, 1, 2, 3])
    res = scalar_bracket_closed_2m(lam)
    # partner pairs hit a vanishing printed denominator
    assert res.undefined_pairs == ((0, 2), (1, 3))
    # {x_0, x_1} = (x_0 - x_2)(x_1 - x_3)(l_2 - l_3)/((l_0 - l_3)(l_1 - l_3))
    #            = -(x_0 x_1 - x_0 x_3 - x_1 x_2 + x_2 x_3) / 6
    sixth = Fraction(1, 6)
    expected = Polynomial(4, {(0, 1): -sixth, (0, 3): sixth, (1, 2): sixth, (2, 3): -sixth})
    assert res.bracket.entry(0, 1) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_2m_matches_printed_formula(data):
    # each defined pair, evaluated at a random rational point, against the
    # printed formula evaluated there with Fractions
    m = data.draw(st.integers(min_value=1, max_value=4))
    n = 2 * m
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    lam = make_lambda(n, m, data.draw(st.lists(rationals, min_size=n, max_size=n, unique=True)))
    x = data.draw(st.lists(rationals, min_size=n, max_size=n))
    res = scalar_bracket_closed_2m(lam)
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
            poly = res.bracket.entry(a, b)
            assert sum(c * prod(x[k] for k in mono) for mono, c in poly.terms()) == expected
    assert list(res.undefined_pairs) == undefined


def test_compare_to_closed_2m_report():
    lam = make_lambda(4, 2, [0, 1, 2, 3])
    derived = scalar_bracket_from_r(r_closed_distinct(lam))
    report = compare_to_closed_2m(derived, lam)
    statuses = {tuple(item["pair"]): item["status"] for item in report}
    assert statuses[(0, 2)] == "undefined"
    assert statuses[(1, 3)] == "undefined"
    # the literal printed formula disagrees with the derived bracket
    assert statuses[(0, 1)] == "mismatch"
    assert set(statuses) == {(u, v) for u in range(4) for v in range(u + 1, 4)}
    # the derived bracket itself is Poisson
    assert jacobi_residual(derived) == []
