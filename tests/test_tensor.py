import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aybe
from aybe.closedform import r_closed_m1
from aybe.exactlin import (
    RatMatrix,
    SingularMatrix,
    common_denominator,
    mat_inverse,
)
from aybe.frobenius import make_lambda
from aybe.tensor import (
    Tensor4,
    aybe_report,
    aybe_residual,
    aybe_residual_naive,
    check_skew,
    compare_tensors,
    gl_transform,
    transpose_dual,
)
from oracles import identity, leibniz, mixed_denominator_skew_tensor, rand_fraction, rand_invertible


def rand_skew_tensor(rng: random.Random, n: int, dense: bool = False) -> Tensor4:
    """Random tensor satisfying the skew condition by construction."""
    entries = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    key, partner = (a, b, c, d), (b, a, d, c)
                    if key == partner or partner in entries or key in entries:
                        continue
                    if dense:
                        v = rand_fraction(rng, nonzero=True)
                    else:
                        v = rand_fraction(rng) if rng.random() < 0.3 else Fraction(0)
                    if v:
                        entries[key] = v
                        entries[partner] = -v
    return Tensor4(n, entries)


def test_skew_zero_tensor():
    assert check_skew(Tensor4(2)) == []


def test_skew_family_fixture():
    t = Tensor4(2, {(1, 0, 1, 1): 1, (0, 1, 1, 1): -1})
    assert check_skew(t) == []


def test_skew_diagonal_component_violates():
    t = Tensor4(2, {(0, 0, 0, 0): 1})
    assert check_skew(t) == [((0, 0, 0, 0), Fraction(2))]


def test_residual_zero_tensor():
    assert aybe_residual(Tensor4(3)) == []


def test_residual_m1_solution_passes():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
    assert aybe_residual(r) == []


def test_residual_single_pair_fails():
    t = Tensor4(2, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1})
    violations = aybe_residual(t)
    assert violations
    assert violations == aybe_residual_naive(t)


@pytest.mark.parametrize("seed", range(8))
def test_residual_sparse_matches_naive(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    entries = {
        tuple(rng.randrange(n) for _ in range(4)): rand_fraction(rng, nonzero=True)
        for _ in range(rng.randint(1, 8))
    }
    t = Tensor4(n, entries)
    assert aybe_residual(t) == aybe_residual_naive(t)


@settings(max_examples=30, deadline=None)
@given(mixed_denominator_skew_tensor())
def test_residual_matches_naive_with_large_denominators(drawn):
    r, unrelated = drawn
    values = [v for _, v in r.items()]
    assert (common_denominator(values)[1] is values) == unrelated
    assert aybe_residual(r) == aybe_residual_naive(r)


@pytest.mark.parametrize("seed", range(5))
def test_residual_cyclic_relabel_invariance(seed):
    # residual(l,m,u;al,be,ta) is invariant under rotating the term roles:
    # (l,m,u;al,be,ta) -> (m,u,l;be,ta,al)
    rng = random.Random(100 + seed)
    t = rand_skew_tensor(rng, 3)
    violations = {k for k, _ in aybe_residual(t)}
    rotated = {(m, u, l, be, ta, al) for (l, m, u, al, be, ta) in violations}
    assert rotated == violations


def test_gl_transform_identity():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
    assert gl_transform(r, identity(2)) == r


def test_gl_transform_zero_tensor():
    rng = random.Random(0)
    g = rand_invertible(rng, 3)
    assert gl_transform(Tensor4(3), g) == Tensor4(3)


def test_gl_transform_swap_permutes_lambda():
    lam = make_lambda(2, 1, [2, 1])
    swapped = make_lambda(2, 1, [1, 2])
    r = r_closed_m1(lam)
    g = RatMatrix([[0, 1], [1, 0]])
    assert gl_transform(r, g) == r_closed_m1(swapped)


def test_gl_transform_singular_matrix():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
    with pytest.raises(SingularMatrix):
        gl_transform(r, RatMatrix([[1, 1], [1, 1]]))


def test_gl_transform_dimension_mismatch():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
    with pytest.raises(ValueError):
        gl_transform(r, identity(3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gl_transform_matches_literal_formula(data):
    n = data.draw(st.integers(2, 3))
    index = st.integers(0, n - 1)
    quads = st.tuples(index, index, index, index)
    entries: dict = defaultdict(Fraction)
    for (a, b, c, d), v in data.draw(st.dictionaries(quads, st.fractions(-3, 3, max_denominator=3), max_size=6)).items():
        entries[(a, b, c, d)] += v
        entries[(b, a, d, c)] -= v
    r = Tensor4(n, entries)
    assert check_skew(r) == []
    cells = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    grid = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    grid[data.draw(index)][data.draw(index)] = 0
    g = RatMatrix(grid)
    assume(leibniz(g) != 0)
    h = mat_inverse(g)
    idx = range(n)
    gd, hd = [g[i] for i in idx], [h[i] for i in idx]
    expected = {
        (a, b, c, d): sum(
            gd[a][p] * gd[b][q] * r.get(p, q, x, y) * hd[x][c] * hd[y][d]
            for p in idx for q in idx for x in idx for y in idx
        )
        for a in idx for b in idx for c in idx for d in idx
    }
    assert gl_transform(r, g) == Tensor4(n, expected)


@pytest.mark.parametrize("seed", range(5))
def test_gl_transform_preserves_solution(seed):
    rng = random.Random(200 + seed)
    r = r_closed_m1(make_lambda(3, 1, [0, 1, 2]))
    g = rand_invertible(rng, 3)
    assert aybe_report(gl_transform(r, g)).passed


def test_transpose_dual_involution():
    rng = random.Random(3)
    t = rand_skew_tensor(rng, 3)
    assert transpose_dual(transpose_dual(t)) == t
    assert transpose_dual(Tensor4(2)) == Tensor4(2)


def test_transpose_dual_preserves_verdicts():
    rng = random.Random(4)
    corpus = [
        r_closed_m1(make_lambda(2, 1, [2, 1])),
        r_closed_m1(make_lambda(3, 1, [0, 1, 2])),
        Tensor4(2, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1}),
    ] + [rand_skew_tensor(rng, 2, dense=True) for _ in range(3)]
    for t in corpus:
        rep = aybe_report(t)
        dual = aybe_report(transpose_dual(t))
        assert rep.passed == dual.passed
        assert bool(rep.skew_violations) == bool(dual.skew_violations)


def test_json_round_trip_and_ordering():
    r = r_closed_m1(make_lambda(3, 1, [0, 1, 2]))
    text = r.dumps()
    again = Tensor4.loads(text)
    assert again == r
    assert again.dumps() == text
    keys = [tuple(e["upper"] + e["lower"]) for e in r.to_json_obj()["entries"]]
    assert keys == sorted(keys)


def test_json_round_trip_past_the_digit_limit():
    # a fresh interpreter keeps Python's default 4300-digit int/str limit;
    # importing aybe must lift it with no setup by the caller
    code = (
        "from fractions import Fraction\n"
        "from aybe.tensor import Tensor4\n"
        "r = Tensor4(2, {(0, 1, 0, 1): Fraction(10**5000, 3), (1, 0, 1, 0): Fraction(-1, 10**4999 + 1)})\n"
        "text = r.dumps()\n"
        "assert Tensor4.loads(text) == r and Tensor4.loads(text).dumps() == text\n"
    )
    src = os.path.dirname(os.path.dirname(aybe.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("n"),
        lambda obj: obj["entries"].append(
            {"upper": [0, 0], "lower": [0, 0], "value": "0"}
        ),
        lambda obj: obj["entries"].append(
            {"upper": [0, 9], "lower": [0, 0], "value": "1"}
        ),
        lambda obj: obj["entries"].append(
            {"upper": [0, 1], "lower": [0, 1], "value": "1.5"}
        ),
        lambda obj: obj["entries"].extend(
            [
                {"upper": [0, 1], "lower": [0, 1], "value": "1"},
                {"upper": [0, 1], "lower": [0, 1], "value": "2"},
            ]
        ),
    ],
)
def test_json_rejects_malformed(mutate):
    obj = Tensor4(2).to_json_obj()
    mutate(obj)
    with pytest.raises(ValueError):
        Tensor4.from_json_obj(obj)


def test_compare_tensors():
    r = r_closed_m1(make_lambda(2, 1, [2, 1]))
    assert compare_tensors(r, r) == []
    diffs = compare_tensors(r, Tensor4(2))
    assert len(diffs) == r.nnz
    with pytest.raises(ValueError):
        compare_tensors(r, Tensor4(3))


def test_checks_independent_of_insertion_order():
    entries = {(1, 0, 1, 1): Fraction(1), (0, 1, 1, 1): Fraction(-1)}
    reversed_entries = dict(reversed(list(entries.items())))
    a, b = Tensor4(2, entries), Tensor4(2, reversed_entries)
    assert a == b
    assert check_skew(a) == check_skew(b)
    assert aybe_residual(a) == aybe_residual(b)
    assert a.dumps() == b.dumps()


def test_entries_validated():
    with pytest.raises(ValueError):
        Tensor4(2, {(0, 0, 0, 2): Fraction(1)})
    # zeros are dropped, not stored
    assert Tensor4(2, {(0, 0, 0, 0): Fraction(0)}).nnz == 0
