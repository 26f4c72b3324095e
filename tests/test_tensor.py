import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import aybe
from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import (
    LITERAL_BUDGET,
    MAX_LITERAL_CHARS,
    RatMatrix,
    SingularMatrix,
    common_denominator,
    format_rational,
    mat_inverse,
)
from aybe.frobenius import LambdaSpec, r_from_algebra
from aybe.tensor import (
    Tensor4,
    aybe_residual,
    aybe_residual_naive,
    check_skew,
    compare_tensors,
    gl_transform,
    transpose_dual,
)
from oracles import (
    aybe_residual_join,
    check_skew_sum,
    compare_tensors_dense,
    gl_transform_fractions,
    identity,
    leibniz,
    mixed_denominator_skew_tensor,
    nondegenerate,
    rand_fraction,
    rand_invertible,
    tensor_init_old,
    tensor_json_obj,
    unrelated_denominators,
)


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
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
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


@st.composite
def join_tensor(draw):
    """(r, unrelated): a random tensor, skew or not, at n <= 6, or a sparse
    one declared with n = 60 whose indices sit at both ends of the range.

    unrelated: its entries carry all five unrelated_denominators, so
    exactlin.common_denominator keeps the Fractions; otherwise the
    denominators are at most 12 and the join runs on integers. Half the
    time, two entries r^{xs}_{yy} and r^{xx}_{sy} are added, whose product
    lands on the rotation-fixed tuple (x, x, x, y, y, y).
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 60]))
    idx = st.sampled_from([0, 1, 58, 59]) if n == 60 else st.integers(0, n - 1)
    unrelated = draw(st.booleans())
    quads = st.tuples(idx, idx, idx, idx)
    keys = draw(st.lists(quads, min_size=5 if unrelated else 0, max_size=24, unique=True))
    if draw(st.booleans()):
        x, s, y = draw(idx), draw(idx), draw(idx)
        keys += [k for k in ((x, s, y, y), (x, x, s, y)) if k not in keys]
    if unrelated:
        dens = unrelated_denominators(5) * len(keys)
    else:
        dens = draw(st.lists(st.integers(1, 12), min_size=len(keys), max_size=len(keys)))
    nums = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(keys), max_size=len(keys)))
    entries = {k: Fraction(num, den) for k, num, den in zip(keys, nums, dens)}
    return Tensor4(n, entries), unrelated


@settings(max_examples=150, deadline=None)
@given(join_tensor())
def test_residual_matches_join_oracle(drawn):
    r, unrelated = drawn
    values = [v for _, v in r.items()]
    assert (common_denominator(values)[1] is values) == unrelated
    assert aybe_residual(r) == aybe_residual_join(r)


@st.composite
def structured_tensor(draw):
    """r_from_algebra of a distinct lambda at n <= 6, perhaps moved by a
    unitriangular basis change with up to three entries off the diagonal,
    perhaps with one entry perturbed, alone or with its skew partner. Its
    rows share many s, so the join's blocks have several shared s, and a
    solution's sums cancel.

    Half the draws take lambda over unrelated_denominators at n <= 4,
    without the basis change (whose 2000-digit products would take seconds);
    at (4,1) exactlin.common_denominator keeps the Fractions. Otherwise
    lambda is a small rational and the join runs on integers.
    """
    if draw(st.booleans()):
        n, m = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2)]))
        nums = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=n, max_size=n))
        values = [Fraction(k, d) for k, d in zip(nums, unrelated_denominators(n))]
        moves = []
    else:
        n, m = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (6, 1), (6, 2), (6, 3)]))
        values = draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=n, max_size=n, unique=True))
        above = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
        moves = draw(st.lists(st.tuples(above, st.sampled_from([-2, -1, 1, 2])), max_size=3))
    r = r_from_algebra(LambdaSpec(n, m, values))
    if moves:
        grid = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in moves:
            grid[i][j] = v
        r = gl_transform(r, RatMatrix(grid))
    entries = dict(r.iter_items())
    if draw(st.booleans()):
        a, b, c, d = draw(st.sampled_from(sorted(entries)))
        delta = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
        entries[(a, b, c, d)] += delta
        if draw(st.booleans()):
            entries[(b, a, d, c)] = entries.get((b, a, d, c), Fraction(0)) - delta
    return Tensor4(n, entries)


@settings(max_examples=30, deadline=None)
@given(structured_tensor())
def test_residual_blocks_match_join_oracle(r):
    assert aybe_residual(r) == aybe_residual_join(r)


def test_residual_blocks_match_join_oracle_fixed():
    # distinct (8,2) has blocks of 3 and 4 shared s; (4,1) over
    # unrelated_denominators runs the join on the Fractions
    r = r_from_algebra(LambdaSpec(8, 2, range(8)))
    assert aybe_residual(r) == aybe_residual_join(r) == []
    broken = Tensor4(8, {**dict(r.iter_items()), (0, 1, 2, 3): Fraction(1, 3)})
    assert aybe_residual(broken) == aybe_residual_join(broken) != []
    values = [Fraction(k, d) for k, d in zip([3, -4, 5, -6], unrelated_denominators(4))]
    r = r_from_algebra(LambdaSpec(4, 1, values))
    scaled = [v for _, v in r.iter_items()]
    assert common_denominator(scaled)[1] is scaled
    assert aybe_residual(r) == aybe_residual_join(r) == []


def test_residual_refusal_counts_join_products(monkeypatch):
    """The refusal counts, before the join, sum over s of the entries with
    upper b = s times those with lower c = s: 46,208 on distinct (8,2)."""
    r = r_from_algebra(LambdaSpec(8, 2, range(8)))
    monkeypatch.setattr("aybe.tensor.MAX_JOIN_PRODUCTS", 46_208)
    assert aybe_residual(r) == []
    monkeypatch.setattr("aybe.tensor.MAX_JOIN_PRODUCTS", 46_207)
    with pytest.raises(ValueError, match="residual join products = 46208 exceeds the limit of 46207"):
        aybe_residual(r)


@st.composite
def skew_mix(draw):
    """A tensor at n <= 3 whose partner pairs cancel exactly, hold equal
    numerators over different denominators (1/2 against -1/3), hold equal
    values of one sign, or stand alone, with self-partner keys (a = b,
    c = d) among them; on some draws the values carry 2000-digit
    denominators."""
    n = draw(st.integers(1, 3))
    idx = st.integers(0, n - 1)
    keys = draw(st.lists(st.tuples(idx, idx, idx, idx), unique=True, max_size=16))
    big = draw(st.booleans())
    dens = unrelated_denominators(2) if big else [2, 3]
    entries = {}
    for a, b, c, d in keys:
        partner = (b, a, d, c)
        if (a, b, c, d) in entries or partner in entries:
            continue
        num = draw(st.integers(-5, 5).filter(bool))
        v = Fraction(num, dens[0])
        entries[(a, b, c, d)] = v
        kind = draw(st.sampled_from(["cancel", "other denominator", "same sign", "alone"]))
        if partner == (a, b, c, d) or kind == "alone":
            continue
        entries[partner] = {"cancel": -v, "other denominator": Fraction(-num, dens[1]), "same sign": v}[kind]
    return Tensor4(n, entries)


@settings(max_examples=150, deadline=None)
@given(skew_mix())
@example(Tensor4(2, {(0, 0, 1, 1): 1, (0, 1, 0, 1): Fraction(1, 2), (1, 0, 1, 0): Fraction(-1, 3)}))
def test_check_skew_matches_sum_oracle(r):
    assert check_skew(r) == check_skew_sum(r)


@pytest.mark.parametrize("n", [3, 60])
def test_residual_on_rotation_fixed_tuples(n):
    # the one join pair r^{xs}_{yy} r^{xx}_{sy} lands on (x, x, x, y, y, y),
    # which the rotation fixes: its residual is three equal terms
    x, s, y = n - 1, 1, 0
    r = Tensor4(n, {(x, s, y, y): Fraction(2, 3), (x, x, s, y): Fraction(-5)})
    assert aybe_residual(r) == aybe_residual_join(r) == [((x, x, x, y, y, y), Fraction(-10))]
    r = Tensor4(n, {(x, x, x, x): Fraction(2, 3)})
    assert aybe_residual(r) == aybe_residual_join(r) == [((x,) * 6, Fraction(4, 3))]


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
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    assert gl_transform(r, identity(2)) == r


def test_gl_transform_zero_tensor():
    rng = random.Random(0)
    g = rand_invertible(rng, 3)
    assert gl_transform(Tensor4(3), g) == Tensor4(3)


def test_gl_transform_swap_permutes_lambda():
    lam = LambdaSpec(2, 1, [2, 1])
    swapped = LambdaSpec(2, 1, [1, 2])
    r = r_closed_m1(lam)
    g = RatMatrix([[0, 1], [1, 0]])
    assert gl_transform(r, g) == r_closed_m1(swapped)


def test_gl_transform_singular_matrix():
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    with pytest.raises(SingularMatrix):
        gl_transform(r, RatMatrix([[1, 1], [1, 1]]))


def test_gl_transform_dimension_mismatch():
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    with pytest.raises(ValueError):
        gl_transform(r, identity(3))


def test_gl_transform_refuses_a_pass_past_the_limit(monkeypatch):
    """Each pass is bounded, before it runs, by the products it would form:
    one nonzero under a dense g at n = 3 takes 3, 9, 27 and 81."""
    r = Tensor4(3, {(0, 1, 2, 0): 1})
    g = RatMatrix([[2 if i == j else 1 for j in range(3)] for i in range(3)])
    monkeypatch.setattr("aybe.tensor.MAX_PASS_PRODUCTS", 81)
    assert gl_transform(r, g).nnz == 81
    monkeypatch.setattr("aybe.tensor.MAX_PASS_PRODUCTS", 80)
    with pytest.raises(ValueError, match="basis change pass products = 81 exceeds the limit of 80"):
        gl_transform(r, g)


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


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gl_transform_matches_fraction_passes(data):
    # on both sides of the common_denominator guard, for r and for g apart,
    # so the passes also mix ints with Fractions: unrelated draws keep r's
    # Fractions, and at n = 3 g = P D U with D = diag(p_i / d_i) over six
    # unrelated denominators keeps those of g^T and g^-1 (four, at n = 2,
    # stay under the guard); otherwise r has small denominators or g small
    # entries, and that side runs on ints
    r, unrelated = data.draw(mixed_denominator_skew_tensor())
    n = r.n
    g_unrelated = n == 3 and data.draw(st.booleans())
    if g_unrelated:
        dens = unrelated_denominators(2 * n)
        diag = [Fraction(dens[n + i], dens[i]) for i in range(n)]
        upper = [[1 if i == j else data.draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
        rows = data.draw(st.permutations(range(n)))
        g = RatMatrix([[diag[i] * upper[i][j] for j in range(n)] for i in rows])
    else:
        cells = st.fractions(-9, 9, max_denominator=9)
        g = RatMatrix(data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n)))
        assume(leibniz(g) != 0)
    coeffs = [v for m in (g.transpose(), mat_inverse(g)) for row in m.sparse_rows for v in row.values()]
    assert (type(common_denominator(coeffs)[1][0]) is int) != g_unrelated
    assert (type(common_denominator([v for _, v in r.iter_items()])[1][0]) is int) != unrelated
    assert gl_transform(r, g) == gl_transform_fractions(r, g)


@pytest.mark.parametrize("seed", range(5))
def test_gl_transform_preserves_solution(seed):
    rng = random.Random(200 + seed)
    r = r_closed_m1(LambdaSpec(3, 1, [0, 1, 2]))
    moved = gl_transform(r, rand_invertible(rng, 3))
    assert (check_skew(moved), aybe_residual(moved)) == ([], [])


def test_transpose_dual_involution():
    rng = random.Random(3)
    t = rand_skew_tensor(rng, 3)
    assert transpose_dual(transpose_dual(t)) == t
    assert transpose_dual(Tensor4(2)) == Tensor4(2)


def test_transpose_dual_preserves_verdicts():
    rng = random.Random(4)
    corpus = [
        r_closed_m1(LambdaSpec(2, 1, [2, 1])),
        r_closed_m1(LambdaSpec(3, 1, [0, 1, 2])),
        Tensor4(2, {(0, 1, 0, 1): 1, (1, 0, 1, 0): -1}),
    ] + [rand_skew_tensor(rng, 2, dense=True) for _ in range(3)]
    for t in corpus:
        dual = transpose_dual(t)
        skew, residual = check_skew(t), aybe_residual(t)
        dual_skew, dual_residual = check_skew(dual), aybe_residual(dual)
        assert (not skew and not residual) == (not dual_skew and not dual_residual)
        assert bool(skew) == bool(dual_skew)


def test_json_round_trip_and_ordering():
    r = r_closed_m1(LambdaSpec(3, 1, [0, 1, 2]))
    text = r.dumps()
    again = Tensor4.loads(text)
    assert again == r
    assert again.dumps() == text
    keys = [tuple(e["upper"] + e["lower"]) for e in tensor_json_obj(r)["entries"]]
    assert keys == sorted(keys)


# 4301-5001 digits, past the default int/str limit; built as text
HUGE_VALUE = st.builds(
    lambda sign, lead, tens, den: Fraction(int(f"{sign}{lead}{'0123456789' * tens}"), den),
    st.sampled_from(["", "-"]), st.integers(1, 9), st.integers(430, 500), st.integers(1, 9),
)
VALUE = st.fractions(max_denominator=50) | st.integers(-10**6, 10**6) | HUGE_VALUE


@st.composite
def random_tensor(draw):
    n = draw(st.integers(1, 12))
    idx = st.integers(0, n - 1)
    return Tensor4(n, draw(st.dictionaries(st.tuples(idx, idx, idx, idx), VALUE, max_size=30)))


@settings(max_examples=60, deadline=None)
@given(random_tensor())
@example(Tensor4(1))
@example(Tensor4(12, {(11, 0, 3, 11): Fraction(-(10**4400) - 1, 7), (0, 0, 0, 0): Fraction(5)}))
def test_dumps_is_json_dumps_indent_2(r):
    assert r.dumps() == json.dumps(tensor_json_obj(r), indent=2) + "\n"


def test_dumps_refuses_what_loads_refuses():
    # an entry of MAX_LITERAL_CHARS characters is written and read back;
    # one more character is refused by dumps, as loads would refuse it
    at = Tensor4(2, {(0, 1, 0, 1): Fraction(-(10 ** (MAX_LITERAL_CHARS - 4)), 7)})
    assert len(format_rational(at.get(0, 1, 0, 1))) == MAX_LITERAL_CHARS
    assert Tensor4.loads(at.dumps()) == at
    past = Tensor4(2, {(0, 1, 0, 1): Fraction(-(10 ** (MAX_LITERAL_CHARS - 3)), 7), (1, 0, 1, 0): 1})
    with pytest.raises(ValueError, match=f"length = {MAX_LITERAL_CHARS + 1} characters exceeds the limit of {MAX_LITERAL_CHARS} "):
        past.dumps()
    # five entries of MAX_LITERAL_CHARS characters each fit the per-entry
    # limit, but loads would refuse the file for its summed literal lengths
    value = Fraction(10 ** (MAX_LITERAL_CHARS - 1))
    many = Tensor4(2, dict.fromkeys([(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 0, 1)], value))
    with pytest.raises(ValueError, match=f"= {5 * MAX_LITERAL_CHARS**2} exceeds the limit of {LITERAL_BUDGET} "):
        many.dumps()


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
    obj = tensor_json_obj(Tensor4(2))
    mutate(obj)
    with pytest.raises(ValueError):
        Tensor4.loads(json.dumps(obj))


@pytest.mark.parametrize("n", [0, -1])
def test_tensor_dimension_below_1(n):
    with pytest.raises(ValueError, match="tensor dimension must be >= 1"):
        Tensor4(n)


def test_compare_tensors():
    r = r_closed_m1(LambdaSpec(2, 1, [2, 1]))
    assert compare_tensors(r, r) == []
    diffs = compare_tensors(r, Tensor4(2))
    assert len(diffs) == r.nnz
    with pytest.raises(ValueError):
        compare_tensors(r, Tensor4(3))


@st.composite
def tensor_pairs(draw):
    """Two tensors of one n <= 3 whose keys are shared with equal values,
    shared with different values, or held by one side only."""
    n = draw(st.integers(1, 3))
    idx = st.integers(0, n - 1)
    keys = draw(st.lists(st.tuples(idx, idx, idx, idx), unique=True, max_size=12))
    value = st.fractions(-3, 3, max_denominator=4).filter(bool)
    e1, e2 = {}, {}
    for key in keys:
        kind = draw(st.sampled_from(["equal", "different", "first", "second"]))
        v = draw(value)
        if kind != "second":
            e1[key] = v
        if kind == "equal":
            e2[key] = v
        elif kind != "first":
            e2[key] = draw(value.filter(lambda w: w != v))
    return Tensor4(n, e1), Tensor4(n, e2)


@settings(max_examples=150, deadline=None)
@given(pair=tensor_pairs())
def test_compare_tensors_matches_dense_oracle(pair):
    r1, r2 = pair
    diffs = compare_tensors(r1, r2)
    assert diffs == compare_tensors_dense(r1, r2)
    assert all(type(v) is Fraction for _, v1, v2 in diffs for v in (v1, v2))
    assert compare_tensors(r2, r1) == [(key, v2, v1) for key, v1, v2 in diffs]


def assert_canonical(r: Tensor4) -> None:
    """r holds only nonzero Fractions at indices below r.n, as the checked
    constructor would keep them."""
    for key, v in r.iter_items():
        assert type(key) is tuple and len(key) == 4 and all(type(i) is int and 0 <= i < r.n for i in key)
        assert type(v) is Fraction and v
    assert r == Tensor4(r.n, dict(r.iter_items()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_package_builds_canonical_tensors(data):
    """Every tensor the package builds bypasses the constructor's pass
    (tensor._checked), so each must already be canonical: the closed forms,
    r_from_algebra, transpose_dual, gl_transform and Tensor4.loads."""
    n, m = data.draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (6, 3), (8, 4)]))
    size = n // m
    rationals = st.fractions(-3, 3, max_denominator=3)
    kind = data.draw(st.sampled_from(["distinct", "block", "other"]))
    if kind == "distinct":
        values = data.draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    elif kind == "block":
        blocks = data.draw(st.lists(rationals, min_size=size, max_size=size, unique=True))
        values = [blocks[i // m] for i in range(n)]
    else:  # distinct within each class from a small pool, so repeated across classes
        pool = data.draw(st.lists(rationals, min_size=size, max_size=size + 1, unique=True))
        values = [None] * n
        for r in range(m):
            values[r::m] = data.draw(st.permutations(pool))[:size]
    lam = LambdaSpec(n, m, values)
    built = [r_from_algebra(lam)]
    if lam.mode == "DISTINCT":
        built += [r_closed_distinct(lam)] + ([r_closed_m1(lam)] if m == 1 else [])
    if lam.has_block_pattern():
        built.append(r_closed_block(lam))
    # triangular with a nonzero diagonal, so invertible
    entry = st.fractions(-2, 2, max_denominator=3)
    g = RatMatrix([[data.draw(entry.filter(bool) if i == j else entry) if i <= j else 0 for j in range(n)]
                   for i in range(n)])
    for r in list(built):
        built += [transpose_dual(r), gl_transform(r, g), Tensor4.loads(r.dumps())]
    for r in built:
        assert_canonical(r)


def test_checks_independent_of_insertion_order():
    entries = {(1, 0, 1, 1): Fraction(1), (0, 1, 1, 1): Fraction(-1)}
    reversed_entries = dict(reversed(list(entries.items())))
    a, b = Tensor4(2, entries), Tensor4(2, reversed_entries)
    assert a == b
    assert check_skew(a) == check_skew(b)
    assert aybe_residual(a) == aybe_residual(b)
    assert a.dumps() == b.dumps()


@st.composite
def constructor_args(draw):
    """(n, entries) with int, bool and Fraction values, zeros among them,
    and now and then a key with an index of -1 or n at a random place."""
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    value = st.integers(-3, 3) | st.booleans() | st.fractions(max_denominator=6)
    items = list(draw(st.dictionaries(st.tuples(idx, idx, idx, idx), value, max_size=6)).items())
    if draw(st.booleans()):
        key = draw(st.lists(idx, min_size=4, max_size=4))
        key[draw(st.integers(0, 3))] = draw(st.sampled_from([-1, n]))
        items.insert(draw(st.integers(0, len(items))), (tuple(key), draw(value)))
    return n, dict(items)


@settings(max_examples=200, deadline=None)
@given(constructor_args())
def test_constructor_matches_old(args):
    """Equal tensors holding only Fractions, or the same error."""
    n, entries = args
    try:
        expected = tensor_init_old(n, entries)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Tensor4(n, entries)
        assert str(got.value) == str(exc)
    else:
        r = Tensor4(n, entries)
        assert r == expected and all(type(v) is Fraction for _, v in r.iter_items())


def test_entries_validated():
    with pytest.raises(ValueError):
        Tensor4(2, {(0, 0, 0, 2): Fraction(1)})
    # zeros are dropped, not stored
    assert Tensor4(2, {(0, 0, 0, 0): Fraction(0)}).nnz == 0
