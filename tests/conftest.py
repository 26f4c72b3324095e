import random
from fractions import Fraction

from aybe.exactlin import RatMatrix, determinant, mat_mul
from aybe.frobenius import make_lambda
from aybe.tensor import Tensor4


def rand_fraction(rng: random.Random, bound: int = 10, max_den: int = 10, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_distinct_values(rng: random.Random, n: int, bound: int = 20) -> tuple:
    vals: list[Fraction] = []
    while len(vals) < n:
        f = rand_fraction(rng, bound=bound)
        if f not in vals:
            vals.append(f)
    return tuple(vals)


def rand_distinct_lambda(rng: random.Random, n: int, m: int):
    return make_lambda(n, m, rand_distinct_values(rng, n))


def rand_block_lambda(rng: random.Random, n: int, m: int):
    block_vals = rand_distinct_values(rng, n // m)
    return make_lambda(n, m, [block_vals[i // m] for i in range(n)])


def dense(n: int, entries) -> RatMatrix:
    """The n x n matrix with the given (row, col, value) entries, summed."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i, j, v in entries:
        grid[i][j] += v
    return RatMatrix(grid)


def rand_matrix(rng: random.Random, n: int) -> RatMatrix:
    return RatMatrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng: random.Random, n: int) -> RatMatrix:
    while True:
        g = rand_matrix(rng, n)
        if determinant(g) != 0:
            return g


# --- dense oracles ------------------------------------------------------


def diagonal(values) -> RatMatrix:
    vals = list(values)
    return RatMatrix([[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))])


def commutator(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """xy - yx for square matrices of equal size."""
    if not x.is_square() or not y.is_square() or x.rows != y.rows:
        raise ValueError("commutator needs square matrices of equal size")
    return mat_mul(x, y) - mat_mul(y, x)


def trace(a: RatMatrix) -> Fraction:
    if not a.is_square():
        raise ValueError("trace needs a square matrix")
    return sum((a[i][i] for i in range(a.rows)), Fraction(0))


def form_eval(x: RatMatrix, y: RatMatrix, lam) -> Fraction:
    """(x, y) = tr([x, y] diag(lambda)) = sum x_uv y_vu (lambda_u - lambda_v),
    summed over every index pair."""
    n = lam.n
    if not x.is_square() or x.rows != n or y.rows != n or y.cols != n:
        raise ValueError(f"form needs {n}x{n} matrices")
    vals, xs, ys = lam.values, [x[u] for u in range(n)], [y[v] for v in range(n)]
    return sum(
        (xs[u][v] * ys[v][u] * (vals[u] - vals[v]) for u in range(n) for v in range(n) if xs[u][v]),
        Fraction(0),
    )


def membership_check(a: RatMatrix, n: int, m: int) -> bool:
    """True when every column sums to zero over each residue class mod m."""
    if a.rows != n or a.cols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {a.rows}x{a.cols}")
    for j in range(n):
        for res in range(m):
            if sum((a[i][j] for i in range(res, n, m)), Fraction(0)):
                return False
    return True


def negate(r: Tensor4) -> Tensor4:
    return Tensor4(r.n, {k: -v for k, v in r.iter_items()})
