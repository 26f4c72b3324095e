import random
from fractions import Fraction

from aybe.exactlin import RatMatrix, determinant
from aybe.frobenius import make_lambda


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
