"""Four-index coefficient tensors and the component checks a candidate
solution of the associative Yang-Baxter equation must pass.

A tensor r stores components r^{ab}_{cd}: (a, b) are the upper (output)
indices, (c, d) the lower (input) ones, all 0-based. Only nonzero values
are kept; an absent quadruple is an exact zero.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import product
from operator import add

from aybe.exactlin import (
    LONG_LITERAL_CHARS,
    MAX_LITERAL_CHARS,
    RatMatrix,
    _ZERO,
    _check_limit,
    check_literals,
    common_denominator,
    format_rational,
    load_json,
    mat_inverse,
    parse_rational,
)

__all__ = [
    "Tensor4",
    "check_skew",
    "aybe_residual",
    "gl_transform",
    "transpose_dual",
    "compare_tensors",
]

Quad = tuple[int, int, int, int]

# gl_transform refuses, before it starts, a pass of more products than this
# (a pass's output has at most as many entries): ten times the nonzeros the
# CLI admits in a transformed tensor, and as many as a dense g needs on a
# tensor that holds every entry of n = 10.
MAX_PASS_PRODUCTS = 100_000
# aybe_residual refuses, before its join, more products than this: the
# distinct (16,2) tensor needs 4,665,600, a dense n = 10 tensor 10,000,000.
MAX_JOIN_PRODUCTS = 5_000_000

# The layout json.dumps(obj, indent=2) gives a tensor's JSON object.
_EMPTY = '{\n  "n": %d,\n  "entries": []\n}\n'
_FILE = '{\n  "n": %d,\n  "entries": [\n%s\n  ]\n}\n'
_ENTRY = (
    '    {\n      "upper": [\n        %d,\n        %d\n      ],\n'
    '      "lower": [\n        %d,\n        %d\n      ],\n      "value": "%s"\n    }'
)


class Tensor4:
    """Sparse 4-index tensor over exact rationals, immutable after construction.

    Tensor4(n, entries) is the checked front door for input from outside the
    package: it range-checks the indices, converts each value to Fraction and
    drops zeros. The package builds its own tensors through _checked."""

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: Mapping[Quad, Fraction] | None = None):
        if n < 1:
            raise ValueError("tensor dimension must be >= 1")
        self.n = n
        entries = entries or {}
        _check_indices(n, entries)
        kept: dict[Quad, Fraction] = {}
        for key, value in entries.items():
            if type(value) is not Fraction:
                value = Fraction(value)
            if value:
                kept[tuple(key)] = value
        self._entries = kept

    def get(self, a: int, b: int, c: int, d: int) -> Fraction:
        return self._entries.get((a, b, c, d), _ZERO)

    def items(self) -> list[tuple[Quad, Fraction]]:
        """Entries in lexicographic (a, b, c, d) order."""
        return sorted(self._entries.items())

    def iter_items(self) -> Iterator[tuple[Quad, Fraction]]:
        return iter(self._entries.items())

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tensor4)
            and self.n == other.n
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"Tensor4(n={self.n}, nnz={self.nnz})"

    def dumps(self) -> str:
        """The tensor as JSON text: {"n": n, "entries": [{"upper": [a, b],
        "lower": [c, d], "value": "p/q"}, ...]} in items() order, laid out
        exactly as json.dumps(..., indent=2) lays it out, plus a newline.
        Written from a fixed template; the values need no escaping, since
        format_rational writes only "-", digits and "/". A value longer than
        MAX_LITERAL_CHARS, or a text past exactlin.check_literals' budget,
        which loads would refuse, is refused here too."""
        if not self._entries:
            return _EMPTY % self.n
        items = self.items()
        texts = [format_rational(v) for _, v in items]
        longest = max(map(len, texts))
        if longest > MAX_LITERAL_CHARS:
            raise ValueError(
                f"tensor entry length = {longest} characters exceeds the limit of "
                f"{MAX_LITERAL_CHARS} (MAX_LITERAL_CHARS) that a tensor file can be read with"
            )
        body = ",\n".join([_ENTRY % (*key, text) for (key, _), text in zip(items, texts)])
        text = _FILE % (self.n, body)
        if longest >= LONG_LITERAL_CHARS:
            check_literals(text)
        return text

    @classmethod
    def loads(cls, text: str) -> "Tensor4":
        """Parse the text dumps writes, checking each entry once; the
        indices are range-checked after every entry is read, and the tensor
        is built without the constructor's second pass over the values.
        A text past exactlin.check_literals' limits is refused, and so is a
        value longer than MAX_LITERAL_CHARS; each distinct value text is
        parsed once."""
        obj = load_json(text)
        if not isinstance(obj, dict):
            raise ValueError("tensor JSON must be an object")
        n = obj.get("n")
        if type(n) is not int or n < 1:  # type(), as JSON true decodes to bool, an int
            raise ValueError("tensor JSON needs a positive integer 'n'")
        raw = obj.get("entries")
        if not isinstance(raw, list):
            raise ValueError("tensor JSON needs an 'entries' list")
        entries: dict[Quad, Fraction] = {}
        parsed: dict[str, Fraction] = {}  # each distinct value text is parsed once
        for item in raw:
            if not isinstance(item, dict):
                raise ValueError("tensor entries must be objects")
            upper, lower = item.get("upper"), item.get("lower")
            if not (
                isinstance(upper, list) and isinstance(lower, list) and len(upper) == 2 == len(lower)
                and type(upper[0]) is type(upper[1]) is type(lower[0]) is type(lower[1]) is int
            ):
                raise ValueError(f"bad index pair in tensor entry: {item!r}")
            value = item.get("value")
            if not isinstance(value, str):
                raise ValueError("tensor entry values must be rational strings")
            v = parsed.get(value)
            if v is None:
                v = parsed[value] = parse_rational(value)
                if v == 0:  # raised on the text's first use, so never a cached value
                    raise ValueError("explicit zero entry in tensor file")
            key = (*upper, *lower)
            if key in entries:
                raise ValueError(f"duplicate tensor entry at {key}")
            entries[key] = v
        _check_indices(n, entries)  # only after every entry is read, as Tensor4() checks them
        return _checked(n, entries)


def check_skew(r: Tensor4) -> list[tuple[Quad, Fraction]]:
    """All quadruples where r^{ab}_{cd} + r^{ba}_{dc} is nonzero.

    Empty result means the tensor is skew-symmetric. The involution fixes
    quadruples with a == b and c == d, forcing those components to vanish.
    Each entry is visited with its partner once. A pair of reduced values
    with opposite numerators over one denominator cancels, which is told
    without adding them; otherwise the sum is recorded for both quadruples.
    """
    entries = r._entries
    violations = []
    for key, s in entries.items():
        a, b, c, d = key
        partner = (b, a, d, c)
        w = entries.get(partner)
        if w is not None:
            if partner < key or (w.numerator == -s.numerator and w.denominator == s.denominator):
                continue  # visited with its partner, or cancelled by it
            s += w  # 2 * s when the quadruple is its own partner
        if s:
            violations.append((key, s))
            if partner != key:
                violations.append((partner, s))
    violations.sort()
    return violations


def aybe_residual(r: Tensor4) -> list[tuple[tuple[int, ...], Fraction]]:
    """Nonzero component residuals of the associative Yang-Baxter equation.

    For free indices (l, m, u upper; al, be, ta lower) the residual is

        sum_s [ r^{ls}_{al,be} r^{mu}_{s,ta}
              + r^{ms}_{be,ta} r^{ul}_{s,al}
              + r^{us}_{ta,al} r^{lm}_{s,be} ].

    The first term is T(l,m,u,al,be,ta), and the others are T o rho and
    T o rho^2 with rho(l,m,u,al,be,ta) = (m,u,l,be,ta,al). T is a sparse
    product, T[k1, k2] = sum_s A[k1][s] B[s][k2] with A[k1][s] =
    r^{ls}_{al,be} and B[s][k2] = r^{mu}_{s,ta}, stored at the integer key
    k1 + k2 holding the base-n^2 digits (l,al), (m,be), (u,ta), which rho
    rotates. The k1 are grouped by the set of s their row holds, and so are
    the k2; each pair of groups that share an s is a block of T, formed row
    by row as one list of products per shared s, added elementwise, so each
    entry of T is written once. The residual is then the sum of T over a
    rho-orbit of keys (one or three), taken once per orbit, and a key is
    decoded only when that sum is nonzero. The result is identical to the
    naive loop over all index tuples (see aybe_residual_naive, kept as the
    test oracle).

    The join multiplies integers: each entry scaled by the LCM L of the
    denominators (exactlin.common_denominator), so a residual sums to an int
    v and is returned as Fraction(v, L^2), reduced once per orbit. When L
    would grow far past the largest denominator, the helper keeps the
    Fractions and the same join runs on them. A join of more than
    MAX_JOIN_PRODUCTS products (sum over s of the entries with upper b = s
    times those with lower c = s) is refused with a ValueError before it
    starts.
    """
    n = r.n
    nn = n * n
    top = nn * nn  # the weight of the digit (l, al)
    lcm, scaled = common_denominator(list(r._entries.values()))
    # A[k1][s] = r^{ls}_{al,be}, k1 holding the digits l, al, be of the
    # key; B[s][k2] = r^{mu}_{s,ta}, k2 holding m, u, ta
    rows, cols = defaultdict(dict), defaultdict(dict)
    for (a, b, c, d), v in zip(r._entries, scaled):
        rows[(a * n + c) * top + d * nn][b] = v
        cols[a * n * nn + b * n + d][c] = v
    lefts, rights = _by_support(rows), _by_support(cols)
    # s -> the right groups holding it, and how many keys they hold
    holding, width = defaultdict(list), defaultdict(int)
    for i, (keys, vals) in enumerate(rights):
        for s in vals:
            holding[s].append(i)
            width[s] += len(keys)
    joined = sum(len(keys) * width[s] for keys, vals in lefts for s in vals)
    _check_limit("residual join products", joined, MAX_JOIN_PRODUCTS)
    t = {}
    for keys1, vals1 in lefts:
        shared = defaultdict(list)  # right group -> the s it shares with this one
        for s in vals1:
            for i in holding[s]:
                shared[i].append(s)
        for i, ss in shared.items():
            keys2, vals2 = rights[i]
            block = None
            for s in ss:
                ys = vals2[s]
                terms = [x * y for x in vals1[s] for y in ys]
                block = terms if block is None else list(map(add, block, terms))
            t.update(zip([k1 + k2 for k1 in keys1 for k2 in keys2], block))

    def indices(k: int) -> tuple[int, ...]:
        hi, lo = divmod(k, top)
        mid, lo = divmod(lo, nn)
        (l, al), (m, be), (u, ta) = divmod(hi, n), divmod(mid, n), divmod(lo, n)
        return l, m, u, al, be, ta

    den = lcm * lcm
    out = []
    while t:  # one orbit per step, its keys popped together
        k, v = t.popitem()
        k1 = k % top * nn + k // top
        if k1 == k:
            orbit, v = (k,), 3 * v
        else:
            k2 = k1 % top * nn + k1 // top
            orbit, v = (k, k1, k2), v + t.pop(k1, 0) + t.pop(k2, 0)
        if v:
            value = Fraction(v, den)
            out.extend((indices(key), value) for key in orbit)
    out.sort()
    return out


def _by_support(table: dict[int, dict]) -> list[tuple[list, dict]]:
    """The keys of table, grouped by the set of s their rows hold: one
    (keys, {s: the values at s, in the order of keys}) per set."""
    groups = {}
    for k, row in table.items():
        support = tuple(sorted(row))
        if support not in groups:
            groups[support] = ([], {s: [] for s in support})
        keys, vals = groups[support]
        keys.append(k)
        for s, v in row.items():
            vals[s].append(v)
    return list(groups.values())


def aybe_residual_naive(r: Tensor4) -> list[tuple[tuple[int, ...], Fraction]]:
    """Reference O(n^7) residual; a test oracle, not public (bench/checks.py uses it)."""
    n = r.n
    out = []
    for key in product(range(n), repeat=6):
        l, m, u, al, be, ta = key
        s = Fraction(0)
        for sg in range(n):
            s += r.get(l, sg, al, be) * r.get(m, u, sg, ta)
            s += r.get(m, sg, be, ta) * r.get(u, l, sg, al)
            s += r.get(u, sg, ta, al) * r.get(l, m, sg, be)
        if s:
            out.append((key, s))
    return out


def gl_transform(r: Tensor4, g: RatMatrix) -> Tensor4:
    """Change of basis: r'^{ab}_{cd} = g^a_p g^b_q r^{pq}_{rs} (g^-1)^r_c (g^-1)^s_d.

    Four passes, one per index, each replacing one base-n digit of the int
    key ((a*n + b)*n + c)*n + d. r is scaled to ints by its common
    denominator L_r, and g^T and g^-1 together by one L_g, so the passes
    add ints (or the Fractions common_denominator keeps) and each entry is
    reduced once, as Fraction(v, L_r * L_g^4). Before each pass, the
    products it would form (the row sizes of the keys it reads) are
    counted, and a pass of more than MAX_PASS_PRODUCTS is refused with a
    ValueError.
    """
    n = r.n
    _check_basis_change(n, g.rows, [g.cols])
    gt = g.transpose().sparse_rows  # gt[p] = {a: g^a_p}
    h = mat_inverse(g).sparse_rows  # h[r] = {c: (g^-1)^r_c}
    lg, coeffs = common_denominator([v for rows in (gt, h) for row in rows for v in row.values()])
    coeffs = iter(coeffs)
    # a pass that takes digit p to new adds (new - p) * weight to the key
    up = [[(new - p, next(coeffs)) for new in row] for p, row in enumerate(gt)]
    down = [[(new - p, next(coeffs)) for new in row] for p, row in enumerate(h)]
    lr, values = common_denominator(list(r._entries.values()))
    nn = n * n
    cur: dict[int, int | Fraction] = {
        ((a * n + b) * n + c) * n + d: v for (a, b, c, d), v in zip(r._entries, values)
    }
    for weight, rows in ((nn * n, up), (nn, up), (n, down), (1, down)):
        sizes = [len(row) for row in rows]
        products = sum([sizes[key // weight % n] for key in cur])
        _check_limit("basis change pass products", products, MAX_PASS_PRODUCTS)
        out: dict[int, int | Fraction] = defaultdict(int)
        for key, v in cur.items():
            for delta, coeff in rows[key // weight % n]:
                out[key + delta * weight] += coeff * v
        cur = out
    den, entries = lr * lg**4, {}
    for key, v in cur.items():
        if v:
            abc, d = divmod(key, n)
            ab, c = divmod(abc, n)
            entries[divmod(ab, n) + (c, d)] = Fraction(v, den)
    return _checked(n, entries)


def _check_basis_change(n: int, rows: int, lengths: Iterable[int]) -> None:
    """Refuse a basis change of `rows` rows, of the given lengths, unless it is n x n."""
    if rows != n or any(length != n for length in lengths):
        raise ValueError(f"basis change matrix must be {n}x{n}")


def _check_dimensions(a: int, b: int) -> None:
    """Refuse to compare tensors of dimensions a != b."""
    if a != b:
        raise ValueError(f"cannot compare tensors of dimension {a} and {b}")


def _check_indices(n: int, keys: Iterable[Quad]) -> None:
    """Raise ValueError at the first key with an index outside range(n)."""
    for key in keys:
        a, b, c, d = key
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            raise ValueError(f"index out of range for n={n}: {key}")


def _checked(n: int, entries: dict[Quad, Fraction]) -> Tensor4:
    """The tensor holding entries as they are, without the constructor's
    pass: the caller has checked that every index is below n and that every
    value is a nonzero Fraction. Every tensor the package builds comes
    through here; Tensor4(n, entries) is for input from outside it."""
    r = Tensor4.__new__(Tensor4)
    r.n, r._entries = n, entries
    return r


def transpose_dual(r: Tensor4) -> Tensor4:
    """Swap the upper and lower index blocks: r^{ab}_{cd} -> r^{cd}_{ab}."""
    return _checked(r.n, {(c, d, a, b): v for (a, b, c, d), v in r._entries.items()})


def aybe_report(r: Tensor4) -> tuple[list, list]:
    """(check_skew(r), aybe_residual(r)); not public (bench/tests/test_bench.py calls it)."""
    return check_skew(r), aybe_residual(r)


def compare_tensors(r1: Tensor4, r2: Tensor4) -> list[tuple[Quad, Fraction, Fraction]]:
    """Quadruples where the two tensors differ, in sorted order, with both
    values (Fraction(0) where a tensor has no entry)."""
    _check_dimensions(r1.n, r2.n)
    e1, e2 = r1._entries, r2._entries
    if e1 == e2:
        return []
    pairs = ((key, e1.get(key, _ZERO), e2.get(key, _ZERO)) for key in sorted(e1.keys() | e2.keys()))
    return [(key, v1, v2) for key, v1, v2 in pairs if v1 != v2]
