"""Correctness gate, oracle cross-checks and deterministic counters.

Nothing here is timed. The gate and the counters read the files a pass
left behind with the benchmark's own parsing; only the oracle
cross-check calls into `aybe`, to compare a fast path with its reference.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from fractions import Fraction
from math import comb
from pathlib import Path

MODULES = ("cli", "exactlin", "frobenius", "closedform", "tensor", "poisson")

# aybe_residual is compared with aybe_residual_naive on checked tensors up
# to this dimension: the n <= 3 inputs of the small workload.
ORACLE_MAX_N = 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(text: str) -> str:
    """Digest of a report with its only nondeterministic field removed."""
    obj = json.loads(text)
    obj.pop("timing_ms", None)
    return sha256((json.dumps(obj, indent=2) + "\n").encode())


def job_digests(job: dict, pass_dir: Path) -> dict:
    out = {"report": report_digest((pass_dir / f"{job['id']}.report.json").read_text())}
    if job["out"]:
        out["out"] = sha256((pass_dir / job["out"]).read_bytes())
    return out


def check_job(job: dict, result: dict, pass_dir: Path, expected_digests: dict | None) -> str | None:
    """Why the job failed, or None. Exit code, report verdict, violation
    lists, output files, the closed-form equality of built tensors
    and, for the default seed, the digests recorded from the seed commit."""
    if result["error"]:
        return f"raised {result['error']}"
    if result["code"] != job["expect"]:
        return f"exit {result['code']}, expected {job['expect']}"
    report_path = pass_dir / f"{job['id']}.report.json"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if report.get("verdict") != job["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {job['verdict']!r}"
    for field in job["violations"]:
        if not report.get("details", {}).get(field):
            return f"report has no {field}"
    if job["out"] and not (pass_dir / job["out"]).is_file():
        return f"missing output {job['out']}"
    if job["closed"]:
        built = (pass_dir / job["out"]).read_bytes()
        if built != (pass_dir / job["closed"]).read_bytes():
            return "output differs from the closed form"
    if expected_digests is not None:
        if job_digests(job, pass_dir) != expected_digests.get(job["id"]):
            return "output or report digest differs from the seed commit"
    return None


def parse_tensor(path: Path) -> tuple[int, list]:
    obj = json.loads(path.read_text())
    entries = [
        (*e["upper"], *e["lower"], Fraction(e["value"])) for e in obj["entries"]
    ]
    return obj["n"], entries


# --- deterministic counters ---------------------------------------------


def gram_counts(n: int, m: int, values) -> tuple[int, int, int]:
    """(dim, nnz, largest component) of the Gram matrix of the form
    (x, y) = sum x_uv y_vu (l_u - l_v) over the basis E_ij - E_bar(i,j),j."""
    lam = [Fraction(v) for v in values]
    basis = [(i, j) for j in range(n) for i in range(n) if i // m != j // m]
    at: dict = defaultdict(list)  # matrix position -> (element, coefficient)
    for s, (i, j) in enumerate(basis):
        at[(i, j)].append((s, 1))
        at[((j // m) * m + i % m, j)].append((s, -1))
    gram: dict = defaultdict(Fraction)
    for (u, v), xs in at.items():
        for s, xv in xs:
            for t, yv in at.get((v, u), ()):
                gram[(s, t)] += xv * yv * (lam[u] - lam[v])
    parent = list(range(len(basis)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nnz = 0
    for (s, t), value in gram.items():
        if value:
            nnz += 1
            parent[find(s)] = find(t)
    sizes: dict = defaultdict(int)
    for s in range(len(basis)):
        sizes[find(s)] += 1
    return len(basis), nnz, max(sizes.values())


def tensor_counts(entries) -> tuple[int, int, int]:
    """(nnz, residual join pairs, largest numerator/denominator bit length).

    A join pair is two entries where the second's first lower index equals
    the first's second upper index: the pairs the residual must visit."""
    by_lower0: dict = defaultdict(int)
    for a, b, c, d, v in entries:
        by_lower0[c] += 1
    pairs = sum(by_lower0[b] for a, b, c, d, v in entries)
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for *_, v in entries), default=0)
    return len(entries), pairs, bits


def bracket_pairs(n: int, entries, m_size: int) -> int:
    """Nonzero generator pairs u < v of the bracket
    {x_(a,i,j), x_(b,k,l)} = sum_(g,e) r^{ge}_{ab} x_(g,i,l) x_(e,k,j)."""
    groups: dict = defaultdict(list)
    for g, e, a, b, v in entries:
        groups[(a, b)].append((g, e, v))
    q = m_size * m_size
    gens = n * q
    count = 0
    for u in range(gens):
        au, iu, ju = u // q, (u % q) // m_size, u % m_size
        for v in range(u + 1, gens):
            av, iv, jv = v // q, (v % q) // m_size, v % m_size
            poly: dict = defaultdict(Fraction)
            for g, e, val in groups.get((au, av), ()):
                x = g * q + iu * m_size + jv
                y = e * q + iv * m_size + ju
                poly[(min(x, y), max(x, y))] += val
            count += any(poly.values())
    return count


def option(argv: list, name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def counters(jobs: list, pass_dir: Path, src: Path) -> dict:
    """Workload-identity counts per pass; two runs whose counts differ did
    not do the same work."""
    c = dict.fromkeys(
        ["frobenius.dim", "frobenius.gram_nnz", "frobenius.gram_max_component",
         "tensor.nnz", "tensor.join_pairs", "tensor.max_bits",
         "poisson.generators", "poisson.bracket_pairs", "poisson.jacobi_triples"], 0)
    for job in jobs:
        argv, cmd = job["argv"], job["cmd"]
        if cmd in ("construct", "cocycle"):
            n, m = int(option(argv, "--n")), int(option(argv, "--m"))
            values = option(argv, "--lambda").split(",")
            if cmd == "cocycle":
                c["frobenius.dim"] += n * (n - m)
                continue
            dim, nnz, comp = gram_counts(n, m, values)
            c["frobenius.dim"] += dim
            c["frobenius.gram_nnz"] += nnz
            c["frobenius.gram_max_component"] = max(c["frobenius.gram_max_component"], comp)
        elif cmd in ("verify", "transform"):
            # the tensor aybe_residual checks: the input, or what transform wrote
            path = pass_dir / (job["tensor"] if cmd == "verify" else job["out"])
            nnz, pairs, bits = tensor_counts(parse_tensor(path)[1])
            c["tensor.nnz"] += nnz
            c["tensor.join_pairs"] += pairs
            c["tensor.max_bits"] = max(c["tensor.max_bits"], bits)
        elif cmd == "bracket":
            n, entries = parse_tensor(pass_dir / job["tensor"])
            gens = n * job["m_size"] ** 2
            c["poisson.generators"] += gens
            c["poisson.bracket_pairs"] += bracket_pairs(n, entries, job["m_size"])
            c["poisson.jacobi_triples"] += comb(gens + 2, 3)
    for module in MODULES:
        c[f"{module}.lines"] = len((src / "aybe" / f"{module}.py").read_text().splitlines())
    return c


def oracle_mismatches(jobs: list, pass_dir: Path) -> tuple[int, list]:
    """Compare aybe_residual with aybe_residual_naive on every checked
    tensor of dimension <= ORACLE_MAX_N. Returns (checks made, mismatching files)."""
    from aybe.tensor import Tensor4, aybe_residual, aybe_residual_naive

    seen: set = set()
    bad = []
    for job in jobs:
        if job["cmd"] not in ("verify", "transform"):
            continue
        path = pass_dir / (job["tensor"] if job["cmd"] == "verify" else job["out"])
        text = path.read_text()
        if text in seen or json.loads(text)["n"] > ORACLE_MAX_N:
            continue
        seen.add(text)
        r = Tensor4.loads(text)
        if aybe_residual(r) != aybe_residual_naive(r):
            bad.append(job["id"])
    return len(seen), bad
