"""Seeded inputs and job lists for the four benchmark workloads.

`generate(workload, seed, directory)` writes every input file a pass reads
into `directory` and returns the ordered job list. The same seed always
gives byte-identical files and the same jobs. Valid tensors come from the
closed-form families (cheap) and `gl_transform`, never from `construct`,
so set-up stays short; `construct` outputs are checked byte for byte
against the closed form written here.

A job is a dict:

    id       unique name, also the stem of its report and output files
    cmd      metric name of the CLI command (construct, closed_form, ...)
    argv     arguments for `aybe.cli.main`, relative to the pass directory
    expect   exit code the seed commit gives (0 pass, 1 fail, 3 degenerate)
    verdict  report verdict that goes with `expect`
    key      per-job record key: command, n, m, lambda family
    out      output file the job writes, or None
    closed   input file that `out` must equal byte for byte (construct, and
             closed-form --out), or None
    tensor   input tensor the job reads, or None
    violations  report detail lists that must be non-empty (failing verifies)

Lambdas are always passed as `--lambda=<csv>`: `--lambda -1,0,1` exits 2
because argparse reads the leading `-` as an option.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from aybe.closedform import r_closed_block, r_closed_distinct, r_closed_m1
from aybe.exactlin import RatMatrix, format_rational, matrix_to_json
from aybe.frobenius import make_lambda
from aybe.tensor import Tensor4, gl_transform

WORKLOADS = ("algebra", "check", "bracket", "small")

# Inputs sit next to the pass directories; argv paths are relative to a pass.
INPUTS = "../inputs"

# A skew-symmetric tensor that fails AYBE gives a bracket that also fails
# Jacobi; recorded from the seed commit on the perturbed (6,3) tensor.
NON_AYBE_BRACKET_EXIT = 1

# Job groups in the small workload; each adds about 18 jobs at n <= 4.
SMALL_GROUPS = 14


def grid_values(rng: random.Random, n: int) -> list[Fraction]:
    """Low height: the (k^2+1)/(k+2) grid, shuffled and shifted by an integer.

    Only differences of lambda enter the form, so the shift keeps the cost
    of a job close to the grid's while the inputs still differ per seed.
    """
    vals = [Fraction(k * k + 1, k + 2) for k in range(n)]
    rng.shuffle(vals)
    shift = rng.randint(-50, 50)
    return [v + shift for v in vals]


def wide_values(rng: random.Random, n: int) -> list[Fraction]:
    """About 30 bits: distinct signed integers with the top bit set."""
    vals: list[Fraction] = []
    while len(vals) < n:
        v = Fraction(rng.choice((-1, 1)) * (rng.getrandbits(29) | 1 << 29))
        if v not in vals:
            vals.append(v)
    return vals


def block_values(rng: random.Random, n: int, m: int) -> list[Fraction]:
    """Equal exactly within each block of m consecutive indices."""
    per_block = [Fraction(v) for v in rng.sample(range(-20, 21), n // m)]
    return [per_block[i // m] for i in range(n)]


def small_values(rng: random.Random, n: int) -> list[Fraction]:
    """Distinct low-height rationals p/q, |p| <= 40, q <= 6."""
    vals: list[Fraction] = []
    while len(vals) < n:
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        if v not in vals:
            vals.append(v)
    return vals


def unitriangular(rng: random.Random, n: int, pattern=None) -> RatMatrix:
    """Determinant-1 basis change: identity plus entries in {+-1, +-2}.

    `pattern` lists the (row, col) positions to fill; the default fills the
    whole strict upper triangle, which makes the transformed tensor dense.
    """
    if pattern is None:
        pattern = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grid = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j in pattern:
        grid[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
    return RatMatrix(grid)


def perturb(rng: random.Random, r: Tensor4, keep_skew: bool) -> Tensor4:
    """Change one entry by a nonzero delta; with `keep_skew`, change its
    skew partner by -delta so only the AYBE residual breaks."""
    entries = dict(r.iter_items())
    keys = sorted(k for k in entries if k != (k[1], k[0], k[3], k[2]))
    a, b, c, d = rng.choice(keys)
    delta = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    entries[(a, b, c, d)] += delta
    if keep_skew:
        entries[(b, a, d, c)] = entries.get((b, a, d, c), Fraction(0)) - delta
    return Tensor4(r.n, entries)


def csv(values) -> str:
    return ",".join(format_rational(v) for v in values)


class JobList:
    """Writes inputs for one workload and collects its jobs in order."""

    def __init__(self, directory: Path, rng: random.Random):
        self.dir = directory
        self.rng = rng
        self.jobs: list[dict] = []

    def _input(self, name: str, text: str) -> str:
        path = self.dir / name
        if path.exists() and path.read_text() != text:
            raise ValueError(f"two different inputs named {name}")
        path.write_text(text)
        return f"{INPUTS}/{name}"

    def tensor_file(self, name: str, r: Tensor4) -> str:
        return self._input(f"{name}.json", r.dumps())

    def matrix_file(self, name: str, g: RatMatrix) -> str:
        return self._input(f"{name}.json", json.dumps(matrix_to_json(g)) + "\n")

    def add(self, jid: str, cmd: str, argv: list, key: tuple, expect: int = 0,
            verdict: str = "pass", out: str | None = None, **extra) -> dict:
        if any(job["id"] == jid for job in self.jobs):
            raise ValueError(f"duplicate job id {jid}")
        argv = list(argv) + ["--report", f"{jid}.report.json"]
        command, n, m, family = key
        job = {
            "id": jid,
            "cmd": cmd,
            "argv": argv,
            "expect": expect,
            "verdict": verdict,
            "key": {"command": command, "n": n, "m": m, "family": family},
            "out": out,
            "closed": None,
            "tensor": None,
            "violations": [],
        }
        job.update(extra)
        self.jobs.append(job)
        return job

    # --- one helper per CLI command -------------------------------------

    def construct(self, tag: str, n: int, m: int, family: str, values, closed: Tensor4 | None):
        """`closed` is the expected tensor; None marks a degenerate lambda (exit 3)."""
        jid = f"construct-{n}x{m}-{family}{tag}"
        out = f"{jid}.out.json"
        argv = ["construct", "--n", str(n), "--m", str(m), f"--lambda={csv(values)}", "--out", out]
        if closed is None:
            return self.add(jid, "construct", argv, ("construct", n, m, family),
                            expect=3, verdict="degenerate")
        return self.add(jid, "construct", argv, ("construct", n, m, family), out=out,
                        closed=self.tensor_file(f"{jid}.expected", closed))

    def closed_form(self, built: dict, variant: str, values):
        k = built["key"]
        jid = "closed-" + built["id"].removeprefix("construct-")
        argv = ["closed-form", "--variant", variant, "--n", str(k["n"]), "--m", str(k["m"]),
                f"--lambda={csv(values)}", "--compare", built["out"]]
        return self.add(jid, "closed_form", argv, ("closed-form", k["n"], k["m"], k["family"]))

    def closed_out(self, tag: str, n: int, m: int, family: str, values):
        """closed-form --out, whose file must equal the generator's closed form."""
        jid = f"closed-{n}x{m}-{family}{tag}-out"
        out = f"{jid}.out.json"
        closed = r_closed_distinct(make_lambda(n, m, values))
        argv = ["closed-form", "--variant", "distinct", "--n", str(n), "--m", str(m),
                f"--lambda={csv(values)}", "--out", out]
        return self.add(jid, "closed_form", argv, ("closed-form", n, m, family), out=out,
                        closed=self.tensor_file(f"{jid}.expected", closed))

    def cocycle(self, tag: str, n: int, m: int, family: str, values):
        jid = f"cocycle-{n}x{m}-{family}{tag}"
        argv = ["cocycle", "--n", str(n), "--m", str(m), f"--lambda={csv(values)}"]
        return self.add(jid, "cocycle", argv, ("cocycle", n, m, family))

    def verify(self, name: str, r: Tensor4, m: int, family: str, expect: int = 0, violations=()):
        path = self.tensor_file(name, r)
        return self.add(f"verify-{name}", "verify", ["verify", path], ("verify", r.n, m, family),
                        expect=expect, verdict="pass" if expect == 0 else "fail",
                        tensor=path, violations=list(violations))

    def transform(self, name: str, r: Tensor4, m: int, family: str, g: RatMatrix | None):
        path = self.tensor_file(name, r)
        if g is None:
            jid, extra = f"transform-{name}-dual", ["--transpose-dual"]
        else:
            jid, extra = f"transform-{name}-gl", ["--g", self.matrix_file(f"{name}.g", g)]
        out = f"{jid}.out.json"
        return self.add(jid, "transform", ["transform", path, *extra, "--out", out],
                        ("transform", r.n, m, family), out=out, tensor=path)

    def bracket(self, name: str, r: Tensor4, m: int, family: str, m_size: int = 1,
                lam=None, write: bool = False, expect: int = 0):
        path = self.tensor_file(name, r)
        jid = f"bracket-{name}-m{m_size}" + ("-2m" if lam is not None else "")
        argv = ["bracket", path, "--m-size", str(m_size), "--check-jacobi"]
        if lam is not None:
            argv += ["--compare-closed-2m", f"--lambda={csv(lam)}"]
        out = None
        if write:
            out = f"{jid}.out.json"
            argv += ["--out", out]
        return self.add(jid, "bracket", argv, ("bracket", r.n, m, family), out=out,
                        expect=expect, verdict="pass" if expect == 0 else "fail",
                        tensor=path, m_size=m_size)

    def built_pair(self, tag: str, n: int, m: int, family: str, values):
        """construct at (n, m), then closed-form --compare against its output."""
        lam = make_lambda(n, m, values)
        if family == "block":
            variant, closed = "block", r_closed_block(lam)
        elif m == 1:
            variant, closed = "m1", r_closed_m1(lam)
        else:
            variant, closed = "distinct", r_closed_distinct(lam)
        built = self.construct(tag, n, m, family, values, closed)
        self.closed_form(built, variant, values)

    def coverage(self, commands: set) -> None:
        """Jobs for each listed command that the workload does not otherwise
        run, so that every per-command metric and every traced layer is
        measured, and nonzero, on every workload. Each command gets about
        150 to 250 ms a pass; smaller totals spread more from run to run."""
        rng = self.rng
        if "construct" in commands:  # with closed-form --compare on each
            self.built_pair("-cov", 6, 3, "grid", grid_values(rng, 6))
            self.built_pair("-cov", 6, 2, "block", block_values(rng, 6, 2))
        if "closed_form" in commands:
            for k in range(2):
                self.closed_out(f"-cov{k}", 8, 2, "grid", grid_values(rng, 8))
        if "cocycle" in commands:
            self.cocycle("-cov", 4, 2, "grid", grid_values(rng, 4))
            for k in range(2):
                self.cocycle(f"-cov{k}", 4, 1, "grid", grid_values(rng, 4))
        if "verify" in commands:
            for n, m, family in [(6, 2, "grid"), (8, 4, "grid"), (6, 2, "wide")]:
                values = grid_values(rng, n) if family == "grid" else wide_values(rng, n)
                r = r_closed_distinct(make_lambda(n, m, values))
                self.verify(f"cov-{n}x{m}-{family}", r, m, family)
        if "transform" in commands:
            r4 = r_closed_distinct(make_lambda(4, 2, grid_values(rng, 4)))
            self.transform("cov-t4x2", r4, 2, "grid", unitriangular(rng, 4, [(0, 1), (2, 3)]))
            r63 = r_closed_distinct(make_lambda(6, 3, grid_values(rng, 6)))
            self.transform("cov-t6x3", r63, 3, "grid", unitriangular(rng, 6, [(0, 1)]))
            r62 = r_closed_distinct(make_lambda(6, 2, grid_values(rng, 6)))
            self.transform("cov-t6x2", r62, 2, "grid", None)
        if "bracket" in commands:
            vals = grid_values(rng, 6)
            self.bracket("cov-b6x3", r_closed_distinct(make_lambda(6, 3, vals)), 3, "grid",
                         lam=vals, write=True)
            r62 = r_closed_distinct(make_lambda(6, 2, grid_values(rng, 6)))
            self.bracket("cov-b6x2", r62, 2, "grid")
            two = r_closed_m1(make_lambda(2, 1, grid_values(rng, 2)))
            self.bracket("cov-b2x1", two, 1, "grid", m_size=2, write=True)


def algebra(jobs: JobList) -> None:
    # Gram inverse and cocycle products do the work. (6,2) has one Gram
    # component of size 12 (half its dimension); (6,3) and (8,4) split into
    # components of size <= 4, so a component-wise inverse gains little on
    # one and much on the other. Larger shapes ((8,2): 1.3 s, (10,5): 1.5 s,
    # (12,6): 4 s) are left out so that a run holds about ten passes; (8,2)
    # is still built by closed-form --out.
    rng = jobs.rng
    for n, m in [(6, 2), (6, 3), (8, 4)]:
        jobs.built_pair("", n, m, "grid", grid_values(rng, n))
    for n, m in [(6, 2), (8, 4)]:
        jobs.built_pair("", n, m, "block", block_values(rng, n, m))
    jobs.built_pair("", 6, 2, "wide", wide_values(rng, 6))
    jobs.closed_out("", 8, 2, "grid", grid_values(rng, 8))
    c = Fraction(rng.randint(-9, 9))
    jobs.construct("", 8, 4, "degenerate", [c] * 8, None)
    for n, m in [(4, 2), (6, 3)]:
        jobs.cocycle("", n, m, "grid", grid_values(rng, n))
    jobs.coverage({"verify", "transform", "bracket"})


def check(jobs: JobList) -> None:
    # aybe_residual does the work, over tensors whose nnz (120 to 608) and
    # entry size (grid: low height, wide: about 30 bits) vary; both the pass
    # and the fail report paths run. frobenius is idle in verify and
    # transform, so verify_s and transform_s bypass any Gram optimisation;
    # the coverage jobs at the end still run construct and cocycle.
    rng = jobs.rng
    for n, m, family in [(8, 2, "grid"), (9, 3, "wide"), (10, 5, "grid"), (6, 2, "wide")]:
        values = grid_values(rng, n) if family == "grid" else wide_values(rng, n)
        jobs.verify(f"{n}x{m}-{family}", r_closed_distinct(make_lambda(n, m, values)), m, family)
    r4 = r_closed_distinct(make_lambda(4, 2, grid_values(rng, 4)))
    jobs.verify("gl-4x2-dense", gl_transform(r4, unitriangular(rng, 4)), 2, "grid")
    r63 = r_closed_distinct(make_lambda(6, 3, grid_values(rng, 6)))
    g63 = unitriangular(rng, 6, [(0, 1), (1, 2), (3, 4), (0, 3)])
    jobs.verify("gl-6x3", gl_transform(r63, g63), 3, "grid")
    jobs.verify("6x3-broken-residual", perturb(rng, r63, keep_skew=True), 3, "grid",
                expect=1, violations=["residual_violations"])
    jobs.verify("6x3-broken-skew", perturb(rng, r63, keep_skew=False), 3, "grid",
                expect=1, violations=["skew_violations"])
    jobs.transform("6x3", r63, 3, "grid", unitriangular(rng, 6, [(0, 1), (2, 3), (4, 5)]))
    r84 = r_closed_distinct(make_lambda(8, 4, grid_values(rng, 8)))
    jobs.transform("8x4", r84, 4, "grid", None)
    jobs.coverage({"construct", "closed_form", "cocycle", "bracket"})


def bracket(jobs: JobList) -> None:
    # jacobi_residual is nearly all of each bracket job; tensor only runs
    # the skew check there. The coverage jobs at the end run aybe_residual. (6,3) with --m-size 2 (24 generators, about 4.5 s) is left out
    # to keep a pass within a few seconds.
    rng = jobs.rng
    for n, m in [(8, 2), (6, 3)]:
        jobs.bracket(f"{n}x{m}", r_closed_distinct(make_lambda(n, m, grid_values(rng, n))), m, "grid")
    r4 = r_closed_distinct(make_lambda(4, 2, grid_values(rng, 4)))
    jobs.bracket("4x2", r4, 2, "grid", m_size=2, write=True)
    vals = grid_values(rng, 6)
    r63 = r_closed_distinct(make_lambda(6, 3, vals))
    jobs.bracket("6x3-closed", r63, 3, "grid", lam=vals, write=True)
    jobs.bracket("6x3-non-aybe", perturb(rng, r63, keep_skew=True), 3, "grid",
                 expect=NON_AYBE_BRACKET_EXIT)
    jobs.coverage({"construct", "closed_form", "cocycle", "verify", "transform"})


def small(jobs: JobList) -> None:
    # Hundreds of jobs at n <= 4: per-call fixed costs (argparse, report
    # JSON, tensor codec, file writes, basis set-up) dominate. Brackets are
    # scalar but for two at n=2: n=2 with --m-size 2 takes 75 ms, and n=4
    # with --m-size 2 alone 1.2 s.
    rng = jobs.rng
    for k in range(SMALL_GROUPS):
        t = f"-{k}"
        jobs.built_pair(t, 2, 1, "small", small_values(rng, 2))
        jobs.built_pair(t, 3, 1, "small", small_values(rng, 3))
        jobs.built_pair(t, 4, 2, "small", small_values(rng, 4))
        jobs.built_pair(t, 4, 2, "block", block_values(rng, 4, 2))
        if k % 2 == 0:
            jobs.construct(t, 4, 2, "degenerate", [Fraction(k)] * 4, None)
        jobs.cocycle(t, 3, 1, "small", small_values(rng, 3))
        if k % 2 == 1:
            jobs.cocycle(t, 4, 2, "small", small_values(rng, 4))
        r2 = r_closed_m1(make_lambda(2, 1, small_values(rng, 2)))
        r3 = r_closed_m1(make_lambda(3, 1, small_values(rng, 3)))
        vals4 = small_values(rng, 4)
        r4 = r_closed_distinct(make_lambda(4, 2, vals4))
        jobs.verify(f"2x1{t}", r2, 1, "small")
        jobs.verify(f"3x1{t}", r3, 1, "small")
        jobs.verify(f"4x2{t}", r4, 2, "small")
        jobs.verify(f"3x1-broken{t}", perturb(rng, r3, keep_skew=True), 1, "small",
                    expect=1, violations=["residual_violations"])
        jobs.transform(f"3x1{t}", r3, 1, "small", unitriangular(rng, 3))
        jobs.transform(f"3x1{t}", r3, 1, "small", None)
        jobs.bracket(f"3x1{t}", r3, 1, "small", write=True)
        jobs.bracket(f"4x2{t}", r4, 2, "small", lam=vals4)
        if k % 7 == 0:
            jobs.bracket(f"2x1{t}", r2, 1, "small", m_size=2)


BUILDERS = {"algebra": algebra, "check": check, "bracket": bracket, "small": small}


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's inputs for `seed` into `directory`; return its jobs."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = JobList(directory, random.Random(f"{workload}:{seed}"))
    BUILDERS[workload](jobs)
    return jobs.jobs
