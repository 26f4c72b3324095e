"""Benchmark of the aybe command-line tool.

    python3 bench/run.py --workload {algebra,check,bracket,small} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from `src/` next to `bench/`.
A workload is a closed loop with one client: a worker process runs the
workload's ordered job list (a pass) through `aybe.cli.main`, each job
once, and a fresh worker runs each pass, so the CLI's per-call set-up is
paid on every pass and no in-process cache survives between passes.
Passes repeat until `--seconds` is used up (at least MIN_PASSES).

`--trace 0` prints the end-to-end metrics: medians over passes of per-pass
sums, with times scaled to a fixed machine speed (see reference.py). `--trace 1` alternates untraced and traced passes and prints the
per-layer metrics from the traced ones (see tracing.py), the deterministic
counters and the tracing overhead. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full report, with
per-job records, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 0  # the seed whose output digests are recorded in DIGESTS
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

COMMANDS = ("construct", "cocycle", "closed_form", "verify", "transform", "bracket")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "import_ms": "ms",
    **{f"{cmd}_s": "s" for cmd in COMMANDS},
}

# per-layer metric -> (span name, field): field 1 is inclusive time, 2 self time
LAYER_TIMES = {
    "cli.self_s": ("cli", 2),
    "exactlin.mat_inverse_s": ("exactlin.mat_inverse", 1),
    "exactlin.mat_mul_s": ("exactlin.mat_mul", 1),
    "frobenius.build_basis_s": ("frobenius.build_basis", 1),
    "frobenius.r_from_algebra.self_s": ("frobenius.r_from_algebra", 2),
    "frobenius.cocycle_residual.self_s": ("frobenius.cocycle_residual", 2),
    "closedform.r_closed_s": ("closedform.r_closed", 1),
    "tensor.compare_tensors_s": ("tensor.compare_tensors", 1),
    "tensor.aybe_residual_s": ("tensor.aybe_residual", 1),
    "tensor.check_skew_s": ("tensor.check_skew", 1),
    "tensor.gl_transform_s": ("tensor.gl_transform", 1),
    "tensor.transpose_dual_s": ("tensor.transpose_dual", 1),
    "tensor.loads_s": ("tensor.loads", 1),
    "tensor.dumps_s": ("tensor.dumps", 1),
    "poisson.jacobi_residual_s": ("poisson.jacobi_residual", 1),
    "poisson.scalar_bracket_from_r_s": ("poisson.scalar_bracket_from_r", 1),
    "poisson.matrix_bracket_from_r_s": ("poisson.matrix_bracket_from_r", 1),
    "poisson.bracket_to_json_s": ("poisson.bracket_to_json", 1),
    "poisson.compare_to_closed_2m_s": ("poisson.compare_to_closed_2m", 1),
}
LAYER_CALLS = {
    "exactlin.mat_inverse.calls": "exactlin.mat_inverse",
    "exactlin.mat_mul.calls": "exactlin.mat_mul",
}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def summary(samples: list, unit: str) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    tail = None
    for p in (99.9, 99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": quantiles(samples, n=1000)[int(p * 10) - 1]}
            break
    return {"unit": unit, "median": median(samples), "tail": tail, "samples": len(samples),
            "values": samples}


def setup_inputs(workload: str, seed: int, run_dir: Path) -> tuple[list, list]:
    """Generate the inputs SETUPS times; all copies must be identical.

    Returns the job list and the generation times, each as measured and
    scaled by the reference measured before and after it. The first copy
    is kept as run_dir/inputs."""
    from workloads import generate

    times, listings, jobs = [], [], None
    for k in range(SETUPS):
        ref_before = reference.measure()[0]
        start = time.perf_counter()
        jobs_k = generate(workload, seed, run_dir / f"gen{k}")
        took = time.perf_counter() - start
        times.append((took, took * 2 * reference.REF_S / (ref_before + reference.measure()[0])))
        listings.append({p.name: p.read_bytes() for p in sorted((run_dir / f"gen{k}").iterdir())})
        if jobs is not None and jobs_k != jobs:
            raise BenchError("the generator gave different jobs for the same seed")
        jobs = jobs_k
    if any(listing != listings[0] for listing in listings):
        raise BenchError("the generator wrote different inputs for the same seed")
    (run_dir / "gen0").rename(run_dir / "inputs")
    for k in range(1, SETUPS):
        shutil.rmtree(run_dir / f"gen{k}")
    return jobs, times


def run_pass(run_dir: Path, k: int, jobs: list, traced: bool) -> dict:
    pass_dir = run_dir / f"pass{k}"
    pass_dir.mkdir()
    spec = {"trace": traced,
            "jobs": [{"id": job["id"], "argv": job["argv"]} for job in jobs]}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)], input=json.dumps(spec),
            capture_output=True, text=True, cwd=pass_dir, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {k} did not finish within {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {k} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    spawn_to_ready = result["ready"] - spawned
    result.update(dir=pass_dir, traced=traced, spawn_to_ready=spawn_to_ready,
                  spawn_to_ready_scaled=spawn_to_ready * reference.REF_S / result["first_ref"][0])
    return result


def check_pass(jobs: list, result: dict, first_digests: dict, recorded: dict | None) -> list:
    """Gate one pass. `first_digests` maps job id to the digests of the first
    pass and is filled by it; every later pass must match it."""
    from checks import check_job, job_digests

    failures = []
    for job, res in zip(jobs, result["jobs"]):
        why = check_job(job, res, result["dir"], recorded)
        if why is None:
            digests = job_digests(job, result["dir"])
            if first_digests.setdefault(job["id"], digests) != digests:
                why = "output differs from the first pass"
        if why:
            failures.append({"job": job["id"], "why": why})
    return failures


def job_scales(result: dict) -> dict:
    """Job id -> REF_S / the reference time measured around the job."""
    return {res["id"]: reference.REF_S / res["ref"][0] for res in result["jobs"]}


def pass_metrics(jobs: list, result: dict) -> dict:
    """End-to-end values of one pass; times are scaled (see reference.py)."""
    scales = job_scales(result)
    scaled = [res["seconds"] * scales[res["id"]] for res in result["jobs"]]
    values = {
        "pass_s": sum(scaled),
        "cpu_s": sum(res["cpu_s"] * reference.REF_S / res["ref"][1] for res in result["jobs"]),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "import_ms": result["import_s"] * 1000 * reference.REF_S / result["first_ref"][0],
    }
    for cmd in COMMANDS:
        values[f"{cmd}_s"] = sum(t for job, t in zip(jobs, scaled) if job["cmd"] == cmd)
    return values


def layer_metrics(jobs: list, result: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and the per-command breakdown;
    times are scaled like the end-to-end ones."""
    from tracing import SPAN_NAMES, layer_times

    cmd_of = {job["id"]: job["cmd"] for job in jobs}
    by_cmd = layer_times([tuple(s) for s in result["spans"]], cmd_of, job_scales(result))
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for (cmd, name), acc in by_cmd.items():
        for i in range(3):
            totals[name][i] += acc[i]
    values = {metric: totals[name][field] for metric, (name, field) in LAYER_TIMES.items()}
    values.update({metric: totals[name][0] for metric, name in LAYER_CALLS.items()})
    return values, by_cmd


def dominant_layers(by_cmd_runs: list) -> dict:
    """For each command, the span with the largest median self time and its
    share of the command's median time in the traced passes."""
    out = {}
    cmds = {cmd for run in by_cmd_runs for cmd, _ in run}
    for cmd in sorted(cmds):
        names = {name for run in by_cmd_runs for c, name in run if c == cmd}
        selfs = {name: median([run.get((cmd, name), [0, 0, 0])[2] for run in by_cmd_runs])
                 for name in names}
        total = median([run.get((cmd, "cli"), [0, 0, 0])[1] for run in by_cmd_runs])
        shares = sorted(((s / total if total else 0.0, name) for name, s in selfs.items()),
                        reverse=True)
        out[cmd] = [{"span": name, "self_share": round(share, 4)} for share, name in shares[:4]]
    return out


def job_records(jobs: list, passes: list) -> list:
    records = []
    for i, job in enumerate(jobs):
        times = [p["jobs"][i]["seconds"] for p in passes]
        records.append({
            "id": job["id"], **job["key"], "expect": job["expect"],
            "exit": sorted({p["jobs"][i]["code"] for p in passes}, key=str),
            "median_s": median(times), "min_s": min(times), "max_s": max(times),
            "samples": len(times),
        })
    return records


def measure(args) -> dict:
    from checks import counters, oracle_mismatches

    recorded = None
    if args.seed == DEFAULT_SEED and not args.record_digests and DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        jobs, gen_times = setup_inputs(args.workload, args.seed, run_dir)
        passes, failures, first_digests = [], [], {}
        need = MIN_PASSES + args.trace
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            result = run_pass(run_dir, len(passes), jobs, traced)
            failures += [dict(f, pass_index=len(passes))
                         for f in check_pass(jobs, result, first_digests, recorded)]
            passes.append(result)
            elapsed = time.monotonic() - start
            if len(passes) >= need and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            if len(passes) > 1:
                shutil.rmtree(result["dir"])
        first = passes[0]["dir"]
        oracle_checks, oracle_bad = oracle_mismatches(jobs, first)
        counts = counters(jobs, first, SRC)
        if args.record_digests:
            if failures:
                raise BenchError(f"not recording digests: {failures[0]}")
            record_digests(args.workload, first_digests)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples = {name: [] for name in END_TO_END}
    for p in plain:
        for name, value in pass_metrics(jobs, p).items():
            samples[name].append(value)
    samples["setup_s"] = [g + p["spawn_to_ready_scaled"] for (_, g), p in zip(gen_times, passes)]
    unscaled = {
        "setup_s": median([g + p["spawn_to_ready"] for (g, _), p in zip(gen_times, passes)]),
        "pass_s": median([sum(res["seconds"] for res in p["jobs"]) for p in plain]),
        "cpu_s": median([sum(res["cpu_s"] for res in p["jobs"]) for p in plain]),
        "reference_s": median([res["ref"][0] for p in plain for res in p["jobs"]]),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(plain), "traced_passes": len(traced),
        "end_to_end": {name: summary(samples[name], unit) for name, unit in END_TO_END.items()},
        "unscaled_medians": unscaled,
        "counters": counts,
        "oracle": {"checks": oracle_checks, "mismatches": oracle_bad},
        "failures": failures[:50],
        "jobs": job_records(jobs, plain),
    }
    attempted = len(jobs) * len(passes) + oracle_checks
    failed = len(failures) + len(oracle_bad)
    if args.trace:
        per_pass = [layer_metrics(jobs, p) for p in traced]
        layers = {metric: median([values[metric] for values, _ in per_pass])
                  for metric in [*LAYER_TIMES, *LAYER_CALLS]}
        traced_pass_s = median([pass_metrics(jobs, p)["pass_s"] for p in traced])
        overhead = traced_pass_s / report["end_to_end"]["pass_s"]["median"]
        layers.update(counts)
        layers["trace.overhead"] = overhead
        layers["fail_ratio"] = failed / attempted
        report["per_layer"] = layers
        report["dominant_layers"] = dominant_layers([by_cmd for _, by_cmd in per_pass])
        io = layers["cli.self_s"] + layers["tensor.loads_s"] + layers["tensor.dumps_s"]
        report["io_share_of_pass"] = io / traced_pass_s
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans_path.open("w") as fh:
            for k, p in enumerate(traced):
                for name, s, e, parent, job in p["spans"]:
                    fh.write(json.dumps({"pass": k, "name": name, "start": s, "end": e,
                                         "parent": parent, "job": job}) + "\n")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report, "report_path": report_path}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "fail_ratio"):
        return "ratio"
    return "count"


def record_digests(workload: str, digests: dict) -> None:
    """Store the first pass's digests as the expected ones for DEFAULT_SEED."""
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data[workload] = digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("algebra", "check", "bracket", "small"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests as the expected ones "
                             f"(use with --seed {DEFAULT_SEED} on a trusted commit)")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    if not (SRC / "aybe" / "cli.py").is_file():
        print(f"bench: no aybe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        out = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report = out["report"]
    for name, s in report["end_to_end"].items():
        print(f"{name:16} median {s['median']:.6g} {s['unit']} over {s['samples']} samples")
    for name, value in report.get("per_layer", {}).items():
        print(f"{name:40} {value:.6g}")
    for cmd, top in report.get("dominant_layers", {}).items():
        print(f"{cmd:12} " + ", ".join(f"{t['span']} {t['self_share']:.0%}" for t in top))
    for f in report["failures"][:10]:
        print(f"FAILED pass {f['pass_index']} {f['job']}: {f['why']}")
    print(f"full report: {out['report_path'].relative_to(ROOT)}")
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
