"""One benchmark pass, in a fresh process: run a job list through
`aybe.cli.main`, in order, each job once.

    python3 worker.py SRC < spec.json

SRC is the directory that holds the `aybe` package. `import aybe.cli` is
timed first, before this script loads any module of its own, so that it
costs what a cold CLI call pays. Then the worker reads
{"trace": bool, "jobs": [{"id", "argv"}, ...]} as JSON on stdin and prints
one JSON line with per-job exit codes, wall and CPU times and the
reference time measured around each job (see reference.py), peak RSS
and, when traced, the spans. The working directory is the pass directory
that the argv paths are relative to.
"""

import sys
import time

SRC = sys.argv[1]
sys.path.insert(0, SRC)
_t0 = time.perf_counter()
import aybe.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402


def exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    ready = time.monotonic()
    spec = json.load(sys.stdin)
    src = Path(SRC).resolve()
    if not Path(aybe.cli.__file__).resolve().is_relative_to(src):
        print(f"worker: aybe was imported from {aybe.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    # reference measurements (wall, cpu) between jobs; see reference.py. The
    # first, which also scales the start-up and the import, is a mean of three.
    first_ref = [sum(x) / 3 for x in zip(*(reference.measure() for _ in range(3)))]
    last_ref = first_ref
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    jobs, pending, since_ref = [], [], 0.0
    for i, job in enumerate(spec["jobs"]):
        if tracer:
            tracer.job = job["id"]
        error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = aybe.cli.main(job["argv"])
        except SystemExit as exc:
            code = exit_code(exc)
        except Exception as exc:  # a crash is a failed job, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        jobs.append({"id": job["id"], "code": code, "seconds": seconds,
                     "cpu_s": time.process_time() - cpu_start, "error": error})
        pending.append(jobs[-1])
        since_ref += seconds
        if since_ref >= reference.REF_EVERY_S or i == len(spec["jobs"]) - 1:
            ref = reference.measure()
            for done in pending:  # the mean of the measurements around the job
                done["ref"] = [(a + b) / 2 for a, b in zip(last_ref, ref)]
            last_ref, pending, since_ref = ref, [], 0.0
    if tracer:
        tracer.remove()
    result = {
        "import_s": IMPORT_S,
        "ready": ready,
        "first_ref": first_ref,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
        "spans": tracer.spans if tracer else [],
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
