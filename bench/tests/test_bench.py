"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json

import aybe
import aybe.cli
import aybe.frobenius
import aybe.poisson
import aybe.tensor
import run
from checks import check_job
from tracing import FUNCTIONS, Tracer
from workloads import generate


def listing(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in ("algebra", "check", "bracket", "small"):
        jobs_a = generate(workload, 7, tmp_path / f"{workload}-a")
        jobs_b = generate(workload, 7, tmp_path / f"{workload}-b")
        jobs_c = generate(workload, 8, tmp_path / f"{workload}-c")
        assert jobs_a == jobs_b
        assert listing(tmp_path / f"{workload}-a") == listing(tmp_path / f"{workload}-b")
        assert listing(tmp_path / f"{workload}-a") != listing(tmp_path / f"{workload}-c")
        assert len({job["id"] for job in jobs_a}) == len(jobs_a)
        lambdas = [arg for job in jobs_a for arg in job["argv"] if arg.startswith("--lambda")]
        assert all(arg.startswith("--lambda=") for arg in lambdas)


def test_tracer_patches_every_importing_namespace_and_restores():
    check_skew = aybe.tensor.check_skew
    mat_inverse = aybe.frobenius.mat_inverse
    loads = aybe.tensor.Tensor4.__dict__["loads"]
    dumps = aybe.tensor.Tensor4.__dict__["dumps"]
    before = {(mod, name): getattr(__import__(mod, fromlist=[name]), name)
              for mod, name, _ in FUNCTIONS}

    tracer = Tracer()
    tracer.install()
    try:
        for ns in (aybe, aybe.cli, aybe.tensor, aybe.poisson):
            assert ns.check_skew is not check_skew
            assert ns.check_skew is aybe.tensor.check_skew
        assert aybe.tensor.mat_inverse is not mat_inverse
        assert aybe.frobenius.mat_inverse is aybe.tensor.mat_inverse
        tracer.job = "j"
        r = aybe.tensor.Tensor4.loads(aybe.tensor.Tensor4(2, {(0, 0, 0, 1): -1,
                                                             (0, 0, 1, 0): 1}).dumps())
        aybe.tensor.aybe_report(r)
    finally:
        tracer.remove()

    names = [span[0] for span in tracer.spans]
    assert names == ["tensor.dumps", "tensor.loads", "tensor.check_skew", "tensor.aybe_residual"]
    assert all(span[3] == -1 and span[4] == "j" for span in tracer.spans)
    assert aybe.tensor.check_skew is check_skew
    assert aybe.cli.check_skew is check_skew and aybe.poisson.check_skew is check_skew
    assert aybe.frobenius.mat_inverse is mat_inverse and aybe.tensor.mat_inverse is mat_inverse
    assert aybe.tensor.Tensor4.__dict__["loads"] is loads
    assert aybe.tensor.Tensor4.__dict__["dumps"] is dumps
    for (mod, name), original in before.items():
        assert getattr(__import__(mod, fromlist=[name]), name) is original


def test_corrupted_output_counts_as_failure(tmp_path):
    jobs = generate("small", 0, tmp_path / "inputs")[:2]  # construct, then closed-form --compare
    result = run.run_pass(tmp_path, 0, jobs, traced=False)
    assert run.check_pass(jobs, result, {}, None) == []

    built = result["dir"] / jobs[0]["out"]
    tensor = json.loads(built.read_text())
    tensor["entries"][0]["value"] = "12345"
    built.write_text(json.dumps(tensor, indent=2) + "\n")
    assert "closed form" in check_job(jobs[0], result["jobs"][0], result["dir"], None)

    report = result["dir"] / f"{jobs[1]['id']}.report.json"
    report.write_text(report.read_text().replace('"pass"', '"fail"'))
    assert "verdict" in check_job(jobs[1], result["jobs"][1], result["dir"], None)

    wrong_exit = dict(result["jobs"][1], code=1)
    assert "exit 1" in check_job(jobs[1], wrong_exit, result["dir"], None)
