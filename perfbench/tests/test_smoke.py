"""One-job smoke runs of each workload, untraced and traced."""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# a cheap job of each workload
SMOKE = {"ohmic_scan": "tld", "nonohmic_scan": "tld", "oracle": "scan128"}


def test_rounds_are_seeded():
    a, b = workloads.make_round("ohmic_scan", 3, 0), workloads.make_round("ohmic_scan", 3, 0)
    c = workloads.make_round("ohmic_scan", 4, 0)
    assert [j.params for j in a] == [j.params for j in b]
    assert [j.kind for j in a] == [j.kind for j in c]
    assert [j.params for j in a] != [j.params for j in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_job_smoke_run(workload, tmp_path):
    job = next(j for j in workloads.make_round(workload, 7, 0) if SMOKE[workload] in j.id)
    refd = checks.reference_for(job)
    env = run.job_env()
    _, (res,) = run.run_round([job], tmp_path, env, traced=False)
    outputs, broken = checks.check(job, res, refd)
    assert broken is None and outputs
    assert all(o.ok or o.detail for o in outputs)
    _, (traced,) = run.run_round([job], tmp_path, env, traced=True)
    assert traced["code"] == res["code"] and traced["spans"]
    metrics = run.layer_metrics([traced], 1, [(traced["wall"], res["wall"])])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert metrics["import.decoq_s"] > 0.0


def test_refuses_to_run_without_decoq_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ohmic_scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
