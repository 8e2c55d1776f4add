"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=120
    )


def test_closed_forms_reproduce_known_counts():
    assert checks.f_vector(*workloads.preset("paw")) == (24, 48, 26, 7, 1)
    f = checks.f_vector(*workloads.preset("path:5"))
    assert f == (720, 1800, 1560, 540, 62, 1)
    assert checks.cover_pairs(f) == 16622
    assert checks.diamond_checked(f) == 25020
    assert checks.graph_aut_order(*workloads.preset("fork")) == 2
    assert checks.is_star_or_triangle(*workloads.preset("star:4"))
    assert not checks.is_star_or_triangle(*workloads.preset("paw"))


def test_seeds_relabel_deterministically_and_keep_the_work():
    first = workloads.jobs("verify-p5", 4)
    assert first == workloads.jobs("verify-p5", 4)
    assert [j.edges for j in first] != [j.edges for j in workloads.jobs("verify-p5", 5)]
    for job in first:
        assert "--edges" in job.argv()
        assert checks.f_vector(job.p, job.edges) == checks.f_vector(*workloads.preset(job.graph))
    assert all("--preset" in j.argv() for j in workloads.jobs("verify-p5", workloads.DEFAULT_SEED))


def test_wrong_output_is_a_named_failure():
    job = workloads.jobs("smoke", 1)[0]
    assert job.command == "build"
    report = {
        "graph": {"p": 4, "q": 4, "edges": [[i + 1, j + 1] for i, j in job.canonical_edges()]},
        "rank": 4,
        "improper_ranks": [-1, 4],
        "f_vector": [24, 48, 26, 7, 2],
        "flag_count": 576,
    }
    failures = checks.check_output(job, 1, 0, json.dumps(report).encode())
    assert len(failures) == 1 and failures[0].startswith("f_vector")
    assert checks.check_output(job, 1, 3, b"") == ["exit code 3"]


def test_self_time_subtracts_direct_children():
    trace = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    self_s, calls = spans.layer_totals(trace)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_differing_work_counts_are_reported():
    job = workloads.jobs("smoke", 0)[0]

    def traced_pass(seed: int, same_coset: int) -> run.PassRun:
        status = {"spans": [["cli.main", 0.0, 1.0, -1]], "counts": {"perms.same_coset.calls": same_coset}}
        job_run = run.JobRun(job, 0.0, 1.0, 0.1, 30.0, 0, None, b"", status)
        return run.PassRun(True, seed, [job_run])

    metrics, problems = run.layer_metrics([traced_pass(3, 10), traced_pass(4, 10)])
    assert problems == [] and metrics["perms.same_coset.calls"]["value"] == 10
    _, problems = run.layer_metrics([traced_pass(3, 10), traced_pass(4, 11)])
    assert len(problems) == 1 and "perms.same_coset.calls 10 vs 11" in problems[0]


@pytest.mark.parametrize("trace, seed", [("0", "0"), ("1", "3")])
def test_smoke_run_reports_every_metric(trace, seed):
    out = bench("--workload", "smoke", "--seed", seed, "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    group = "end_to_end" if trace == "0" else "per_layer"
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT[group]}
    if trace == "1":
        assert result["metrics"]["symmetry.full_aut_order_via_flags.calls"]["value"] == 2
        assert result["metrics"]["polytope.faces"]["value"] > 0


def test_layer_table_on_the_paw():
    out = bench("--table", "paw")
    assert out.returncode == 0, out.stderr
    assert "| paw | 106 | 576 |" in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
