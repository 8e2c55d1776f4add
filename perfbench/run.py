"""Benchmark of the graphicahedron toolkit: CLI and library workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table [GRAPH ...]

Run it from the root of a checkout; it needs only Python 3.10+ and the
program's own dependencies.  Each job of a workload runs in a fresh
interpreter (``job.py``): either ``graphicahedron.cli.main(argv)`` or a short
library pipeline.  Jobs run one after another from this process, a closed
loop with one client.  A run repeats the workload's job list (a *pass*)
while another pass should end within ``--seconds``, with at least one pass,
and reports medians over the passes:

    wall_s         one pass, from the first spawn to the last exit
    setup_s        sum over the jobs of the median spawn-to-ready time:
                   interpreter start plus ``import graphicahedron``, so work
                   moved into import shows; jobs with fewer than five samples
                   from the passes are topped up by probes that only start up
    slowest_job_s  the largest per-job median wall time
    peak_rss_mb    the largest peak resident set of any job, in MiB

Every job's exit code and output are checked against invariants computed by
``checks.py``; on seed 0 the report's sha256 must also match ``digests.json``.
``failed / attempted`` counts jobs and is the error rate.  Seed 0 passes the
presets; any other seed relabels each graph (``workloads.py``).

Workloads, and the layers whose self time should move each one:

    verify-p5     verify on fork, path:4, star:4, cycle:5.  About 60 % strong
                  flag-connectedness with flag_tables; covers, diamond and
                  vertex figures about 20 %.  cycle:5 is the slowest job.
    analyze-p5    analyze on paw, fork, cycle:4, path:4, star:4.  About 70 %
                  full_aut_order_via_flags (run twice per job); the rank-3
                  classifier and posets_isomorphic on every facet type.  The
                  numpy candidate arrays set peak_rss_mb.
    build-p8      build path:7, skeleton:1 of star:7 as JSON, the Cayley graph
                  of cycle:8 as DOT: the writer side (face enumeration,
                  Skeleton.vertex_edges, cayley.*, cli.main rendering).  No
                  incidence, flag or symmetry work, so read-side speed-ups
                  should leave it flat.
    incidence-p6  a library pipeline on path:5 (4 683 faces): build, covers,
                  verify_diamond, vertex_figure_is_simplex on all 720
                  vertices.  Nearly all quadratic-in-faces incidence work,
                  at a size the CLI's flag cap does not reach.

Import cost moves setup_s on every workload.  BENCHMARK.json lists the first
three.  incidence-p6 runs the same way when named, but is left out there:
its 13 s pass leaves too few passes per run to be steady on a shared 2-core
machine, and verify-p5 measures the same layers.

With ``--trace 1`` the run cycles through an untraced pass, a traced pass on
the seed and a traced pass on seed + 1, and reports per-layer self time
(median over traced passes) and call counts, exact work counts, and the
tracing overhead (traced minus untraced median wall_s).  Work counts must be
identical in every traced pass, on both seeds; if they are not, the run
reports ``correct: false``.  All spans are kept in memory and written once,
at the end, to ``perfbench/out/``.

``--table`` runs one traced layer pipeline per graph (default: paw, fork,
cycle:5, path:5) and prints seconds per layer, one row per graph.
``--table paw`` together with ``--workload smoke --seconds 1`` is the quick
smoke mode the tests in this directory use.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Job, jobs, layer_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Jobs still running this long after the run began are killed, so a run ends in time.
HARD_LIMIT_S = 170.0
TABLE_LIMIT_S = 900.0
TABLE_GRAPHS = ("paw", "fork", "cycle:5", "path:5")
# set-up samples per job and run; probes make up what the passes leave short
SETUP_SAMPLES = 5


@dataclass
class JobRun:
    job: Job
    start: float
    end: float
    setup: float
    peak_mib: float
    code: int | None
    stdout: bytes | None
    stderr: bytes
    status: dict
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class PassRun:
    traced: bool
    seed: int
    runs: list[JobRun]

    @property
    def wall(self) -> float:
        return self.runs[-1].end - self.runs[0].start


def _drain(proc: subprocess.Popen, status_pipe, deadline: float) -> tuple[bytes, ...] | None:
    """Read stdout, stderr and the status pipe to their ends; None on timeout."""
    chunks: dict = {proc.stdout: [], proc.stderr: [], status_pipe: []}
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                return None
            for key, _ in selector.select(left):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    return tuple(b"".join(parts) for parts in chunks.values())


def run_job(job: Job, traced: bool, deadline: float, env: dict) -> JobRun:
    read_fd, write_fd = os.pipe()
    argv = [sys.executable, str(HERE / "job.py"), str(write_fd), str(int(traced)), job.kind, *job.argv()]
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(write_fd,), env=env, cwd=ROOT
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as status_pipe:
        drained = _drain(proc, status_pipe, deadline)
    _, wait_status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    proc.stdout.close()
    proc.stderr.close()

    if drained is None:
        return JobRun(job, start, end, end - start, 0.0, None, None, b"", {}, ["timed out"])
    stdout, stderr, raw_status = drained
    try:
        status = json.loads(raw_status) if raw_status else {}
    except ValueError:
        status = {}
    # ru_maxrss counts pages shared with this process before exec, so prefer
    # the child's own VmHWM
    peak_kib = status.get("peak_kib") or usage.ru_maxrss
    setup = status["ready"] - start if "ready" in status else end - start
    run = JobRun(job, start, end, setup, peak_kib / 1024, proc.returncode, stdout, stderr, status)
    if not status:
        run.failures.append("no status from the job")
    elif status["code"] != proc.returncode:
        run.failures.append(f"exit code {proc.returncode} but the job reported {status['code']}")
    return run


def run_pass(workload: str, seed: int, traced: bool, deadline: float, env: dict) -> PassRun:
    """Run every job once; outputs are checked after the pass so checking adds no gaps."""
    done = PassRun(traced, seed, [])
    for job in jobs(workload, seed):
        done.runs.append(run_job(job, traced, deadline, env))
        if done.runs[-1].code is None:
            break
    for run in done.runs:
        if run.code is not None:
            run.failures += checks.check_output(run.job, seed, run.code, run.stdout)
        run.stdout = None
        for message in run.failures:
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {run.job.label} (seed {seed}): {message} {' '.join(tail)}", file=sys.stderr)
    return done


def prepare() -> dict:
    """Compile the program once so no job pays for bytecode; return the jobs' environment."""
    if not (SRC / "graphicahedron" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'graphicahedron'}")
    compileall.compile_dir(SRC, quiet=1)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def layer_metrics(traced: list[PassRun]) -> tuple[dict, list[str]]:
    """Per-layer self time (median over passes) and calls, plus work counts.

    Calls and counts must agree between all traced passes."""
    per_pass_self: list[dict] = []
    exact: list[dict] = []
    for done in traced:
        self_s: dict[str, float] = {}
        counted: dict[str, int] = {}
        for run in done.runs:
            job_self, job_calls = spans.layer_totals(run.status.get("spans", []))
            for name, seconds in job_self.items():
                self_s[name] = self_s.get(name, 0.0) + seconds
            for name, n in [*job_calls.items(), *run.status.get("counts", {}).items()]:
                counted[name] = counted.get(name, 0) + n
        per_pass_self.append(self_s)
        exact.append(counted)

    problems = []
    for done, counted in zip(traced[1:], exact[1:]):
        diff = sorted(k for k in exact[0].keys() | counted.keys() if exact[0].get(k) != counted.get(k))
        if diff:
            problems.append(
                f"work counts differ between traced passes (seed {traced[0].seed} vs {done.seed}): "
                + ", ".join(f"{k} {exact[0].get(k)} vs {counted.get(k)}" for k in diff)
            )
    metrics = {}
    for name in spans.layer_names():
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(s.get(name, 0.0) for s in per_pass_self), "unit": "s"
        }
        metrics[f"{name}.calls"] = {"value": exact[0].get(name, 0), "unit": "count"}
    for name in spans.WORK_COUNTS:
        metrics[name] = {"value": exact[0].get(name, 0), "unit": "count"}
    return metrics, problems


def write_spans(workload: str, seed: int, traced: list[PassRun]) -> Path:
    """All spans of the run, once: [name, start, end, parent index, job id]."""
    records = []
    for pass_index, done in enumerate(traced):
        for job_index, run in enumerate(done.runs):
            base = len(records)
            job_id = f"pass{pass_index}/job{job_index}/seed{done.seed}/{run.job.label}"
            for name, start, end, parent in run.status.get("spans", []):
                records.append([name, start, end, parent + base if parent >= 0 else -1, job_id])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": records}))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = prepare()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plan = [(False, seed), (True, seed), (True, seed + 1)] if trace else [(False, seed)]
    passes: list[PassRun] = []
    last = 0.0
    # start another pass only if it should end within --seconds
    while len(passes) < len(plan) or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        traced, pass_seed = plan[len(passes) % len(plan)]
        passes.append(run_pass(workload, pass_seed, traced, deadline, env))
        if any(run.code is None for run in passes[-1].runs):
            break
        last = time.monotonic() - began

    runs = [run for done in passes for run in done.runs]
    failed = sum(bool(run.failures) for run in runs)
    plain = [done for done in passes if not done.traced and len(done.runs) == len(WORKLOADS[workload])]
    problems: list[str] = []
    if trace:
        traced = [done for done in passes if done.traced]
        if not traced:
            raise SystemExit("error: no traced pass ran")
        metrics, problems = layer_metrics(traced)
        overhead = statistics.median(d.wall for d in traced) - statistics.median(d.wall for d in plain or passes)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        missing = sorted({m for run in runs for m in run.status.get("missing", [])})
        if missing:
            print(f"note: not found in the program, reported as 0: {', '.join(missing)}", file=sys.stderr)
        print(f"spans written to {write_spans(workload, seed, traced)}", file=sys.stderr)
    else:
        plain = plain or passes
        walls: dict[str, list[float]] = {}
        setups: dict[str, list[float]] = {}
        for done in plain:
            for run in done.runs:
                walls.setdefault(run.job.label, []).append(run.wall)
                setups.setdefault(run.job.label, []).append(run.setup)
        # top up each job's set-up samples with probes that only start up
        for job in jobs(workload, seed):
            for _ in range(SETUP_SAMPLES - len(setups.get(job.label, ()))):
                probe = run_job(dataclasses.replace(job, kind="probe"), False, deadline, env)
                if probe.failures or probe.code != 0:
                    problems.append(f"set-up probe of {job.label}: exit code {probe.code} {probe.failures}")
                setups.setdefault(job.label, []).append(probe.setup)
        metrics = {
            "wall_s": {"value": statistics.median(d.wall for d in plain), "unit": "s"},
            "setup_s": {"value": sum(statistics.median(s) for s in setups.values()), "unit": "s"},
            "slowest_job_s": {"value": max(statistics.median(w) for w in walls.values()), "unit": "s"},
            "peak_rss_mb": {"value": max(r.peak_mib for d in plain for r in d.runs), "unit": "MiB"},
        }
        for label, samples in walls.items():
            print(f"{label}: median {statistics.median(samples):.3f} s over {len(samples)}", file=sys.stderr)
    for message in problems:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{workload}: {len(passes)} passes in {time.monotonic() - start:.1f} s", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def table(graphs: list[str]) -> bool:
    """Print seconds per layer, one row per graph, from traced layer pipelines."""
    env = prepare()
    deadline = time.monotonic() + TABLE_LIMIT_S
    columns = (
        ("covers", "polytope.Graphicahedron.covers"),
        ("diamond", "polytope.verify_diamond"),
        ("strong flag-conn", "polytope.verify_strong_flag_connectedness"),
        ("aut order (flags)", "symmetry.full_aut_order_via_flags"),
        ("census", "classify.facet_census"),
    )
    print("| graph | faces | flags | " + " | ".join(title for title, _ in columns) + " |")
    print("|---|---:|---:|" + "---:|" * len(columns))
    ok = True
    for graph in graphs:
        job = layer_job(graph)
        run = run_job(job, True, deadline, env)
        if run.code is not None:
            run.failures += checks.check_output(job, DEFAULT_SEED, run.code, run.stdout)
        if run.failures:
            print(f"FAILED {graph}: {'; '.join(run.failures)}", file=sys.stderr)
            ok = False
            continue
        report = json.loads(run.stdout)
        top = {}
        for name, start, end, parent in run.status["spans"]:
            if parent < 0:
                top[name] = top.get(name, 0.0) + end - start
        skipped = {"polytope.verify_strong_flag_connectedness": report["strong_flag_connected"] is None,
                   "symmetry.full_aut_order_via_flags": report["aut_order"] is None}
        cells = ["—" if skipped.get(name) else f"{top.get(name, 0.0):.3f}" for _, name in columns]
        flags = checks.flag_total(job.p, len(job.edges))
        print(f"| {graph} | {sum(report['f_vector'])} | {flags} | " + " | ".join(cells) + " |", flush=True)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", nargs="*", metavar="GRAPH", help="per-graph layer table")
    args = parser.parse_args(argv)
    if args.table is not None:
        return 0 if table(args.table or list(TABLE_GRAPHS)) else 1
    if args.workload is None:
        parser.error("--workload or --table is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
