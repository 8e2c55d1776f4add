"""Run one benchmark job in this fresh interpreter and report on a status pipe.

Usage: job.py STATUS_FD TRACE cli ARGV...
       job.py STATUS_FD TRACE pipeline {incidence|layers} P EDGES
       job.py STATUS_FD TRACE probe ...

EDGES is the 1-based inline edge list, e.g. ``1-2,2-3``.  The job's own
output goes to stdout.  The status, written once at the end as JSON, holds
the monotonic time at which the package was imported and ready, the exit
code, the peak resident set of this process since exec, and with TRACE
set to 1 the spans and work counts of the traced layers.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import graphicahedron
from graphicahedron import cli

READY = time.monotonic()

# Automorphism counts in the layer table stop at this many flags (cycle:5 has 14 400).
LAYERS_AUT_MAX_FLAGS = 20000


def _graph(p: str, edges: str):
    pairs = [tuple(int(x) - 1 for x in chunk.split("-")) for chunk in edges.split(",")]
    return graphicahedron.make_graph(int(p), pairs)


def _build_cover_diamond(p: str, edges: str):
    """Build, all covers and the diamond check: the start of both pipelines."""
    hedron = graphicahedron.build(_graph(p, edges))
    up, _ = hedron.covers()
    diamond = graphicahedron.verify_diamond(hedron)
    return hedron, {
        "f_vector": list(hedron.f_vector()),
        "cover_pairs": sum(len(above) for above in up.values()),
        "diamond": {"passed": diamond.passed, "checked": diamond.checked},
    }


def incidence(p: str, edges: str) -> dict:
    """Build, all covers, the diamond check and every vertex figure."""
    hedron, report = _build_cover_diamond(p, edges)
    report["simple"] = all(graphicahedron.vertex_figure_is_simplex(hedron, v) for v in hedron.faces(0))
    return report


def layers(p: str, edges: str) -> dict:
    """One call per layer of the layer table; a layer over its capacity reports None."""
    hedron, report = _build_cover_diamond(p, edges)
    report.update(strong_flag_connected=None, aut_order=None)
    try:
        report["strong_flag_connected"] = graphicahedron.verify_strong_flag_connectedness(hedron).passed
    except graphicahedron.CapacityError:
        pass
    try:
        report["aut_order"] = graphicahedron.full_aut_order_via_flags(hedron, max_flags=LAYERS_AUT_MAX_FLAGS)
    except graphicahedron.CapacityError:
        pass
    report["facet_census"] = graphicahedron.facet_census(hedron).as_dict()
    return report


def main(argv: list[str]) -> int:
    status_fd, traced, kind, *job_args = argv
    tracer = None
    if traced == "1":
        import spans

        tracer = spans.Tracer().install()
    try:
        if kind == "cli":
            code = cli.main(job_args)
        elif kind == "pipeline":
            name, *pipeline_args = job_args
            report = {"incidence": incidence, "layers": layers}[name](*pipeline_args)
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
            code = 0
        else:  # "probe": start up and stop, to sample set-up time
            code = 0
    except Exception:  # report any crash of the job as a failed job
        traceback.print_exc()
        code = 70
    sys.stdout.flush()

    status = {"ready": READY, "code": code, "peak_kib": _peak_kib()}
    if tracer is not None:
        status.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    with os.fdopen(int(status_fd), "w") as handle:
        json.dump(status, handle)
    return code


def _peak_kib() -> int | None:
    """VmHWM: the peak of this process alone.  ``ru_maxrss`` would also count
    the parent's pages shared before exec."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
