"""The benchmark's fixed job lists and their per-seed relabelling.

A job is one fresh interpreter running either ``graphicahedron.cli.main``
on an argument list or a short library pipeline.  Seed 0 passes each graph
as its preset; any other seed relabels the vertices and shuffles the edge
order (and endpoint order) and passes the graph inline, so the program does
the same amount of work on an isomorphic input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

Edge = tuple[int, int]


def preset(spec: str) -> tuple[int, tuple[Edge, ...]]:
    """(vertex count, 0-based edges in preset order) for a preset spec like ``cycle:5``."""
    name, _, arg = spec.partition(":")
    n = int(arg) if arg else 0
    if name == "path":
        return n + 1, tuple((v, v + 1) for v in range(n))
    if name == "cycle":
        return n, tuple((min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n))
    if name == "star":
        return n + 1, tuple((0, v) for v in range(1, n + 1))
    if name == "paw":
        return 4, ((0, 1), (0, 2), (1, 2), (0, 3))
    if name == "fork":
        return 5, ((0, 1), (1, 2), (2, 3), (2, 4))
    raise ValueError(f"unknown preset {spec!r}")


@dataclass(frozen=True)
class Job:
    """One job of a workload, already relabelled for its seed."""

    kind: str  # "cli" or "pipeline"
    command: str  # CLI subcommand or pipeline name
    graph: str  # preset spec the job was derived from
    extra: tuple[str, ...]  # further CLI arguments
    p: int
    edges: tuple[Edge, ...]  # 0-based, in the order the program receives them
    relabelled: bool

    @property
    def label(self) -> str:
        """Seed-independent name, used to key digests and per-job timings."""
        return " ".join((self.command, self.graph, *self.extra))

    def edges_text(self) -> str:
        return ",".join(f"{i + 1}-{j + 1}" for i, j in self.edges)

    def argv(self) -> list[str]:
        """Arguments after the kind, as ``job.py`` receives them."""
        if self.kind == "pipeline":
            return [self.command, str(self.p), self.edges_text()]
        source = ["--edges", self.edges_text()] if self.relabelled else ["--preset", self.graph]
        return [self.command, *source, *self.extra]

    def canonical_edges(self) -> tuple[Edge, ...]:
        """Edges as the program stores them: endpoints sorted, input order kept."""
        return tuple((min(e), max(e)) for e in self.edges)


BIG = ("--max-perms", "40320")

# (kind, command, graph, extra arguments); the reasons for each list are in
# BENCHMARK.json and in the module docstring of run.py.
WORKLOADS: dict[str, tuple[tuple[str, str, str, tuple[str, ...]], ...]] = {
    "verify-p5": tuple(
        ("cli", "verify", g, ()) for g in ("fork", "path:4", "star:4", "cycle:5")
    ),
    "analyze-p5": tuple(
        ("cli", "analyze", g, ()) for g in ("paw", "fork", "cycle:4", "path:4", "star:4")
    ),
    "build-p8": (
        ("cli", "build", "path:7", BIG),
        ("cli", "export", "star:7", ("--what", "skeleton:1", "--format", "json", *BIG)),
        ("cli", "export", "cycle:8", ("--what", "cayley", "--format", "dot", *BIG)),
    ),
    "incidence-p6": (("pipeline", "incidence", "path:5", ()),),
    # Not a benchmark workload: every job kind on the paw, for the smoke test.
    "smoke": (
        ("cli", "build", "paw", ()),
        ("cli", "verify", "paw", ()),
        ("cli", "analyze", "paw", ()),
        ("cli", "export", "paw", ("--what", "skeleton:1", "--format", "json")),
        ("cli", "export", "paw", ("--what", "cayley", "--format", "dot")),
        ("pipeline", "incidence", "paw", ()),
    ),
}


def relabel(spec: str, rng: random.Random) -> tuple[int, tuple[Edge, ...]]:
    p, edges = preset(spec)
    sigma = list(range(p))
    rng.shuffle(sigma)
    moved = [(sigma[i], sigma[j]) for i, j in edges]
    rng.shuffle(moved)
    return p, tuple((j, i) if rng.random() < 0.5 else (i, j) for i, j in moved)


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for a seed; the same seed always gives the same jobs."""
    out = []
    for index, (kind, command, graph, extra) in enumerate(WORKLOADS[workload]):
        if seed == DEFAULT_SEED:
            p, edges = preset(graph)
        else:
            p, edges = relabel(graph, random.Random(f"{seed}/{workload}/{index}"))
        out.append(Job(kind, command, graph, extra, p, edges, seed != DEFAULT_SEED))
    return out


def layer_job(graph: str) -> Job:
    """The per-graph layer pipeline used by the layer table, on the preset labelling."""
    p, edges = preset(graph)
    return Job("pipeline", "layers", graph, (), p, edges, False)
