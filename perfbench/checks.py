"""Label-free invariants that the benchmark computes with its own code.

Every job's output is checked against these; nothing here imports the
program.  Each check returns a list of failure messages (empty on success).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import Counter
from pathlib import Path

from workloads import DEFAULT_SEED, Job

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

# Facet censuses by graph.  Paw and fork are the paper's; the rest follow from
# the facet edge subsets: every 3-subset of the 4-cycle is a 3-path (one coset
# each); the 4-path gives two 3-paths (5 cosets each) and two path-plus-segment
# subsets (10 cosets each); every 3-subset of the 4-star is a 3-star (5 each).
CENSUS = {
    "paw": {"permutahedron(3)": 2, "toroid_63_11": 4, "toroid_63_22": 1},
    "fork": {"hexagonal_prism": 10, "permutahedron(3)": 10, "toroid_63_22": 5},
    "cycle:4": {"permutahedron(3)": 4},
    "path:4": {"hexagonal_prism": 20, "permutahedron(3)": 10},
    "star:4": {"toroid_63_22": 20},
}


def young_order(p: int, edges, subset) -> int:
    """Order of the Young subgroup of the components of the spanning subgraph."""
    parent = list(range(p))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for e in subset:
        i, j = edges[e]
        parent[find(i)] = find(j)
    sizes = Counter(find(v) for v in range(p))
    return math.prod(math.factorial(s) for s in sizes.values())


def f_vector(p: int, edges) -> tuple[int, ...]:
    """Faces per rank 0..q: the sum over K of p! / |Young(K)|."""
    n, q = math.factorial(p), len(edges)
    return tuple(
        sum(n // young_order(p, edges, k) for k in itertools.combinations(range(q), r))
        for r in range(q + 1)
    )


def flag_total(p: int, q: int) -> int:
    return math.factorial(p) * math.factorial(q)


def cover_pairs(f: tuple[int, ...]) -> int:
    """A simple polytope: each rank-r face lies under q - r faces of rank r + 1."""
    q = len(f) - 1
    return sum(f[r] * (q - r) for r in range(q))


def diamond_checked(f: tuple[int, ...]) -> int:
    """Incident pairs two ranks apart, the least face included below rank 1."""
    q = len(f) - 1
    return f[1] + sum(f[r] * math.comb(q - r, 2) for r in range(q - 1))


def graph_aut_order(p: int, edges) -> int:
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((s[i], s[j])) in edge_set for i, j in edges)
        for s in itertools.permutations(range(p))
    )


def is_star_or_triangle(p: int, edges) -> bool:
    degrees = Counter(v for e in edges for v in e)
    triangle = p == 3 and len(edges) == 3
    star = p == len(edges) + 1 and max(degrees.values()) == len(edges)
    return triangle or star


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


def _check_head(job: Job, report: dict, failures: list[str]) -> tuple[int, ...]:
    p, q = job.p, len(job.edges)
    f = f_vector(p, job.edges)
    _expect(failures, "graph", report.get("graph"),
            {"p": p, "q": q, "edges": [[i + 1, j + 1] for i, j in job.canonical_edges()]})
    _expect(failures, "rank", report.get("rank"), q)
    _expect(failures, "f_vector", report.get("f_vector"), list(f))
    _expect(failures, "flag_count", report.get("flag_count"), flag_total(p, q))
    return f


def _check_verify(job: Job, report: dict, failures: list[str]) -> None:
    _check_head(job, report, failures)
    _expect(failures, "axioms", report.get("axioms"),
            {"diamond": "pass", "strong_flag_connected": "pass", "simple": "pass"})


def _check_analyze(job: Job, report: dict, failures: list[str]) -> None:
    f = _check_head(job, report, failures)
    p, q = job.p, len(job.edges)
    aut = graph_aut_order(p, job.edges)
    order = math.factorial(p) * aut
    _expect(failures, "symmetry", report.get("symmetry"), {
        "constructed_order": order,
        "flag_aut_order": order,
        "sp_order": math.factorial(p),
        "graph_aut_order": aut,
        "regular": is_star_or_triangle(p, job.edges),
        "vertex_transitive": True,
        "semidirect_applies": q != 1,
    })
    census = {e["type"]: e["count"] for e in report.get("facet_census", [])}
    _expect(failures, "facet_census", census, CENSUS[job.graph])
    _expect(failures, "facet total", sum(census.values()), f[q - 1])


def _check_skeleton(job: Job, report: dict, failures: list[str]) -> None:
    p, q = job.p, len(job.edges)
    f = f_vector(p, job.edges)
    _expect(failures, "faces_per_rank", report.get("faces_per_rank"), list(f[:2]))
    edges = report.get("edges", [])
    _expect(failures, "skeleton edges", len(edges), f[1])
    n = math.factorial(p)
    # each colour is a perfect matching of the p! vertices
    ends = Counter((x, c) for u, v, c in edges for x in (u, v) if 0 <= u < v < n)
    _expect(failures, "vertex-colour incidences", (len(ends), max(ends.values(), default=0)), (n * q, 1))


_NODE = re.compile(r'  v(\d+) \[label="([\d,]+)"\];')
_EDGE = re.compile(r'  v(\d+) -- v(\d+) \[color="#[0-9a-f]{6}", generator=(\d+)\];')


def _check_cayley(job: Job, text: str, failures: list[str]) -> None:
    p, q = job.p, len(job.edges)
    n = math.factorial(p)
    lines = text.splitlines()
    _expect(failures, "dot frame", (lines[:2], lines[-1:]),
            (["graph cayley {", "  node [shape=circle];"], ["}"]))
    labels: dict[int, tuple[int, ...]] = {}
    colours: Counter = Counter()
    bad = 0
    for line in lines[2:-1]:
        node = _NODE.fullmatch(line)
        if node:
            labels[int(node[1])] = tuple(int(x) for x in node[2].split(","))
            continue
        edge = _EDGE.fullmatch(line)
        if not edge:
            bad += 1
            continue
        u, v, c = int(edge[1]), int(edge[2]), int(edge[3])
        colours[c] += 1
        if not 1 <= c <= q:
            bad += 1
            continue
        # the colour-c neighbour swaps the values of edge c's endpoints
        i, j = (x + 1 for x in job.canonical_edges()[c - 1])
        swapped = tuple(j if x == i else i if x == j else x for x in labels.get(u, ()))
        bad += u >= v or swapped != labels.get(v)
    _expect(failures, "nodes", sorted(labels.values()),
            [tuple(x + 1 for x in a) for a in itertools.permutations(range(p))])
    _expect(failures, "edges per colour", dict(colours), {c: n // 2 for c in range(1, q + 1)})
    _expect(failures, "malformed or wrong dot lines", bad, 0)


def _check_incidence(job: Job, report: dict, failures: list[str]) -> None:
    f = f_vector(job.p, job.edges)
    _expect(failures, "pipeline report", report, {
        "f_vector": list(f),
        "cover_pairs": cover_pairs(f),
        "diamond": {"passed": True, "checked": diamond_checked(f)},
        "simple": True,
    })


def _check_layers(job: Job, report: dict, failures: list[str]) -> None:
    f = f_vector(job.p, job.edges)
    _expect(failures, "f_vector", report.get("f_vector"), list(f))
    _expect(failures, "cover_pairs", report.get("cover_pairs"), cover_pairs(f))
    _expect(failures, "diamond", report.get("diamond"), {"passed": True, "checked": diamond_checked(f)})
    _expect(failures, "strong flag-connectedness", report.get("strong_flag_connected") in (True, None), True)
    order = math.factorial(job.p) * graph_aut_order(job.p, job.edges)
    _expect(failures, "aut order", report.get("aut_order") in (order, None), True)
    if job.graph in CENSUS:
        _expect(failures, "facet_census", report.get("facet_census"), CENSUS[job.graph])


def check_output(job: Job, seed: int, returncode: int, stdout: bytes) -> list[str]:
    """Exit code, label-free invariants and, on the default seed, the report digest."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    failures: list[str] = []
    if seed == DEFAULT_SEED and job.command != "layers":
        _expect(failures, "sha256 of the report", hashlib.sha256(stdout).hexdigest(), DIGESTS.get(job.label))
    try:
        if job.command == "export" and "cayley" in job.extra:
            _check_cayley(job, stdout.decode("ascii"), failures)
            return failures
        report = json.loads(stdout)
    except (UnicodeDecodeError, ValueError) as exc:
        return failures + [f"unreadable output: {exc}"]
    checker = {
        "build": _check_head,
        "verify": _check_verify,
        "analyze": _check_analyze,
        "export": _check_skeleton,
        "incidence": _check_incidence,
        "layers": _check_layers,
    }[job.command]
    checker(job, report, failures)
    return failures
