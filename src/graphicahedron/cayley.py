"""The Cayley color graph of a graph: S_p generated by one transposition per edge.

Vertices are all p! permutations, indexed by lexicographic rank for O(1)
lookup.  Two permutations are adjacent when one is the other multiplied on
the left by the transposition of some graph edge; that edge's index is the
color of the Cayley edge, so each color class is a perfect matching.

A graphicahedron store numbers its vertices the same way, so
:func:`dot_graph` writes both this graph and a skeleton's 1-skeleton.  The
writers are streams: :meth:`CayleyGraph.edges` yields the sorted edge list
vertex by vertex and :func:`dot_graph` yields the DOT text line by line, so
a caller holds no more of either than it keeps; one that wants the whole
text joins ``dot_graph("cayley", c.perms, c.edges())``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .graphs import SimpleGraph
from .perms import DEFAULT_MAX_PERMS, Perm, check_perm_capacity, compose, transposition_of_edge

# Edge colors for DOT output, reused cyclically past the palette size.
PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
)


class CayleyGraph:
    """Built Cayley color graph on all p! permutations; immutable after construction."""

    def __init__(self, graph: SimpleGraph):
        self.graph = graph
        self.p = graph.p
        self.perms = tuple(itertools.permutations(range(graph.p)))
        self.index = {a: i for i, a in enumerate(self.perms)}
        taus = [transposition_of_edge(graph.p, e) for e in graph.edges]
        # neighbor[color][vertex] -> vertex
        self.neighbor = tuple(tuple(self.index[compose(tau, a)] for a in self.perms) for tau in taus)

    @property
    def n_vertices(self) -> int:
        return len(self.perms)

    @property
    def n_colors(self) -> int:
        return len(self.neighbor)

    def edge_count(self) -> int:
        return self.n_vertices * self.n_colors // 2

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Undirected colored edges as (smaller vertex, larger vertex, color),
        in sorted order: for each vertex, its larger neighbors in order (no
        two colors lead to the same neighbor)."""
        for u, row in enumerate(zip(*self.neighbor)):
            for v, color in sorted((v, color) for color, v in enumerate(row) if v > u):
                yield (u, v, color)


def build_cayley(graph: SimpleGraph, max_perms: int = DEFAULT_MAX_PERMS) -> CayleyGraph:
    """Materialize the Cayley graph with one neighbor table per edge color,
    after checking ``p!`` against ``max_perms``."""
    check_perm_capacity(graph.p, max_perms)
    return CayleyGraph(graph)


def dot_graph(name: str, perms: Sequence[Perm], edges: Iterable[tuple[int, int, int]]) -> Iterator[str]:
    """Colored edges between permutations in DOT format, one line (with its
    newline) at a time.

    Node ``v<i>`` is ``perms[i]``, labeled with its 1-based image sequence;
    each (u, v, color) edge carries the palette color of its generator.
    """
    yield f"graph {name} {{\n"
    yield "  node [shape=circle];\n"
    for i, a in enumerate(perms):
        label = ",".join(str(v + 1) for v in a)
        yield f'  v{i} [label="{label}"];\n'
    for u, v, color in edges:
        hexcolor = PALETTE[color % len(PALETTE)]
        yield f'  v{u} -- v{v} [color="{hexcolor}", generator={color + 1}];\n'
    yield "}\n"

