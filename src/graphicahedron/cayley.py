"""The Cayley color graph of a graph: S_p generated by one transposition per edge.

Vertices are all p! permutations, indexed by lexicographic rank.  Two
permutations are adjacent when one is the other multiplied on the left by
the transposition of some graph edge; that edge's index is the color of the
Cayley edge, so each color class is a perfect matching.  The neighbor tables
are computed on ranks, and no product is formed: each is one ``array('i')``
of p! ranks, which holds every rank up to p = 12.

A graphicahedron store numbers its vertices the same way, so
:func:`dot_graph` writes both this graph and a skeleton's 1-skeleton.  Both
edge lists are :class:`SortedEdges`, read one window of vertices at a time:
iterating one yields sorted (u, v, color) triples, and :func:`dot_graph`
writes each window through one ``%`` template, with each color's tail made
once per window.  One sort per window merges the colors, not ``heapq`` over
one stream per color.  A caller holds no more of either than it keeps; one
that wants the whole text joins ``dot_graph("cayley", c.perms, c.edges())``.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, compress, repeat
from operator import gt
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import CapacityError
from .graphs import SimpleGraph
from .perms import DEFAULT_MAX_PERMS, Perm, check_perm_capacity, perms_by_lex_rank, transposition_of_edge

if TYPE_CHECKING:
    from array import array

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

_WINDOW = 1024  # vertices whose edges are merged at a time
_MAX_P = 12  # 12! < 2**31 <= 13!: the ranks of larger p do not fit array('i')


class SortedEdges:
    """The edges of color matchings on the vertices ``range(n)``, in sorted
    (u, v, color) order.  ``tables`` pairs each color with its perfect
    matching, an ``array('i')`` of n entries whose entry u is u's partner;
    an edge (u, v, color) is read at its lower end u.  No two colors may
    join the same two vertices.

    The edges are read one window of ``_WINDOW`` vertices at a time: each
    color's edges in the window are taken by C-level filters, already
    sorted, and one sort merges the colors' runs.  Iterating yields the
    triples; :meth:`render` writes the same windows as text.  Each pass
    reads the tables afresh, so the view may be iterated more than once."""

    def __init__(self, n: int, tables: Sequence[tuple[int, array]]):
        self.n = n
        self.tables = tables

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return chain.from_iterable(self._windows(lambda color: color))

    def render(self, template: str, tail: Callable[[int], object]) -> Iterator[str]:
        """``template % (u, v, tail(color))`` for each edge in order, with
        ``tail`` called once per color and window."""
        return map(template.__mod__, chain.from_iterable(self._windows(tail)))

    def _windows(self, tail: Callable[[int], object]) -> Iterator[list[tuple[int, int, object]]]:
        n = self.n
        for lo in range(0, n, _WINDOW):
            ids = range(lo, min(lo + _WINDOW, n))
            window: list[tuple[int, int, object]] = []
            for color, table in self.tables:
                row = table[lo:lo + _WINDOW].tolist()
                window += compress(zip(ids, row, repeat(tail(color))), map(gt, row, ids))
            window.sort()  # on (u, v) alone: no two colors join the same two vertices
            yield window


class CayleyGraph:
    """Built Cayley color graph on ``perms``, the shared lex table; immutable
    after construction.  ``neighbor[color]`` is an ``array('i')`` whose entry
    i is the rank of that color's transposition times ``perms[i]``."""

    def __init__(self, graph: SimpleGraph):
        if graph.p > _MAX_P:
            raise CapacityError(f"Cayley tables hold ranks up to p = {_MAX_P}, got p = {graph.p}")
        self.graph = graph
        self.p = graph.p
        self.perms = perms_by_lex_rank(graph.p)
        memo: dict[Perm, array] = {}
        self.neighbor = tuple(_left_ranks(transposition_of_edge(graph.p, e), memo) for e in graph.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.perms)

    @property
    def n_colors(self) -> int:
        return len(self.neighbor)

    def edge_count(self) -> int:
        return self.n_vertices * self.n_colors // 2

    def edges(self) -> SortedEdges:
        """Undirected colored edges as (smaller vertex, larger vertex,
        color), in sorted order (no two colors lead to the same neighbor)."""
        return SortedEdges(self.n_vertices, tuple(enumerate(self.neighbor)))


def build_cayley(graph: SimpleGraph, max_perms: int = DEFAULT_MAX_PERMS) -> CayleyGraph:
    """Materialize the Cayley graph with one neighbor table per edge color,
    after checking ``p!`` against ``max_perms``."""
    check_perm_capacity(graph.p, max_perms)
    return CayleyGraph(graph)


def _left_ranks(t: Perm, memo: dict[Perm, array]) -> array:
    """The lex rank of t·a for every a in lex order.  S_n in lex order is n
    runs of (n-1)! permutations, one per first value.  Left multiplication by
    t maps the run with first value v onto the run with first value t(v),
    inside which it acts as t restricted to the other points, renumbered: the
    same recursion one point down, kept in ``memo``.

    Each run is the table one point down with t(v)·(n-1)! added to every
    entry, done as one big-integer sum over the array's bytes: ``ones`` holds
    1 in every 32-bit lane, and no entry reaches 2**31, so no lane carries
    into the next.  ``array`` is imported here, so the commands that build
    no Cayley table never load it.
    """
    from array import array

    run = math.factorial(len(t) - 1)
    ones = int.from_bytes(array("i", [1]) * run, sys.byteorder)
    out = array("i")
    for v, tv in enumerate(t):
        rest = tuple(y - (y > tv) for y in t[:v] + t[v + 1:])
        if rest not in memo:
            memo[rest] = array("i", range(run)) if rest == tuple(range(len(rest))) else _left_ranks(rest, memo)
        lanes = int.from_bytes(memo[rest], sys.byteorder) + tv * run * ones
        out.frombytes(lanes.to_bytes(run * out.itemsize, sys.byteorder))
    return out


def labels(perms: Sequence[Perm]) -> Iterator[str]:
    """Each permutation's 1-based image sequence, as ``"2,1,3"``; the
    permutations all have the size of the first."""
    digits = [str(v + 1) for v in range(len(perms[0]) if perms else 0)]
    return map(",".join, map(map, repeat(digits.__getitem__), perms))


def dot_graph(name: str, perms: Sequence[Perm], edges: SortedEdges) -> Iterator[str]:
    """Colored edges between permutations in DOT format, one line (with its
    newline) at a time.

    Node ``v<i>`` is ``perms[i]``, labeled with its 1-based image sequence;
    each (u, v, color) edge carries the palette color of its generator.  The
    edges are written window by window through one ``%`` template.
    """

    def tail(color: int) -> str:
        return f' [color="{PALETTE[color % len(PALETTE)]}", generator={color + 1}];\n'

    return chain(
        (f"graph {name} {{\n", "  node [shape=circle];\n"),
        map('  v%d [label="%s"];\n'.__mod__, enumerate(labels(perms))),
        edges.render("  v%d -- v%d%s", tail),
        ("}\n",),
    )
