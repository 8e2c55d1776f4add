"""Simple undirected graphs: parsing, presets, connectivity, automorphisms.

Vertices are ``0..p-1`` internally and ``1..p`` in all text formats.  Edges
are stored as sorted pairs in input order; their positions ``0..q-1`` are
stable identifiers used as Cayley colors and as the members of the edge
subsets that index polytope faces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, ParseError
from .perms import Perm, VertexPartition, inverse

Edge = tuple[int, int]


@dataclass(frozen=True)
class SimpleGraph:
    """A loopless graph without multiple edges on vertices ``0..p-1``."""

    p: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"loop edge at vertex {i + 1}")
            if not (0 <= i < self.p and 0 <= j < self.p):
                raise ValueError(f"edge ({i + 1}, {j + 1}) out of range for p={self.p}")
            if i > j:
                raise ValueError("edge endpoints must be stored sorted")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i + 1}, {j + 1})")
            seen.add((i, j))

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: idx for idx, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs = [set() for _ in range(self.p)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def make_graph(p: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    """Build a graph from 0-based endpoint pairs, normalizing endpoint order."""
    return SimpleGraph(p, tuple(tuple(sorted(e)) for e in edges))


def parse_int(token: str) -> int:
    """An integer written as ASCII decimal digits with an optional leading
    minus sign; ValueError for anything else.

    ``int()`` alone also takes ``+2``, ``1_0``, surrounding blanks and
    non-ASCII digits such as ``٢``.
    """
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)  # ValueError past int()'s digit limit


def parse_graph(text: str) -> SimpleGraph:
    """Parse the edge-list format.

    An optional first line ``p <n>`` declares the vertex count; every other
    line holds one edge ``i j`` with 1-based labels.  ``#`` starts a comment.
    """
    declared_p = None
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_label = 0
    saw_content = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_content and tokens[0] == "p":
            try:
                declared_p = parse_int(tokens[1]) if len(tokens) == 2 else 0
            except ValueError:
                declared_p = 0
            if declared_p < 1:
                raise ParseError(f"bad header {line!r}, expected 'p <count>'", lineno)
            saw_content = True
            continue
        saw_content = True
        if len(tokens) != 2:
            raise ParseError(f"expected 'i j', got {line!r}", lineno)
        try:
            i, j = parse_int(tokens[0]), parse_int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer label in {line!r}", lineno) from None
        if i < 1 or j < 1:
            raise ParseError(f"labels must be positive, got {line!r}", lineno)
        if i == j:
            raise ParseError(f"loop edge at vertex {i}", lineno)
        if declared_p is not None and max(i, j) > declared_p:
            raise ParseError(f"label {max(i, j)} exceeds declared vertex count {declared_p}", lineno)
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in seen:
            raise ParseError(f"duplicate edge ({min(i, j)}, {max(i, j)})", lineno)
        seen.add(key)
        pairs.append(key)
        max_label = max(max_label, i, j)

    if not saw_content:
        raise ParseError("empty graph description")
    p = declared_p if declared_p is not None else max_label
    return SimpleGraph(p, tuple(pairs))


# name: (the least size n, None if it takes none; vertex count from n; edges from n)
_PRESETS: dict[str, tuple[int | None, Callable[[int], int], Callable[[int], list[Edge]]]] = {
    "path": (1, lambda n: n + 1, lambda n: [(v, v + 1) for v in range(n)]),
    "cycle": (3, lambda n: n, lambda n: [(v, (v + 1) % n) for v in range(n)]),
    "star": (1, lambda n: n + 1, lambda n: [(0, v) for v in range(1, n + 1)]),
    "paw": (None, lambda n: 4, lambda n: [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "fork": (None, lambda n: 5, lambda n: [(0, 1), (1, 2), (2, 3), (2, 4)]),
}


def preset_order(name: str, n: int | None = None) -> int:
    """The vertex count of ``preset_graph(name, n)``, found without listing
    its edges; raises ValueError for the inputs that :func:`preset_graph`
    refuses."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    least, order, _ = _PRESETS[name]
    if least is None and n is not None:
        raise ValueError(f"{name} takes no size parameter")
    if least is not None and (n is None or n < least):
        raise ValueError(f"{name} needs a size n >= {least}")
    return order(n)


def preset_graph(name: str, n: int | None = None) -> SimpleGraph:
    """Named small graphs: path, cycle, star (parametrized), paw and fork.

    The paw is the triangle with a pendant edge; the fork is the 5-vertex
    tree with degree sequence (3,2,1,1,1).  These are the only connected
    4-edge graphs besides the path, the cycle and the star.
    """
    return make_graph(preset_order(name, n), _PRESETS[name][2](n))


def components(graph: SimpleGraph, edge_subset: Iterable[int]) -> VertexPartition:
    """Connected components of the spanning subgraph keeping only the given edges.

    The result is a partition of all ``p`` vertices; isolated vertices form
    singleton blocks.
    """
    parent = list(range(graph.p))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edge_subset:
        if not (0 <= e < graph.q):
            raise ValueError(f"edge index {e} out of range for q={graph.q}")
        i, j = graph.edges[e]
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    blocks: dict[int, list[int]] = {}
    for v in range(graph.p):
        blocks.setdefault(find(v), []).append(v)
    return VertexPartition.from_blocks(blocks.values())


def is_connected(graph: SimpleGraph) -> bool:
    return len(components(graph, range(graph.q)).blocks) == 1


@dataclass(frozen=True)
class GraphAutomorphism:
    """A graph symmetry: a vertex permutation together with its induced edge permutation."""

    vertex_map: Perm
    edge_map: Perm

    def inverse(self) -> "GraphAutomorphism":
        return GraphAutomorphism(inverse(self.vertex_map), inverse(self.edge_map))

    @property
    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.vertex_map))


def induced_edge_map(graph: SimpleGraph, vertex_map: Sequence[int]) -> Perm | None:
    """Edge permutation induced by a vertex permutation, or None if some edge is not preserved."""
    out = []
    for i, j in graph.edges:
        image = tuple(sorted((vertex_map[i], vertex_map[j])))
        idx = graph.edge_index.get(image)
        if idx is None:
            return None
        out.append(idx)
    return tuple(out)


AUTOMORPHISMS_MAX_P = 10


def automorphisms(graph: SimpleGraph) -> tuple[GraphAutomorphism, ...]:
    """All graph automorphisms, by pruned search over vertex permutations.

    Candidates are forced to respect degrees and the adjacency to already
    placed vertices, which keeps the search tiny for the graphs this library
    targets; above :data:`AUTOMORPHISMS_MAX_P` vertices it raises
    :class:`CapacityError`.
    """
    if graph.p > AUTOMORPHISMS_MAX_P:
        raise CapacityError(f"automorphism search capped at p={AUTOMORPHISMS_MAX_P}, got p={graph.p}")

    p = graph.p
    adj = graph.adjacency
    degrees = [graph.degree(v) for v in range(p)]
    image = [-1] * p
    used = [False] * p
    found: list[GraphAutomorphism] = []

    def extend(v: int) -> None:
        if v == p:
            vmap = tuple(image)
            emap = induced_edge_map(graph, vmap)
            if emap is not None:
                found.append(GraphAutomorphism(vmap, emap))
            return
        for c in range(p):
            if used[c] or degrees[c] != degrees[v]:
                continue
            if any((u in adj[v]) != (image[u] in adj[c]) for u in range(v)):
                continue
            image[v] = c
            used[c] = True
            extend(v + 1)
            used[c] = False
            image[v] = -1

    extend(0)
    return tuple(found)


def is_star(graph: SimpleGraph) -> bool:
    """Whether the graph is a star (every edge through one center), including
    the trivial graph and the single edge."""
    if graph.q == 0:
        return graph.p == 1
    if graph.p != graph.q + 1:
        return False
    return is_connected(graph) and any(graph.degree(v) == graph.q for v in range(graph.p))


def is_triangle(graph: SimpleGraph) -> bool:
    return graph.p == 3 and graph.q == 3
