"""Graded posets given by consecutive-rank cover lists.

Used for intervals of the polytope face poset, for reference posets built
independently (ordered set partitions, products), and for an isomorphism
test between such posets.

:func:`flag_graph` is the library's one flag graph: the maximal chains of
a poset given by integer down-cover lists, with one neighbour table per
rank.  It serves the isomorphism test here and, on the polytope's stored
covers, strong flag-connectedness and the automorphism count.  Both need
the poset to be *thin* (exactly two choices at every chain position),
which holds for every polytope-like poset this library produces.  The
color-preserving propagation :func:`propagate` runs on its tables.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, Sequence


class RankedPoset:
    """Elements grouped by rank ``0..R`` plus cover lists between consecutive ranks.

    The greatest element is assumed unique (``levels[-1]`` is a singleton);
    the least element is left implicit.
    """

    def __init__(self, levels: Sequence[Sequence[Hashable]], up: dict[Any, tuple]):
        self.levels = tuple(tuple(level) for level in levels)
        self.up = {x: tuple(ups) for x, ups in up.items()}
        self.rank_of = {x: r for r, level in enumerate(self.levels) for x in level}
        down: dict[Any, list] = {x: [] for level in self.levels for x in level}
        for x, ups in self.up.items():
            for y in ups:
                down[y].append(x)
        self.down = {x: tuple(d) for x, d in down.items()}

    @classmethod
    def from_le(cls, levels: Sequence[Sequence[Hashable]], le: Callable[[Any, Any], bool]) -> "RankedPoset":
        up: dict[Any, tuple] = {}
        for r in range(len(levels)):
            above = levels[r + 1] if r + 1 < len(levels) else ()
            for x in levels[r]:
                up[x] = tuple(y for y in above if le(x, y))
        return cls(levels, up)

    @property
    def top_rank(self) -> int:
        return len(self.levels) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def below(self, x) -> set:
        """All elements ``<= x`` (including ``x``), by walking covers downward."""
        seen = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for z in self.down[y]:
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return seen

    def vertices_below(self, x) -> int:
        return sum(1 for y in self.below(x) if self.rank_of[y] == 0)


def flag_graph(
    down: Sequence[Sequence[int]], top: int, rank: int
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The flag graph of a graded poset given by integer down-cover lists.

    The flags are the maximal chains from ``top`` down ``rank`` covers, each
    a tuple of element ids indexed by rank (``chain[rank] == top``), in
    increasing tuple order: the flags through the least element come first,
    which keeps the automorphism count's first candidates at one vertex.
    ``tables[s][x]`` is the flag that differs from flag ``x`` only at rank
    ``s``, or -1 where there is no such flag.  Raises ValueError where there
    is more than one: the poset is not thin.
    """
    chains = [(top,)]
    for _ in range(rank):
        chains = [(x, *chain) for chain in chains for x in down[chain[0]]]
    chains.sort()
    tables = []
    for s in range(rank):
        table = [-1] * len(chains)
        first: dict[tuple[int, ...], int] = {}
        for x, chain in enumerate(chains):
            y = first.setdefault(chain[:s] + chain[s + 1:], x)
            if y != x:
                if table[y] != -1:
                    raise ValueError("poset is not thin")
                table[x] = y
                table[y] = x
        tables.append(table)
    return chains, tables


def propagate(
    tables_a: Sequence[Sequence[int]], tables_b: Sequence[Sequence[int]], image_of_base: int
) -> list[int] | None:
    """Extend ``0 -> image_of_base`` to a color-preserving injection.

    ``tables_a[c][x]`` is the neighbor of node ``x`` along color ``c`` in
    the first colored graph, ``tables_b`` the same for the second.  On a
    connected first graph the extension is unique if it exists.  Returns
    the map as a list, or None at the first conflict or repeated image, or
    when the first graph is not connected.
    """
    mapping = [-1] * len(tables_a[0])
    mapping[0] = image_of_base
    used = bytearray(len(tables_b[0]))
    used[image_of_base] = 1
    pairs = tuple(zip(tables_a, tables_b))
    stack = [0]
    while stack:
        x = stack.pop()
        y = mapping[x]
        for ta, tb in pairs:
            xs, ys = ta[x], tb[y]
            known = mapping[xs]
            if known == -1:
                if used[ys]:
                    return None
                used[ys] = 1
                mapping[xs] = ys
                stack.append(xs)
            elif known != ys:
                return None
    return None if -1 in mapping else mapping


def posets_isomorphic(a: RankedPoset, b: RankedPoset) -> bool:
    """Rank- and incidence-preserving bijection test for thin graded posets.

    Works on the flag graphs (:func:`flag_graph`, elements numbered in
    level order): fixes a base flag of ``a`` and tries every flag of ``b``
    as its image with :func:`propagate`.  Any successful propagation is a
    poset isomorphism; if none succeeds the posets differ.  Raises
    ValueError unless every flag of both posets has exactly one neighbour
    at every rank.

    Assumes both flag graphs are connected (true for every polytope-like
    poset, where this is strong flag-connectedness); on a disconnected
    input the test is conservative and may report False.
    """
    if a.f_vector() != b.f_vector():
        return False
    if a.top_rank <= 0:
        return True
    tables = []
    for poset in (a, b):
        ids = {x: i for i, x in enumerate(itertools.chain.from_iterable(poset.levels))}
        down = [[ids[y] for y in poset.down[x]] for x in ids]
        _, neighbours = flag_graph(down, len(ids) - 1, poset.top_rank)
        if any(-1 in table for table in neighbours):
            raise ValueError("poset is not thin")
        tables.append(neighbours)
    tables_a, tables_b = tables
    n = len(tables_a[0])
    if n != len(tables_b[0]):
        return False
    return not n or any(propagate(tables_a, tables_b, image) is not None for image in range(n))


def product_poset(a: RankedPoset, b: RankedPoset) -> RankedPoset:
    """Direct product: elements are pairs, ordered componentwise, ranked additively."""
    ra, rb = a.top_rank, b.top_rank
    levels: list[list] = [[] for _ in range(ra + rb + 1)]
    for x in a.rank_of:
        for y in b.rank_of:
            levels[a.rank_of[x] + b.rank_of[y]].append((x, y))
    up: dict[Any, tuple] = {}
    for x in a.rank_of:
        for y in b.rank_of:
            ups = [(x2, y) for x2 in a.up[x]] + [(x, y2) for y2 in b.up[y]]
            up[(x, y)] = tuple(ups)
    return RankedPoset(levels, up)
