"""Graded posets given by consecutive-rank cover lists.

Used for intervals of the polytope face poset, for reference posets built
independently (ordered set partitions, products), and for an isomorphism
test between such posets.  The isomorphism test walks maximal chains and
requires both posets to be *thin* (exactly two choices at every chain
position), which holds for every polytope-like poset this library produces.
Its color-preserving propagation, :func:`propagate`, also counts the
polytope's automorphisms on the flag graph.
"""

from __future__ import annotations

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

    def maximal_chains(self) -> tuple[tuple, ...]:
        """All chains spanning every rank, bottom level to the top element."""
        if not self.levels:
            return ()
        chains: list[tuple] = []
        stack: list = []

        def extend() -> None:
            if len(stack) == len(self.levels):
                chains.append(tuple(stack))
                return
            for y in self.up[stack[-1]]:
                stack.append(y)
                extend()
                stack.pop()

        for x in self.levels[0]:
            stack.append(x)
            extend()
            stack.pop()
        return tuple(chains)


def _chain_neighbor_tables(poset: RankedPoset, chains: Sequence[tuple]) -> list[list[int]]:
    """For each chain and each position ``0..R-1``, the unique other chain
    differing only at that position.  Raises if the poset is not thin."""
    index = {c: i for i, c in enumerate(chains)}
    tables = [[-1] * len(chains) for _ in range(poset.top_rank)]
    for ci, chain in enumerate(chains):
        for s in range(poset.top_rank):
            if s == 0:
                candidates = [x for x in poset.down[chain[1]] if x != chain[0]]
            else:
                above = set(poset.down[chain[s + 1]])
                candidates = [x for x in poset.up[chain[s - 1]] if x in above and x != chain[s]]
            if len(candidates) != 1:
                raise ValueError(
                    f"poset is not thin at rank {s}: {len(candidates) + 1} choices between "
                    f"{chain[s - 1] if s else 'bottom'} and {chain[s + 1]}"
                )
            other = chain[:s] + (candidates[0],) + chain[s + 1:]
            tables[s][ci] = index[other]
    return tables


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

    Works on the colored graphs of maximal chains: fixes a base chain of
    ``a`` and tries every chain of ``b`` as its image with :func:`propagate`.
    Any successful propagation is a poset isomorphism; if none succeeds the
    posets differ.

    Assumes both chain graphs are connected (true for every polytope-like
    poset, where this is strong flag-connectedness); on a disconnected
    input the test is conservative and may report False.
    """
    if a.f_vector() != b.f_vector():
        return False
    chains_a = a.maximal_chains()
    chains_b = b.maximal_chains()
    if len(chains_a) != len(chains_b):
        return False
    if not chains_a or a.top_rank == 0:
        return True
    adj_a = _chain_neighbor_tables(a, chains_a)
    adj_b = _chain_neighbor_tables(b, chains_b)
    return any(propagate(adj_a, adj_b, image) is not None for image in range(len(chains_b)))


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
