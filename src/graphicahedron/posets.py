"""Graded posets on integer ids, and their flag graphs.

:class:`RankedPoset` is the library's one graded-poset representation.
The polytope's face store, its intervals and the models built
independently of it (labelled partitions, ordered set partitions) all
take its form.

:func:`flag_graph` is the library's one flag graph: the maximal chains of
a poset with one neighbour table per rank, which needs the poset to be
*thin* (exactly two choices at every chain position), as every
polytope-like poset here is.  The automorphism count and the isomorphism
test run the color-preserving propagation :func:`propagate` on its tables.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Sequence


class RankedPoset:
    """A graded poset on the ids ``0..n-1``, numbered rank by rank.

    ``ranks[i]`` is the rank of id i and ``down[i]`` the sorted ids that i
    covers.  The greatest element is the last id and ``rank`` its rank;
    the least element is implicit, below every id of rank 0.  A subclass
    may provide ``ranks``, ``down``, ``rank`` and ``first_of_rank`` its own
    way; the other methods derive from those.
    """

    def __init__(self, ranks: Sequence[int], down: Sequence[Sequence[int]]):
        self.ranks = ranks
        self.down = down

    @property
    def rank(self) -> int:
        return self.ranks[-1]

    def __len__(self) -> int:
        return len(self.ranks)

    def first_of_rank(self, rank: int) -> int:
        """The least id of rank at least ``rank``; ids of rank r are
        ``range(first_of_rank(r), first_of_rank(r + 1))``."""
        return bisect_left(self.ranks, rank)

    @property
    def levels(self) -> tuple[range, ...]:
        """The ids of each rank ``0..rank``."""
        firsts = [self.first_of_rank(r) for r in range(self.rank + 2)]
        return tuple(map(range, firsts, firsts[1:]))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.levels))

    @cached_property
    def up(self) -> list[list[int]]:
        """``up[i]`` is the sorted ids that cover id i."""
        up: list[list[int]] = [[] for _ in range(len(self))]
        for i, below in enumerate(self.down):
            for j in below:
                up[j].append(i)
        return up

    def up_set(self, i: int) -> set[int]:
        """All ids ``>= i``, by walking covers upward."""
        return _closure(i, self.up)

    def down_set(self, i: int) -> set[int]:
        """All ids ``<= i``, by walking covers downward."""
        return _closure(i, self.down)

    def vertices_below(self, i: int) -> int:
        ranks = self.ranks
        return sum(1 for j in self.down_set(i) if ranks[j] == 0)

    @cached_property
    def _flag_tables(self) -> list[list[int]]:
        return flag_graph(self)[1]


def _closure(i: int, covers: Sequence[Sequence[int]]) -> set[int]:
    seen = {i}
    stack = [i]
    while stack:
        for j in covers[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def flag_graph(poset: RankedPoset) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The flag graph of a thin graded poset.

    The flags are the maximal chains from the last id down ``poset.rank``
    covers, each a tuple of ids indexed by rank, in increasing tuple order:
    the flags through the least element come first, which keeps the
    automorphism count's first candidates at one vertex.  ``tables[s][x]``
    is the flag that differs from flag ``x`` only at rank ``s``.  Raises
    ValueError("poset is not thin") when there is no flag, or when some
    flag has no such neighbour or more than one.
    """
    down, rank = poset.down, poset.rank
    chains = [(len(poset) - 1,)]
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
    if not chains or any(-1 in table for table in tables):
        raise ValueError("poset is not thin")
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

    Works on the flag graphs (:func:`flag_graph`, which raises ValueError
    unless both posets are thin): fixes a base flag of ``a`` and tries
    every flag of ``b`` as its image with :func:`propagate`.  Any
    successful propagation is a poset isomorphism; if none succeeds the
    posets differ.  ``b`` keeps its flag graph, so a reference tested
    against many posets builds it once.

    Assumes both flag graphs are connected (true for every polytope-like
    poset, where this is strong flag-connectedness); on a disconnected
    input the test is conservative and may report False.
    """
    if a.f_vector() != b.f_vector():
        return False
    if a.rank <= 0:
        return True
    _, tables_a = flag_graph(a)
    tables_b = b._flag_tables
    n = len(tables_a[0])
    if n != len(tables_b[0]):
        return False
    return any(propagate(tables_a, tables_b, image) is not None for image in range(n))
