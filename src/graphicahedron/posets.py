"""Graded posets on integer ids, and their isomorphisms by vertex frames.

:class:`RankedPoset` is the one graded-poset form of the face store, its
intervals (:meth:`RankedPoset.interval_below`) and the models built
independently of it.  In a *simple* poset the faces through a vertex are
the subsets of its edges, so an isomorphism out of it is fixed by where it
sends one vertex and its edges in order, a *frame*, and the target is then
simple too: only the side the frames start from is checked.  A frame into
a vertex w is a permutation of positions into its edges ``up[w]``.
:func:`map_frame` is the one propagation that extends a frame, total on any
target; :func:`posets_isomorphic` and the automorphism count
(:attr:`RankedPoset.vertex_orbit_and_stabiliser`) both run on it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InternalInconsistencyError, NotThinError


class RankedPoset:
    """A graded poset on the ids ``0..n-1``, numbered rank by rank.

    ``ranks[i]`` is the rank of id i and ``down[i]`` the sorted list of ids
    that i covers.  The greatest element is the last id and ``rank`` its
    rank; the least element is implicit, below every id of rank 0.  A
    subclass may provide ``ranks``, ``down``, ``rank``, ``first_of_rank``
    and ``_ids`` its own way; the other methods derive from those.
    """

    def __init__(self, ranks: Sequence[int], down: Sequence[Sequence[int]]):
        self.ranks = ranks
        self.down = down
        self._ids = range(len(ranks))  # the int objects ``up`` holds, one per id

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
        for i, below in zip(self._ids, self.down):
            for j in below:
                up[j].append(i)
        return up

    def down_set(self, i: int) -> set[int]:
        """All ids ``<= i``, by walking covers downward."""
        return _closure([i], self.down.__getitem__)

    def vertices_below(self, i: int) -> int:
        ranks = self.ranks
        return sum(1 for j in self.down_set(i) if ranks[j] == 0)

    def is_simple_at(self, v: int) -> bool:
        """Whether the ids above the rank-0 id ``v`` form the Boolean lattice
        on its ``rank`` edges.  Named by the set of v's edges below them, the
        ids of rank r must be C(rank, r) distinct r-sets, covering r times as
        many ids, since none covers more than the r sets one smaller."""
        q, up = self.rank, self.up
        level = {e: 1 << k for k, e in enumerate(up[v])}
        for r in range(2, q + 1):
            covers, above = 0, {}
            for x, mask in level.items():
                covers += len(up[x])
                for y in up[x]:
                    above[y] = above.get(y, 0) | mask
            level, masks = above, {m for m in above.values() if m.bit_count() == r}
            if not covers == r * len(level) == r * len(masks) == r * math.comb(q, r):
                return False
        return len(up[v]) == q

    @cached_property
    def is_simple(self) -> bool:
        """Whether every vertex is simple (:meth:`is_simple_at`)."""
        return all(map(self.is_simple_at, range(self.first_of_rank(1))))

    @cached_property
    def _frames_apply(self) -> bool:
        """Whether frames fix isomorphisms (and the poset is thin): there is a
        vertex, all are simple, edges cover two and higher ids cover some."""
        ranks, down, first_edge = self.ranks, self.down, self.first_of_rank(1)
        return len(self) > 0 and ranks[0] == 0 and self.is_simple and all(
            len(down[i]) == 2 if ranks[i] == 1 else down[i] for i in range(first_edge, len(self))
        )

    def interval_below(self, top: int) -> RankedPoset:
        """The interval from the least element up to the id ``top``: its
        down-set as a poset of its own, ids renumbered in order, with its
        own frame check."""
        ranks, down, inside = self.ranks, self.down, sorted(self.down_set(top))
        new_id = {i: k for k, i in enumerate(inside)}
        return RankedPoset([ranks[i] for i in inside], [[new_id[j] for j in down[i]] for i in inside])

    @cached_property
    def _skeleton_connected(self) -> bool:
        """Whether every vertex is reached from vertex 0 along the edges."""
        reached = _closure([0], lambda v: (u for e in self.up[v] for u in self.down[e]))
        return len(reached) == self.first_of_rank(1)

    @cached_property
    def vertex_orbit_and_stabiliser(self) -> tuple[int, int]:
        """The size of vertex 0's orbit under the automorphisms and the order
        of its stabiliser, each automorphism one frame test (:func:`map_frame`).

        The stabiliser is the group of frames at vertex 0 that extend.  They are
        tested one per left coset of the stabiliser found so far, as a failing frame
        rules out its coset; then each vertex outside the orbit found so far, until a
        frame there succeeds.  Raises :class:`NotThinError`, a ValueError, unless the
        frame check passes."""
        if not self._frames_apply:
            raise NotThinError("poset is not thin")
        if not self._skeleton_connected:
            raise InternalInconsistencyError("the 1-skeleton is not connected")
        found: list[list[int]] = []
        gens: list[tuple[int, ...]] = []
        group, ruled_out = {tuple(range(len(self.up[0])))}, set()
        for sigma in _frames_at(self, self, 0):
            if sigma in group or sigma in ruled_out:
                continue
            image = map_frame(self, self, 0, sigma)
            if image is None:
                ruled_out.update(tuple(sigma[k] for k in h) for h in group)
                continue
            found.append(image)
            gens.append(sigma)
            group = _closure(group, lambda g: (tuple(g[k] for k in s) for s in gens))
            ruled_out = {tuple(bad[k] for k in h) for bad in ruled_out for h in group}
        orbit = _closure([0], lambda v: (image[v] for image in found))
        for w in range(1, self.first_of_rank(1)):
            if w not in orbit:
                found.extend(itertools.islice(_maps(self, self, w), 1))
                orbit = _closure([0], lambda v: (image[v] for image in found))
        return len(orbit), len(group)


def _closure(starts: Iterable, step: Callable[[object], Iterable]) -> set:
    """Everything reached from ``starts`` by repeated ``step``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _two_face(poset: RankedPoset, e: int, f: int) -> int | None:
    """The 2-face above the edges ``e`` and ``f``; None if there is none."""
    down = poset.down
    return next((t for t in poset.up[e] if f in down[t]), None)


def _other_edge(down: Sequence[Sequence[int]], t: int, x: int, e: int) -> int | None:
    """The edge other than ``e`` at the vertex ``x`` below the 2-face ``t``; None if there is none."""
    return next((h for h in down[t] if h != e and x in down[h]), None)


def _frames_at(a: RankedPoset, b: RankedPoset, w: int) -> Iterator[tuple[int, ...]]:
    """The frames at b's vertex ``w``, permutations of positions into ``b.up[w]``, whose pairs of
    edges span 2-faces as large as the matching pairs at a's vertex 0, in ``itertools.permutations``
    order, grown edge by edge; none if ``w`` has another number of edges, or two span no 2-face."""
    at_a, edges = a.up[0], b.up[w]
    want = [[len(a.down[_two_face(a, e, f)]) for e in at_a[:k]] for k, f in enumerate(at_a)]
    sizes = [[0 if (t := _two_face(b, e, f)) is None else len(b.down[t]) for f in edges] for e in edges]

    def grow(order: tuple[int, ...], rest: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield order
        for x, j in enumerate(rest):
            if [sizes[i][j] for i in order] == want[len(order)]:
                yield from grow((*order, j), rest[:x] + rest[x + 1:])

    return grow((), tuple(range(len(edges)))) if len(edges) == len(at_a) else iter(())


def map_frame(a: RankedPoset, b: RankedPoset, w: int, order: Iterable[int]) -> list[int] | None:
    """The isomorphism from ``a``, which passes the frame check, onto ``b``,
    with the same f-vector, sending a's vertex 0 to ``w`` and its edges, in
    id order, to the edges ``b.up[w][k]`` for the positions k of ``order``,
    a frame that :func:`_frames_at` offers; None if there is none.

    Crossing an edge e from v to u, each 2-face above e meets u in e and an
    edge f, and v in e and an edge g; f goes to the edge at u's image below
    the 2-face of the images of e and g.  A higher face goes to the
    face covering the images of its down-covers.  An id goes only to one
    covering as many ids, and only an injective map, which then keeps every
    down-cover list, is returned; a 2-face or edge of ``b`` that the
    crossing does not find fails the frame.
    """
    up_a, down_a, up_b, down_b = a.up, a.down, b.up, b.down
    image = [-1] * len(a)
    used = bytearray(len(b))

    def put(x: int, y: int | None) -> bool:
        if y is not None and image[x] == -1 and not used[y] and len(down_b[y]) == len(down_a[x]):
            image[x] = y
            used[y] = 1
        return image[x] == y

    if not all(map(put, (0, *up_a[0]), (w, *map(up_b[w].__getitem__, order)))):
        return None
    stack = [0]
    while stack:
        v = stack.pop()
        for e in up_a[v]:
            u, ie = sum(down_a[e]) - v, image[e]
            new = image[u] == -1
            if not put(u, sum(down_b[ie]) - image[v]):
                return None
            if new:
                stack.append(u)
                for t in up_a[e]:
                    g, f = _other_edge(down_a, t, v, e), _other_edge(down_a, t, u, e)
                    s = _two_face(b, ie, image[g])
                    if s is None or not put(f, _other_edge(down_b, s, image[u], ie)):
                        return None
    if -1 in image[:a.first_of_rank(1)]:
        return None
    for x in range(a.first_of_rank(2), len(a)):
        below = sorted(image[y] for y in down_a[x])
        y = next((t for t in up_b[below[0]] if down_b[t] == below), None)
        if y is None or not put(x, y):
            return None
    return image


def _maps(a: RankedPoset, b: RankedPoset, w: int) -> Iterator[list[int]]:
    """The isomorphisms from ``a`` onto ``b`` sending a's vertex 0 to ``w``:
    :func:`map_frame` of each frame :func:`_frames_at` offers, where it succeeds."""
    return filter(None, (map_frame(a, b, w, order) for order in _frames_at(a, b, w)))


def posets_isomorphic(a: RankedPoset, b: RankedPoset) -> bool:
    """Rank- and incidence-preserving bijection test out of a simple graded poset.

    Tries each frame of ``b`` that keeps the 2-face sizes at a's vertex 0
    as the image of that vertex's frame (:func:`_maps`).  A frame fixes any
    isomorphism out of ``a``, and a target it reaches is then simple too, so
    only ``a`` must pass the frame check: raises :class:`NotThinError`, a
    ValueError, unless it does, and answers False for any ``b`` that does
    not.  ``a`` keeps its verdict and covers for the next test.  A
    disconnected 1-skeleton of ``a`` is not isomorphic to a connected one
    of ``b``; two disconnected ones raise ValueError.
    """
    if a.f_vector() != b.f_vector():
        return False
    if a.rank <= 0:
        return True
    if not a._frames_apply:
        raise NotThinError("poset is not thin")
    if not a._skeleton_connected:
        if b._skeleton_connected:
            return False
        raise ValueError("the 1-skeleta are not connected")
    return any(image for w in range(b.first_of_rank(1)) for image in _maps(a, b, w))
