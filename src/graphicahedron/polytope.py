"""The graphicahedron: a rank-q abstract polytope built from a connected graph.

A face is a pair (K, c): a subset K of edge indices together with the
lexicographically least member c of a right coset of the Young subgroup
fixed by the connected components of the spanning subgraph K.  Rank is |K|,
so the empty set contributes the p! vertices and the full edge set the
single greatest face.  A face of rank i below a face of rank j >= i is one
whose edge set is contained in the other's and whose coset lies inside the
other's coset.

The store holds one block per edge subset K: K with its sorted coset
representatives.  Blocks come by rank, then by sorted K, so the faces are
integer ids in that order, each block owning a contiguous id range, and a
face's id is found by bisecting its block.  Ids are the only face form;
:func:`face_id` labels one for a witness.

Covers follow directly from the coset rule: the faces covering (K, c) are
the faces (K + {e}, canonical_rep(c)), one for each edge e not in K.  The
cover lists of every id are built on first use, so intervals and vertex
figures are walks along covers rather than scans of whole ranks.  A face
missing from the store is simply a missing cover.

The store is a :class:`posets.RankedPoset`, with its intervals and its
simplicity verdict.  An intact polytope has exactly p!q! flags (maximal
chains), but none is built: the verifiers here walk covers.

The verifiers in this module re-check the defining polytope axioms from the
stored poset alone, their negative controls being stores with faces dropped
(:func:`drop_face`): the diamond condition (exactly two faces strictly between
any two incident faces two ranks apart) and strong flag-connectedness (each
section of rank two or more has a connected flag graph, a property of the
sections alone by McMullen and Schulte, *Abstract Regular Polytopes* 2B),
checked by one walk up the covers from each bottom, the least face like
every proper face, in time that grows with the p!·2^q faces of the vertex
figures, which :func:`check_walkable` bounds before any face is built.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import gt
from typing import Iterable, Iterator, NamedTuple

from .cayley import CayleyGraph, SortedEdges
from .errors import CapacityError, DisconnectedGraphError
from .graphs import SimpleGraph, components, is_connected
from .perms import (
    DEFAULT_MAX_PERMS,
    Perm,
    canonical_rep,
    check_perm_capacity,
    coset_reps,
    coset_size,
)
from .posets import RankedPoset

FIGURE_FACES_PER_PERM = 512  # vertex-figure faces per allowed permutation; at 720: p <= 5, or p = 6, q <= 9

# An edge subset K with the sorted canonical representatives of its faces.
Block = tuple[frozenset[int], tuple[Perm, ...]]


class Graphicahedron(RankedPoset):
    """The face poset as a :class:`RankedPoset` over ``blocks``, which must
    come by rank, then by sorted edge subset (empty ones are dropped).
    Block b holds the ids ``starts[b]`` up to ``starts[b + 1]``; ``up[i]``
    and ``down[i]`` are the ids covering and covered by id i, in increasing
    order, from the coset rule.  ``rank`` is q whatever ranks are stored."""

    def __init__(self, graph: SimpleGraph, blocks: Iterable[Block]):
        self.graph = graph
        self.blocks: tuple[Block, ...] = tuple((edges, reps) for edges, reps in blocks if reps)
        self.starts = list(itertools.accumulate((len(reps) for _, reps in self.blocks), initial=0))
        self._block_of = {edges: b for b, (edges, _) in enumerate(self.blocks)}
        self._block_ranks = [len(edges) for edges, _ in self.blocks]

    @property
    def rank(self) -> int:
        return self.graph.q

    def __len__(self) -> int:
        return self.starts[-1]

    @property
    def vertex_reps(self) -> tuple[Perm, ...]:
        """The permutations of the stored vertices; a vertex's id is its
        position here."""
        return self.blocks[0][1] if self.blocks and not self.blocks[0][0] else ()

    def faces(self, rank: int) -> range:
        """The ids of one rank.  The program reads :meth:`first_of_rank`;
        this stays only for ``perfbench/job.py`` until ROADMAP item 1."""
        return range(self.first_of_rank(rank), self.first_of_rank(rank + 1))

    def first_of_rank(self, rank: int) -> int:
        """The least id of rank at least ``rank``; ids of rank r are
        ``range(first_of_rank(r), first_of_rank(r + 1))``."""
        return self.starts[bisect_left(self._block_ranks, rank)]

    def _id_in_block(self, b: int, rep: Perm) -> int | None:
        reps = self.blocks[b][1]
        j = bisect_left(reps, rep)
        return self.starts[b] + j if j < len(reps) and reps[j] == rep else None

    def block_at(self, i: int) -> int:
        """The block that holds id ``i``; ValueError unless ``0 <= i < len(self)``."""
        if not 0 <= i < len(self):
            raise ValueError(f"face id {i} out of range 0..{len(self) - 1}")
        return bisect_right(self.starts, i) - 1

    @cached_property
    def ranks(self) -> list[int]:
        """The rank of every id."""
        return [len(edges) for edges, reps in self.blocks for _ in reps]

    @cached_property
    def _ids(self) -> list[int]:
        return list(range(len(self)))

    @cached_property
    def down(self) -> list[list[int]]:
        down: list[list[int]] = [[] for _ in range(len(self))]
        # Blocks come in id order, so each list ends up sorted; one int object per id, as in up.
        for (edges, reps), start in zip(self.blocks, self.starts):
            ids = self._ids[start:start + len(reps)]
            for e in range(self.rank):
                if e in edges:
                    continue
                larger = edges | {e}
                b = self._block_of.get(larger)
                if b is None:
                    continue
                part = components(self.graph, larger)
                for i, rep in zip(ids, reps):
                    j = self._id_in_block(b, canonical_rep(part, rep))
                    if j is not None:
                        down[j].append(i)
        return down

    def covers(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """``up`` and ``down`` as id-keyed dicts of id tuples.  The program
        reads :attr:`up` and :attr:`down`; this stays only for
        ``perfbench/job.py`` and its tracer until ROADMAP item 1."""
        return tuple({i: tuple(ids) for i, ids in enumerate(lists)} for lists in (self.up, self.down))


def face_id(polytope: Graphicahedron, i: int) -> str:
    """Stable 1-based label of the face with id ``i``, e.g. ``K{1,3}:a(2,1,3)``."""
    b = polytope.block_at(i)
    edges, reps = polytope.blocks[b]
    labels = ",".join(str(e + 1) for e in sorted(edges))
    images = ",".join(str(v + 1) for v in reps[i - polytope.starts[b]])
    return f"K{{{labels}}}:a({images})"


def check_buildable(graph: SimpleGraph, max_perms: int = DEFAULT_MAX_PERMS) -> None:
    """The checks :func:`build` makes before enumerating any face: raise
    :class:`CapacityError` when ``p!`` exceeds ``max_perms``, then
    :class:`DisconnectedGraphError` for a disconnected graph."""
    check_perm_capacity(graph.p, max_perms)
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "the graphicahedron is only defined for connected graphs"
        )


def check_walkable(graph: SimpleGraph, max_perms: int) -> None:
    """:func:`check_buildable`, then :class:`CapacityError` when the vertex figures'
    p!·2^q faces, which verify and analyze walk, exceed ``FIGURE_FACES_PER_PERM * max_perms``."""
    check_buildable(graph, max_perms)
    if math.factorial(graph.p) << graph.q > FIGURE_FACES_PER_PERM * max_perms:
        faces = f"{graph.p}! * 2^{graph.q} vertex-figure faces"
        raise CapacityError(f"{faces} exceed the cap of {FIGURE_FACES_PER_PERM} * {max_perms}")


def faces_of_rank(graph: SimpleGraph, rank: int) -> Iterator[Block]:
    """The blocks of one rank, by sorted edge subset, each made when
    the iterator reaches it, so a caller that counts faces holds one block
    at a time.

    The faces with first component K are the cosets of K's Young subgroup,
    so a block is K with :func:`coset_reps` of its components: sorted, and
    elements of the shared lex table.  Subsets come in lexicographic order.
    """
    return (
        (frozenset(combo), coset_reps(components(graph, combo)))
        for combo in itertools.combinations(range(graph.q), rank)
    )


def build(graph: SimpleGraph, max_perms: int = DEFAULT_MAX_PERMS) -> Graphicahedron:
    """Enumerate all faces of the graphicahedron of a connected graph, rank by
    rank through :func:`faces_of_rank`, after :func:`check_buildable`."""
    check_buildable(graph, max_perms)
    return Graphicahedron(
        graph, itertools.chain.from_iterable(faces_of_rank(graph, r) for r in range(graph.q + 1))
    )


def face_count(graph: SimpleGraph, rank: int) -> int:
    """Closed-form face count at a rank: sum over K of p! / |Young subgroup of K|."""
    if not (0 <= rank <= graph.q):
        raise ValueError(f"rank {rank} out of range 0..{graph.q}")
    n = math.factorial(graph.p)
    return sum(
        n // coset_size(components(graph, combo))
        for combo in itertools.combinations(range(graph.q), rank)
    )


def drop_face(polytope: Graphicahedron, i: int) -> Graphicahedron:
    """A copy of the store without the face of id ``i``: stores with faces
    dropped are the negative controls of the axiom verifiers, which read
    only the poset.  ValueError unless ``0 <= i < len(polytope)``."""
    b = polytope.block_at(i)
    j = i - polytope.starts[b]
    return Graphicahedron(polytope.graph, (
        (edges, reps[:j] + reps[j + 1:]) if c == b else (edges, reps)
        for c, (edges, reps) in enumerate(polytope.blocks)
    ))


# ---------------------------------------------------------------------------
# Flags: counted in closed form, never built, so nothing caps their number


def flag_count(polytope: Graphicahedron) -> int:
    return math.factorial(polytope.graph.p) * math.factorial(polytope.graph.q)


# ---------------------------------------------------------------------------
# Axiom verifiers


class VerifyReport(NamedTuple):
    passed: bool
    checked: int
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def verify_diamond(polytope: Graphicahedron) -> VerifyReport:
    """Count, for every incident pair two ranks apart, the faces strictly between.

    The least face is treated as below every vertex, so rank-1 faces must
    have exactly two vertices below them; at the other end every rank-(q-2)
    face must lie below exactly two facets.  The pairs are found by walking
    two steps down the covers of each upper face, lower faces in id order.
    """
    q = polytope.rank
    down = polytope.down
    checked = 0
    for i in range(q):
        for high in range(polytope.first_of_rank(i + 1), polytope.first_of_rank(i + 2)):
            mids = down[high]
            if i == 0:
                counts = [(None, len(mids))]
            else:
                between: dict[int, int] = {}
                for m in mids:
                    for low in down[m]:
                        between[low] = between.get(low, 0) + 1
                counts = sorted(between.items())
            for low, count in counts:
                checked += 1
                if count != 2:
                    low_id = face_id(polytope, low) if low is not None else "least face"
                    return VerifyReport(
                        False,
                        checked,
                        f"{count} faces between {low_id} and {face_id(polytope, high)}, expected 2",
                    )
    return VerifyReport(True, checked)


def _linked(coatoms: list[int], below: dict[int, list[int]]) -> bool:
    """Whether a face's ``coatoms`` form a single class, two coatoms
    meeting when the id lists they cover, ``below``, share an id.  Each
    pass joins the coatoms that meet the class so far."""
    joined, rest = set(below[coatoms[0]]), coatoms
    while True:
        left = []
        for c in rest:
            if joined.isdisjoint(below[c]):
                left.append(c)
        if not left or len(left) == len(rest):
            return not left
        joined.update(*(below[c] for c in rest if c not in left))
        rest = left


def _walk_sections(atoms: Iterable[int], up: list[list[int]]) -> tuple[int, int | None]:
    """The sections above one bottom, given ``atoms``, the faces that
    cover it: the vertices for the least face, ``up[F]`` for a face F.

    Walks up from the atoms rank by rank in id order, keeping for the faces
    of the last two ranks the ids each covers one rank down; a face G three
    or more ranks above the bottom closes a section, connected when G's
    coatoms link through those lists (:func:`_linked`).  Returns the number
    of such faces up to and including the first disconnected one, and that
    face (or None).
    """
    level, below, depth, tops = atoms, {}, 1, 0
    while level:
        covers: dict[int, list[int]] = {}
        for x in level:
            for y in up[x]:
                coatoms = covers.get(y)
                if coatoms is None:
                    covers[y] = [x]
                else:
                    coatoms.append(x)
        level = sorted(covers)
        depth += 1
        if depth >= 3:
            for g in level:
                tops += 1
                if not _linked(covers[g], below):
                    return tops, g
        below = covers
    return tops, None


def verify_strong_flag_connectedness(polytope: Graphicahedron) -> VerifyReport:
    """Strong flag-connectedness, checked section by section on the covers.

    A poset is strongly flag-connected when the flag graph of each section
    is connected (McMullen and Schulte, *Abstract Regular Polytopes* 2B,
    show this equivalent to strong connectedness, a property of sections
    alone); sections of rank below two always are.  So no flag is built:
    the sections [F, G] with G three or more ranks above F are checked in
    order, F the least face and then each face below rank q-2 in id order,
    G in id order, by one walk up the covers from the faces covering F
    (:func:`_walk_sections`).  Once every smaller section [F, C] has
    passed, the flags of [F, G] form one class per coatom C, and two
    classes meet exactly when their coatoms share a face of the section one
    rank down (:func:`_linked`).  ``checked`` counts the sections walked,
    up to the first disconnected one, the witness.  Then a face not reached
    upward from a vertex, or not below a face of rank q, lies on no flag,
    and fails.

    A disconnected full flag graph shows as a failing section, at the
    latest [least face, greatest face].  The report agrees with a search
    of the whole flag graph on every one- or two-face removal the tests
    try, and differs from it on some removals of three or more faces.
    """
    up, down, ranks = polytope.up, polytope.down, polytope.ranks

    def failure(bottom: str, top: int) -> str:
        return f"section [{bottom}, {face_id(polytope, top)}] has a disconnected flag graph"

    checked, top = _walk_sections(range(polytope.first_of_rank(1)), up)
    if top is not None:
        return VerifyReport(False, checked, failure("least face", top))
    for bottom in range(polytope.first_of_rank(polytope.rank - 2)):
        tops, top = _walk_sections(up[bottom], up)
        checked += tops
        if top is not None:
            return VerifyReport(False, checked, failure(face_id(polytope, bottom), top))
    reached = bytearray(len(ranks))  # the up-closure of the vertices
    below_top = bytearray(len(ranks))  # the down-closure of the faces of rank q
    for i in range(len(ranks)):
        reached[i] = not ranks[i] or any(map(reached.__getitem__, down[i]))
    for i in reversed(range(len(ranks))):
        below_top[i] = ranks[i] == polytope.rank or any(map(below_top.__getitem__, up[i]))
    for i in range(len(ranks)):
        if not (reached[i] and below_top[i]):
            return VerifyReport(False, checked, f"{face_id(polytope, i)} lies on no flag")
    return VerifyReport(True, checked)


def vertex_figure_is_simplex(polytope: Graphicahedron, v: int) -> bool:
    """Whether the faces above the vertex of id ``v`` form the Boolean
    lattice on its q edges (:meth:`RankedPoset.is_simple_at`), the check
    that the frame route of the automorphism count makes at every vertex.
    The program reads :attr:`RankedPoset.is_simple`; this stays only for
    ``perfbench/job.py``, which traces it by name, until ROADMAP item 1."""
    if not 0 <= v < polytope.first_of_rank(1):
        raise ValueError("vertex figures are computed at rank-0 faces")
    return polytope.is_simple_at(v)


# ---------------------------------------------------------------------------
# Skeleta and derived posets


class Skeleton(Graphicahedron):
    """The store of the proper faces of rank at most k, with the induced
    incidence.  :meth:`vertex_edges` reads a full store: all p! vertices
    in lex order, so a vertex's id is its lex rank, and no rank-1 block
    (k = 0) or all q of them, as :func:`build_skeleton` makes."""

    def vertex_edges(self) -> SortedEdges:
        """The 1-skeleton as sorted (vertex id, vertex id, color) triples,
        one per rank-1 face, read one window of vertices at a time.

        The rank-1 face ({e}, c) is the coset {c, t_e c} of the edge's
        transposition t_e, with c the lesser: a lower end of color e's
        matching in :class:`CayleyGraph`, a lex rank u with
        ``neighbor[e][u] > u``.  So each rank-1 block must be exactly those
        lower ends, checked in one comparison per block, and the edges are
        then the Cayley graph's own.  Raises ValueError naming the first
        block that breaks the full-store contract.
        """
        cayley = CayleyGraph(self.graph)
        perms, n = cayley.perms, cayley.n_vertices
        if self.vertex_reps != perms:
            raise ValueError(f"block K{{}} is not the {n} vertices in lex order")
        if self.first_of_rank(1) == self.first_of_rank(2):
            return SortedEdges(n, ())
        for e, table in enumerate(cayley.neighbor):
            b = self._block_of.get(frozenset((e,)))
            if b is None or self.blocks[b][1] != tuple(itertools.compress(perms, map(gt, table, range(n)))):
                raise ValueError(f"block K{{{e + 1}}} is not the lower ends of color {e + 1}'s Cayley matching")
        return cayley.edges()


def build_skeleton(graph: SimpleGraph, k: int, max_perms: int = DEFAULT_MAX_PERMS) -> Skeleton:
    """The faces of rank at most ``k`` of :func:`build`, without enumerating
    the ranks above ``k``: after :func:`check_buildable`, raises ValueError
    unless ``0 <= k <= q - 1``."""
    check_buildable(graph, max_perms)
    if not graph.q:
        raise ValueError("a graph without edges has no proper skeleton")
    if not (0 <= k <= graph.q - 1):
        raise ValueError(f"skeleton rank {k} out of range 0..{graph.q - 1}")
    return Skeleton(
        graph, itertools.chain.from_iterable(faces_of_rank(graph, r) for r in range(k + 1))
    )


def one_skeleton_equals_cayley(polytope: Graphicahedron, cayley: CayleyGraph) -> bool:
    """Whether the 1-skeleton, read off the store's own covers, is the
    Cayley graph, vertex ids and colors included: p and q match, the stored
    vertex reps are ``cayley.perms`` in order, each rank-1 face covers two
    vertices, and the (u, v, color) triples of the rank-1 faces' ``down``
    lists, which come from the coset rule, sorted, are the Cayley edge
    list."""
    graph = polytope.graph
    if graph.p != cayley.p or graph.q != cayley.n_colors or polytope.vertex_reps != cayley.perms:
        return False
    ones = Graphicahedron(graph, (b for b in polytope.blocks if len(b[0]) <= 1))
    down, edges = ones.down, []
    for (colors, reps), start in zip(ones.blocks, ones.starts):
        if colors:
            (e,) = colors
            for i in range(start, start + len(reps)):
                if len(down[i]) != 2:
                    return False
                edges.append((*down[i], e))
    return sorted(edges) == list(cayley.edges())
