"""The graphicahedron: a rank-q abstract polytope built from a connected graph.

A face is a pair (K, c): a subset K of edge indices together with the
lexicographically least member c of a right coset of the Young subgroup
fixed by the connected components of the spanning subgraph K.  Rank is |K|,
so the empty set contributes the p! vertices and the full edge set the
single greatest face.  A face of rank i below a face of rank j >= i is one
whose edge set is contained in the other's and whose coset lies inside the
other's coset.

The store holds one block per edge subset K: K with its sorted coset
representatives.  Blocks come in ``face_sort_key`` order, so the faces are
integer ids in that order, each block owning a contiguous id range, and a
face's id is found by bisecting its block.  :class:`Face` objects are made
only at the API edge (``faces``, ``face_at``, ``covers``, witnesses).

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

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .cayley import CayleyGraph
from .errors import CapacityError, DisconnectedGraphError
from .graphs import SimpleGraph, components, is_connected
from .perms import (
    DEFAULT_MAX_PERMS,
    Perm,
    VertexPartition,
    canonical_rep,
    check_perm_capacity,
    compose,
    coset_reps,
    coset_size,
    same_coset,
    transposition_of_edge,
)
from .posets import RankedPoset

FIGURE_FACES_PER_PERM = 512  # vertex-figure faces per allowed permutation; at 720: p <= 5, or p = 6, q <= 9

# An edge subset K with the sorted canonical representatives of its faces.
Block = tuple[frozenset[int], tuple[Perm, ...]]


@dataclass(frozen=True)
class Face:
    """A proper face: edge subset plus canonical coset representative."""

    edges: frozenset[int]
    rep: Perm

    @property
    def rank(self) -> int:
        return len(self.edges)


def face_sort_key(face: Face):
    return (len(face.edges), tuple(sorted(face.edges)), face.rep)


def face_id(face: Face) -> str:
    """Stable 1-based identifier, e.g. ``K{1,3}:a(2,1,3)``."""
    edges = ",".join(str(e + 1) for e in sorted(face.edges))
    images = ",".join(str(v + 1) for v in face.rep)
    return f"K{{{edges}}}:a({images})"


class Graphicahedron(RankedPoset):
    """The face poset as a :class:`RankedPoset` over ``blocks``, which must
    come in ``face_sort_key`` order (empty ones are dropped).  Block b holds
    the ids ``starts[b]`` up to ``starts[b + 1]``; ``up[i]`` and ``down[i]``
    are the ids covering and covered by id i, in increasing order, from the
    coset rule.  ``rank`` is q whatever ranks are stored."""

    def __init__(self, graph: SimpleGraph, blocks: Iterable[Block]):
        self.graph = graph
        self.blocks: tuple[Block, ...] = tuple((edges, reps) for edges, reps in blocks if reps)
        self.starts = list(itertools.accumulate((len(reps) for _, reps in self.blocks), initial=0))
        self._block_of = {edges: b for b, (edges, _) in enumerate(self.blocks)}
        self._block_ranks = [len(edges) for edges, _ in self.blocks]
        self._partitions: dict[frozenset[int], VertexPartition] = {}

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

    def faces(self, rank: int) -> tuple[Face, ...]:
        return tuple(map(self.face_at, range(self.first_of_rank(rank), self.first_of_rank(rank + 1))))

    def all_faces(self) -> Iterator[Face]:
        return map(self.face_at, range(len(self)))

    @property
    def greatest_face(self) -> Face:
        top = self.faces(self.rank)
        if len(top) != 1:
            raise ValueError(f"no greatest face: {len(top)} faces of rank {self.rank} are stored")
        return top[0]

    def partition_of(self, edges: frozenset[int]) -> VertexPartition:
        part = self._partitions.get(edges)
        if part is None:
            part = components(self.graph, edges)
            self._partitions[edges] = part
        return part

    def is_incident(self, below: Face, above: Face) -> bool:
        """The partial order: edge sets nest and the small coset lies in the large one."""
        return below.edges <= above.edges and same_coset(
            self.partition_of(above.edges), below.rep, above.rep
        )

    def first_of_rank(self, rank: int) -> int:
        """The least id of rank at least ``rank``; ids of rank r are
        ``range(first_of_rank(r), first_of_rank(r + 1))``."""
        return self.starts[bisect_left(self._block_ranks, rank)]

    def _id_in_block(self, b: int, rep: Perm) -> int | None:
        reps = self.blocks[b][1]
        j = bisect_left(reps, rep)
        return self.starts[b] + j if j < len(reps) and reps[j] == rep else None

    def id_of(self, face: Face) -> int | None:
        b = self._block_of.get(face.edges)
        return None if b is None else self._id_in_block(b, face.rep)

    def face_at(self, i: int) -> Face:
        b = bisect_right(self.starts, i) - 1
        edges, reps = self.blocks[b]
        return Face(edges, reps[i - self.starts[b]])

    @cached_property
    def ranks(self) -> list[int]:
        """The rank of every id."""
        return [len(edges) for edges, reps in self.blocks for _ in reps]

    @cached_property
    def down(self) -> list[list[int]]:
        down: list[list[int]] = [[] for _ in range(len(self))]
        # Blocks come in id order, so each list ends up sorted.
        for (edges, reps), start in zip(self.blocks, self.starts):
            for e in range(self.rank):
                if e in edges:
                    continue
                larger = edges | {e}
                b = self._block_of.get(larger)
                if b is None:
                    continue
                part = self.partition_of(larger)
                for i, rep in enumerate(reps, start):
                    j = self._id_in_block(b, canonical_rep(part, rep))
                    if j is not None:
                        down[j].append(i)
        return down

    def covers(self) -> tuple[dict[Face, tuple[Face, ...]], dict[Face, tuple[Face, ...]]]:
        """``up`` and ``down`` as Face-keyed dicts, in ``all_faces()`` order."""
        faces = tuple(self.all_faces())
        return tuple(
            {f: tuple(faces[j] for j in ids[i]) for i, f in enumerate(faces)}
            for ids in (self.up, self.down)
        )


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
    """The blocks of one rank, in ``face_sort_key`` order, each made when
    the iterator reaches it, so a caller that counts faces holds one block
    at a time.

    For each edge subset K the faces with first component K are exactly the
    cosets of its Young subgroup, so they come straight from the component
    partition's coset representatives rather than from deduplicating all p!
    pairs.  The subsets come from ``itertools.combinations`` in lexicographic
    order and :func:`coset_reps` is sorted, so no re-sort is needed.
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


def drop_face(polytope: Graphicahedron, face: Face) -> Graphicahedron:
    """A copy of the store without ``face``: stores with faces dropped are
    the negative controls of the axiom verifiers, which read only the poset."""
    return Graphicahedron(polytope.graph, (
        (edges, tuple(r for r in reps if r != face.rep) if edges == face.edges else reps)
        for edges, reps in polytope.blocks
    ))


# ---------------------------------------------------------------------------
# Flags


def flag_count(polytope: Graphicahedron) -> int:
    return math.factorial(polytope.graph.p) * math.factorial(polytope.graph.q)


def check_flag_capacity(graph: SimpleGraph, max_flags: int) -> None:
    """Raise :class:`CapacityError` when the p!q! flags exceed ``max_flags``."""
    n = math.factorial(graph.p) * math.factorial(graph.q)
    if n > max_flags:
        try:
            count = str(n)
        except ValueError:  # more digits than int-to-str conversion allows
            count = f"{graph.p}! * {graph.q}!"
        raise CapacityError(f"{count} flags exceed the cap of {max_flags}")


# ---------------------------------------------------------------------------
# Axiom verifiers


@dataclass(frozen=True)
class VerifyReport:
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
                    low_id = face_id(polytope.face_at(low)) if low is not None else "least face"
                    return VerifyReport(
                        False,
                        checked,
                        f"{count} faces between {low_id} and {face_id(polytope.face_at(high))}, expected 2",
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
        return f"section [{bottom}, {face_id(polytope.face_at(top))}] has a disconnected flag graph"

    checked, top = _walk_sections(range(polytope.first_of_rank(1)), up)
    if top is not None:
        return VerifyReport(False, checked, failure("least face", top))
    for bottom in range(polytope.first_of_rank(polytope.rank - 2)):
        tops, top = _walk_sections(up[bottom], up)
        checked += tops
        if top is not None:
            return VerifyReport(False, checked, failure(face_id(polytope.face_at(bottom)), top))
    reached = bytearray(len(ranks))  # the up-closure of the vertices
    below_top = bytearray(len(ranks))  # the down-closure of the faces of rank q
    for i in range(len(ranks)):
        reached[i] = not ranks[i] or any(map(reached.__getitem__, down[i]))
    for i in reversed(range(len(ranks))):
        below_top[i] = ranks[i] == polytope.rank or any(map(below_top.__getitem__, up[i]))
    for i in range(len(ranks)):
        if not (reached[i] and below_top[i]):
            return VerifyReport(False, checked, f"{face_id(polytope.face_at(i))} lies on no flag")
    return VerifyReport(True, checked)


def vertex_figure_is_simplex(polytope: Graphicahedron, v: Face) -> bool:
    """Whether the faces above a vertex form the Boolean lattice on its q
    edges (:meth:`RankedPoset.is_simple_at`), the check that the frame
    route of the automorphism count makes at every vertex.  The program
    reads :attr:`RankedPoset.is_simple`; this stays only for
    ``perfbench/job.py``, which traces it by name, until ROADMAP item 1."""
    if v.rank != 0:
        raise ValueError("vertex figures are computed at rank-0 faces")
    start = polytope.id_of(v)
    return start is not None and polytope.is_simple_at(start)


# ---------------------------------------------------------------------------
# Skeleta and derived posets


class Skeleton(Graphicahedron):
    """The store of the proper faces of rank at most k, with the induced
    incidence; its vertex ids number the vertices of its 1-skeleton."""

    def vertex_edges(self) -> Iterator[tuple[int, int, int]]:
        """The 1-skeleton as sorted (vertex id, vertex id, color) triples,
        one per rank-1 face, yielded lazily.

        The rank-1 face ({e}, c) is the coset {c, t_e c} of the edge's
        transposition t_e, and its canonical rep c is the lesser of the two,
        so its two vertex ids, looked up among the rank-0 block's reps, come
        in order.  In a store holding all p! vertices a vertex id is the
        lexicographic rank of its permutation, which is its
        :class:`CayleyGraph` index.  A vertex id is a position among the
        sorted vertex reps and each block's reps are sorted, so every
        rank-1 block yields its triples sorted by first id, and
        ``heapq.merge`` of the blocks is the sorted list.  Raises ValueError,
        when iteration reaches it, naming a rank-1 face whose vertex is not
        stored.
        """
        taus = [transposition_of_edge(self.graph.p, edge) for edge in self.graph.edges]
        vertex_id = {a: i for i, a in enumerate(self.vertex_reps)}

        def block_edges(edges: frozenset[int], reps: tuple[Perm, ...]) -> Iterator[tuple[int, int, int]]:
            (e,) = edges
            for c in reps:
                u, v = vertex_id.get(c), vertex_id.get(compose(taus[e], c))
                if u is None or v is None:
                    raise ValueError(f"{face_id(Face(edges, c))} has a vertex that is not stored")
                yield (u, v, e)

        return heapq.merge(*(block_edges(edges, reps) for edges, reps in self.blocks if len(edges) == 1))


def _check_skeleton_rank(graph: SimpleGraph, k: int) -> None:
    if not (0 <= k <= graph.q - 1):
        raise ValueError(f"skeleton rank {k} out of range 0..{graph.q - 1}")


def skeleton(polytope: Graphicahedron, k: int) -> Skeleton:
    _check_skeleton_rank(polytope.graph, k)
    return Skeleton(polytope.graph, (b for b in polytope.blocks if len(b[0]) <= k))


def build_skeleton(graph: SimpleGraph, k: int, max_perms: int = DEFAULT_MAX_PERMS) -> Skeleton:
    """``skeleton(build(graph), k)`` without enumerating the ranks above ``k``.

    The checks come in the same order: :func:`check_buildable`, then the
    range of ``k`` (ValueError).
    """
    check_buildable(graph, max_perms)
    _check_skeleton_rank(graph, k)
    return Skeleton(
        graph, itertools.chain.from_iterable(faces_of_rank(graph, r) for r in range(k + 1))
    )


def one_skeleton_equals_cayley(polytope: Graphicahedron, cayley: CayleyGraph) -> bool:
    """Whether the 1-skeleton is the Cayley graph, vertex ids and colors
    included: p and q match, the stored vertex reps are ``cayley.perms`` in
    order, and :meth:`Skeleton.vertex_edges` of the ranks up to 1 is the
    Cayley edge list, both sorted."""
    graph = polytope.graph
    if graph.p != cayley.p or graph.q != cayley.n_colors:
        return False
    ones = Skeleton(graph, (b for b in polytope.blocks if len(b[0]) <= 1))
    return ones.vertex_reps == cayley.perms and tuple(ones.vertex_edges()) == tuple(cayley.edges())

