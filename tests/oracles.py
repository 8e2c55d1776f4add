"""Independent brute-force oracles used across the test suite.

Everything here recomputes expected values from first principles (full
enumeration, no shared code paths with the library's fast routes), so a
test that compares against these is a genuine cross-check.

The first section is the tuple route: the library names a face by its
integer id alone, and :class:`Face` is the same face as the pair (edge
set, canonical representative) read off the store's blocks, with
incidence decided by coset containment (:func:`is_incident`) and the two
constructed actions on it (:func:`apply_right`, :func:`apply_graph_aut`).

The last section holds checks that only the tests run: coset containment
against the stored face order (:func:`tree_order_equals_coset_inclusion`,
with :func:`refines` and :func:`coset_le`) and the 2-face type
cross-checked against its vertex count (:func:`classify_2face`), and the
k-skeleton of a whole store by filtering its blocks (:func:`skeleton`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from graphicahedron import (
    GraphAutomorphism,
    Graphicahedron,
    Perm,
    RankedPoset,
    SimpleGraph,
    VertexPartition,
    build,
    canonical_rep,
    classify_by_construction,
    components,
    make_graph,
    transposition_of_edge,
)
from graphicahedron.errors import InternalInconsistencyError
from graphicahedron.polytope import Skeleton, VerifyReport


# ---------------------------------------------------------------------------
# The tuple route


def compose(a: Perm, b: Perm) -> Perm:
    """Compose two permutations, applying ``b`` first: ``compose(a, b)(x) == a(b(x))``.

    >>> compose((1, 0, 2), (0, 2, 1))
    (1, 2, 0)
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: cannot compose permutations on {len(a)} and {len(b)} points")
    return tuple(a[x] for x in b)


def conjugate(a: Perm, k: Perm) -> Perm:
    """Return ``k·a·k⁻¹``, i.e. ``a`` with its points relabeled through ``k``."""
    if len(a) != len(k):
        raise ValueError(f"size mismatch: cannot conjugate on {len(a)} by {len(k)} points")
    out = [0] * len(a)
    for x, ax in enumerate(a):
        out[k[x]] = k[ax]
    return tuple(out)


def same_coset(part: VertexPartition, a: Perm, b: Perm) -> bool:
    """Whether ``a`` and ``b`` span the same right coset of the Young subgroup."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    block_of = part.block_of
    return all(block_of[a[y]] == block_of[b[y]] for y in range(len(a)))


@dataclass(frozen=True)
class Face:
    """A proper face: edge subset plus canonical coset representative."""

    edges: frozenset[int]
    rep: Perm

    @property
    def rank(self) -> int:
        return len(self.edges)


def face_sort_key(face: Face):
    """The store's id order: by rank, then by sorted edge set, then by representative."""
    return (len(face.edges), tuple(sorted(face.edges)), face.rep)


def face(polytope, edges: Iterable[int], a: Perm) -> Face:
    """The face of ``polytope`` with the given edge set containing the permutation ``a``."""
    key = frozenset(edges)
    return Face(key, canonical_rep(components(polytope.graph, key), a))


def vertex(a: Perm) -> Face:
    return Face(frozenset(), a)


def label(face: Face) -> str:
    """The 1-based label the library's witnesses print, e.g. ``K{1,3}:a(2,1,3)``."""
    edges = ",".join(str(e + 1) for e in sorted(face.edges))
    images = ",".join(str(v + 1) for v in face.rep)
    return f"K{{{edges}}}:a({images})"


def all_faces(polytope: Graphicahedron) -> list[Face]:
    """Every stored face, in id order: face ``i`` is the one with id i."""
    return [Face(edges, rep) for edges, reps in polytope.blocks for rep in reps]


def face_at(polytope: Graphicahedron, i: int) -> Face:
    """The face with id ``i``; IndexError unless ``0 <= i < len(polytope)``."""
    if not 0 <= i < len(polytope):
        raise IndexError(f"face id {i} out of range")
    return all_faces(polytope)[i]


def rank_faces(polytope: Graphicahedron, rank: int) -> list[Face]:
    """The stored faces of one rank, in id order."""
    return [f for f in all_faces(polytope) if f.rank == rank]


def id_of(polytope: Graphicahedron, face: Face) -> int | None:
    """The id of ``face`` in the store, or None when it is not stored."""
    for i, f in enumerate(all_faces(polytope)):
        if f == face:
            return i
    return None


def greatest_face(polytope: Graphicahedron) -> Face:
    top = rank_faces(polytope, polytope.rank)
    if len(top) != 1:
        raise ValueError(f"no greatest face: {len(top)} faces of rank {polytope.rank} are stored")
    return top[0]


def is_incident(polytope: Graphicahedron, below: Face, above: Face) -> bool:
    """The partial order: edge sets nest and the small coset lies in the large one."""
    return below.edges <= above.edges and same_coset(components(polytope.graph, above.edges), below.rep, above.rep)


def apply_right(polytope: Graphicahedron, gamma: Perm, face: Face) -> Face:
    """Right multiplication on the coset representative; the edge set is untouched.

    (Left multiplication would not preserve incidence, so it is not offered.)
    """
    part = components(polytope.graph, face.edges)
    return Face(face.edges, canonical_rep(part, compose(face.rep, gamma)))


def apply_graph_aut(polytope: Graphicahedron, kappa: GraphAutomorphism, face: Face) -> Face:
    """Push a face through a graph symmetry: map the edge set, conjugate the representative."""
    edges = frozenset(kappa.edge_map[e] for e in face.edges)
    part = components(polytope.graph, edges)
    return Face(edges, canonical_rep(part, conjugate(face.rep, kappa.vertex_map)))


def young_subgroup(part: VertexPartition) -> list[tuple[int, ...]]:
    """All permutations preserving every block setwise, by filtering S_p."""
    p = part.p
    return [
        t
        for t in itertools.permutations(range(p))
        if all(part.block_of[t[x]] == part.block_of[x] for x in range(p))
    ]


def brute_coset(part: VertexPartition, a: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The right coset H·a, materialized member by member."""
    return {compose(t, a) for t in young_subgroup(part)}


def component_of(graph: SimpleGraph, edge_subset: Iterable[int], a: Perm) -> tuple[Perm, ...]:
    """Connected component of ``a`` in the Cayley graph restricted to the given colors.

    This is exactly the right coset of the subgroup generated by the chosen
    edge transpositions, returned sorted.
    """
    if len(a) != graph.p:
        raise ValueError(f"size mismatch: permutation on {len(a)} points, graph has {graph.p}")
    taus = [transposition_of_edge(graph.p, graph.edges[e]) for e in edge_subset]
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for b in frontier:
            for tau in taus:
                c = compose(tau, b)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen))


def all_set_partitions(p: int) -> list[VertexPartition]:
    """Every partition of {0..p-1}, by assigning each point to a block."""
    results = []

    def rec(point: int, blocks: list[list[int]]):
        if point == p:
            results.append(VertexPartition.from_blocks([list(b) for b in blocks]))
            return
        for b in blocks:
            b.append(point)
            rec(point + 1, blocks)
            b.pop()
        blocks.append([point])
        rec(point + 1, blocks)
        blocks.pop()

    rec(0, [])
    return results


def graphs_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Graph isomorphism by exhausting vertex bijections (tiny graphs only)."""
    if a.p != b.p or a.q != b.q:
        return False
    b_edges = {tuple(sorted(e)) for e in b.edges}
    for sigma in itertools.permutations(range(a.p)):
        if all(tuple(sorted((sigma[i], sigma[j]))) in b_edges for i, j in a.edges):
            return True
    return False


@lru_cache(maxsize=None)
def connected_graphs_with_edges(q: int) -> list[SimpleGraph]:
    """One representative per isomorphism class of connected graphs with q edges.

    A connected graph with q edges has between q+1 vertices (a tree) and
    roughly q/2 + 1; enumerating labeled graphs on up to q+1 vertices and
    deduplicating by brute-force isomorphism covers every class.
    """
    reps: list[SimpleGraph] = []
    from graphicahedron import is_connected

    for p in range(2, q + 2):
        all_pairs = list(itertools.combinations(range(p), 2))
        for chosen in itertools.combinations(all_pairs, q):
            if len({v for e in chosen for v in e}) != p:
                continue  # isolated vertices: the same class shows up at smaller p
            g = make_graph(p, chosen)
            if not is_connected(g):
                continue
            if not any(graphs_isomorphic(g, r) for r in reps):
                reps.append(g)
    return reps


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, by the standard recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def product_poset(a: RankedPoset, b: RankedPoset) -> RankedPoset:
    """Direct product: elements are pairs, ordered componentwise, ranked
    additively, and numbered rank by rank in pair order within a rank."""
    pairs = sorted((a.ranks[x] + b.ranks[y], x, y) for x in range(len(a)) for y in range(len(b)))
    ids = {(x, y): i for i, (_, x, y) in enumerate(pairs)}
    down = [sorted([ids[x2, y] for x2 in a.down[x]] + [ids[x, y2] for y2 in b.down[y]]) for _, x, y in pairs]
    return RankedPoset([r for r, _, _ in pairs], down)


def hexagonal_toroid(b: int, c: int) -> RankedPoset:
    """The face poset of the toroidal map {6,3}_(b,c): the hexagonal tiling
    modulo the lattice L spanned by b + c·ω and its 60° rotation, with
    ω = e^{iπ/3}.

    Hexagons are the points m + n·ω of the triangular lattice modulo L, so
    there are D = b² + bc + c² of them; a point's class is keyed by its two
    coordinates in the basis of L, times D, modulo D.  Each hexagon h owns
    one up vertex (its top corner) and one down vertex (its bottom corner);
    going round h from its upper-right corner its vertices are
    d(h + ω), u(h), d(h + ω - 1), u(h - ω), d(h), u(h - ω + 1), and its
    edges join consecutive ones.  An edge is named by its two vertices,
    which needs D >= 3 (no two edges with the same ends).
    """
    D = b * b + b * c + c * c

    def key(m: int, n: int) -> tuple[int, int]:
        return ((b + c) * m + c * n) % D, (b * n - c * m) % D

    hexagons: dict[tuple[int, int], list] = {}
    for m, n in itertools.product(range(D), repeat=2):
        corners = [
            ("d", key(m, n + 1)), ("u", key(m, n)), ("d", key(m - 1, n + 1)),
            ("u", key(m, n - 1)), ("d", key(m, n)), ("u", key(m + 1, n - 1)),
        ]
        hexagons.setdefault(key(m, n), [frozenset(pair) for pair in zip(corners, corners[1:] + corners[:1])])
    vertices = sorted({v for sides in hexagons.values() for side in sides for v in side})
    edges = sorted({side for sides in hexagons.values() for side in sides}, key=sorted)
    vertex_id = {v: i for i, v in enumerate(vertices)}
    edge_id = {e: len(vertices) + i for i, e in enumerate(edges)}
    first_hexagon = len(vertices) + len(edges)
    down = (
        [[] for _ in vertices]
        + [sorted(vertex_id[v] for v in e) for e in edges]
        + [sorted(edge_id[e] for e in sides) for _, sides in sorted(hexagons.items())]
        + [list(range(first_hexagon, first_hexagon + len(hexagons)))]
    )
    ranks = [0] * len(vertices) + [1] * len(edges) + [2] * len(hexagons) + [3]
    return RankedPoset(ranks, down)


# ---------------------------------------------------------------------------
# The flag graph of a stored poset and the color-preserving propagation on
# it: the references the library's vertex-frame route is tested against.


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


def flag_aut_order(poset: RankedPoset) -> int:
    """The automorphism group's order as the orbit of flag 0 under the
    color-preserving maps of :func:`flag_graph`: a success merges every
    flag with its image in a union-find, a failure rules out the
    candidate's whole class, and the action is free.  Raises ValueError
    unless the poset is thin."""
    chains, tables = flag_graph(poset)
    n = len(chains)
    if poset.rank == 0:
        return 1
    if propagate(tables, tables, 0) is None:
        raise AssertionError("flag graph is not connected")
    parent = list(range(n))
    bad = bytearray(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for candidate in range(1, n):
        root = find(candidate)
        if bad[root] or root == find(0):
            continue
        image = propagate(tables, tables, candidate)
        if image is None:
            bad[root] = 1
            continue
        for x, y in enumerate(image):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
                bad[rx] |= bad[ry]
    base = find(0)
    return sum(find(x) == base for x in range(n))


def flag_posets_isomorphic(a: RankedPoset, b: RankedPoset) -> bool:
    """Isomorphism of thin graded posets on their flag graphs: every flag
    of ``b`` is tried as the image of a's flag 0."""
    if a.f_vector() != b.f_vector():
        return False
    if a.rank <= 0:
        return True
    _, tables_a = flag_graph(a)
    _, tables_b = flag_graph(b)
    n = len(tables_a[0])
    return n == len(tables_b[0]) and any(propagate(tables_a, tables_b, k) is not None for k in range(n))


def frames_by_filter(a: RankedPoset, b: RankedPoset, w: int) -> Iterator[tuple[int, ...]]:
    """The orderings of the edges at b's vertex ``w``, as permutations of
    positions into ``b.up[w]``, in which every pair spans a 2-face of as
    many edges as the matching pair at a's vertex 0, by filtering all of
    ``itertools.permutations`` of those positions."""

    def two_face(poset: RankedPoset, e: int, f: int) -> int:
        return next(t for t in poset.up[e] if f in poset.down[t])

    edges = b.up[w]
    want = [len(a.down[two_face(a, e, f)]) for e, f in itertools.combinations(a.up[0], 2)]
    gon = {
        (j, k): len(b.down[two_face(b, edges[j], edges[k])])
        for j, k in itertools.permutations(range(len(edges)), 2)
    }
    return (
        order for order in itertools.permutations(range(len(edges)))
        if [gon[pair] for pair in itertools.combinations(order, 2)] == want
    )


def pairwise_covers(polytope) -> tuple[dict, dict]:
    """(up, down) cover lists as id-keyed dicts of id tuples, by testing
    every face pair in adjacent ranks with the coset incidence relation."""
    faces = all_faces(polytope)
    by_rank = [[i for i, f in enumerate(faces) if f.rank == r] for r in range(polytope.rank + 1)]
    up: dict[int, list[int]] = {i: [] for i in range(len(faces))}
    down: dict[int, list[int]] = {i: [] for i in range(len(faces))}
    for lower, upper in zip(by_rank, by_rank[1:]):
        for j in upper:
            for i in lower:
                if is_incident(polytope, faces[i], faces[j]):
                    up[i].append(j)
                    down[j].append(i)
    return (
        {i: tuple(v) for i, v in up.items()},
        {i: tuple(v) for i, v in down.items()},
    )


def coset_reps_by_recursion(part: VertexPartition) -> list[tuple[int, ...]]:
    """Canonical coset representatives of the Young subgroup of ``part``, by
    labelling positions with block ids, each id once per block member; the
    k-th position labelled b gets the k-th member of block b.  The
    representatives come out in lexicographic order of the label sequences,
    not of the representatives."""
    p = part.p
    blocks = part.blocks
    counts = [len(b) for b in blocks]
    seq: list[int] = []
    reps = []

    def rec() -> None:
        if len(seq) == p:
            next_in_block = [0] * len(blocks)
            out = []
            for b in seq:
                out.append(blocks[b][next_in_block[b]])
                next_in_block[b] += 1
            reps.append(tuple(out))
            return
        for b in range(len(blocks)):
            if counts[b]:
                counts[b] -= 1
                seq.append(b)
                rec()
                seq.pop()
                counts[b] += 1

    rec()
    return reps


# ---------------------------------------------------------------------------
# The construction's flag model, and strong flag-connectedness section by
# section: the references the poset-built flag graph is tested against.


@dataclass(frozen=True)
class Flag:
    """A maximal chain, recorded as an edge ordering plus the vertex permutation.

    The rank-i face of the flag is (first i edges of ``order``, ``base``).
    """

    order: tuple[int, ...]
    base: Perm


def flags(polytope) -> Iterator[Flag]:
    """All p!q! flags of the construction, lexicographically by base
    permutation then by edge ordering."""
    q = polytope.graph.q
    for base in itertools.permutations(range(polytope.graph.p)):
        for order in itertools.permutations(range(q)):
            yield Flag(order, base)


def adjacent_flag(polytope, flag: Flag, j: int) -> Flag:
    """The unique flag differing from ``flag`` exactly in its rank-j face.

    Changing the vertex (j = 0) multiplies the base by the transposition of
    the chain's first edge; changing a middle face swaps two consecutive
    edges of the ordering.  Both moves are involutions.
    """
    q = polytope.graph.q
    if not (0 <= j <= q - 1):
        raise ValueError(f"adjacency rank {j} out of range 0..{q - 1}")
    if j == 0:
        tau = transposition_of_edge(polytope.graph.p, polytope.graph.edges[flag.order[0]])
        return Flag(flag.order, compose(tau, flag.base))
    order = list(flag.order)
    order[j - 1], order[j] = order[j], order[j - 1]
    return Flag(tuple(order), flag.base)


def construction_flag_tables(polytope) -> tuple[int, list[list[int]]]:
    """The construction's flags, indexed in :func:`flags` order, plus one
    neighbor table per adjacency rank: ``tables[j][i]`` is the index of the
    flag j-adjacent to flag ``i``.  Never reads the stored faces."""
    graph = polytope.graph
    p, q = graph.p, graph.q
    perms = tuple(itertools.permutations(range(p)))
    perm_index = {a: i for i, a in enumerate(perms)}
    orders = tuple(itertools.permutations(range(q)))
    order_index = {o: i for i, o in enumerate(orders)}
    nfact = len(orders)
    n = len(perms) * nfact

    # Left multiplication by each edge transposition, as a permutation of perm ranks.
    tau_map = [
        [perm_index[compose(transposition_of_edge(p, e), a)] for a in perms]
        for e in graph.edges
    ]
    swap_map = [
        [order_index[o[: j - 1] + (o[j], o[j - 1]) + o[j + 1:]] for o in orders]
        for j in range(1, q)
    ]

    tables: list[list[int]] = []
    for j in range(q):
        table = [0] * n
        for ai in range(len(perms)):
            base = ai * nfact
            if j == 0:
                for oi, o in enumerate(orders):
                    table[base + oi] = tau_map[o[0]][ai] * nfact + oi
            else:
                swaps = swap_map[j - 1]
                for oi in range(nfact):
                    table[base + oi] = base + swaps[oi]
        tables.append(table)
    return n, tables


def _section_chains(index, bottom, top, above_bottom) -> list[tuple]:
    """Maximal chains of the section [bottom, top], as id tuples from ``top``
    down to ``bottom`` (None for the least face).

    ``above_bottom`` is the up-set of ``bottom``; the walk down from ``top``
    stays inside it.  With the least face as bottom every walk down to a
    vertex is a chain.
    """
    down, ranks = index.down, index.ranks
    chains: list[tuple] = []
    stack = [top]

    def walk(current: int) -> None:
        if bottom is None and ranks[current] == 0:
            chains.append((*stack, None))
            return
        for g in down[current]:
            if g == bottom:
                chains.append((*stack, g))
            elif bottom is None or g in above_bottom:
                stack.append(g)
                walk(g)
                stack.pop()

    walk(top)
    return chains


def _section_connected(index, bottom, top, above_bottom, mids_between) -> bool:
    """Connectivity of the flag graph of one section, by breadth-first search
    over its maximal chains; ``mids_between`` caches the faces strictly
    between two ids and is shared across sections."""
    chains = _section_chains(index, bottom, top, above_bottom)
    if len(chains) <= 1:
        return True
    up, down = index.up, index.down
    position = {c: i for i, c in enumerate(chains)}
    inner = range(1, len(chains[0]) - 1)
    seen = bytearray(len(chains))
    seen[0] = 1
    reached = 1
    frontier = [0]
    while frontier:
        nxt = []
        for ci in frontier:
            chain = chains[ci]
            for s in inner:
                hi, mid, lo = chain[s - 1], chain[s], chain[s + 1]
                mids = mids_between.get((lo, hi))
                if mids is None:
                    mids = down[hi] if lo is None else [m for m in up[lo] if hi in up[m]]
                    mids_between[(lo, hi)] = mids
                for other in mids:
                    if other != mid:
                        ni = position[chain[:s] + (other,) + chain[s + 1:]]
                        if not seen[ni]:
                            seen[ni] = 1
                            reached += 1
                            nxt.append(ni)
        frontier = nxt
    return reached == len(chains)


def sectionwise_strong_flag_connectedness(polytope) -> VerifyReport:
    """Strong flag-connectedness as a walk of every section's own chains of
    stored faces.

    Sections of rank below two are connected for trivial reasons, so only
    pairs of incident faces at rank distance three or more are walked (with
    the implicit least face and the greatest face included as endpoints).
    The upper ends of the sections above a face come from its up-set, and
    those above the least face from the up-set of the vertices.  ``checked``
    counts the sections walked, as the verifier does.
    """
    q = polytope.rank
    ranks = polytope.ranks

    def up_set(starts):
        above, stack = set(starts), list(starts)
        while stack:
            for g in polytope.up[stack.pop()]:
                if g not in above:
                    above.add(g)
                    stack.append(g)
        return above

    def sections():
        for top in sorted(up_set(range(polytope.first_of_rank(1)))):
            if ranks[top] >= 2:
                yield None, top, None
        for low in range(polytope.first_of_rank(q - 2)):
            above = up_set([low])
            for top in sorted(above):
                if ranks[top] >= ranks[low] + 3:
                    yield low, top, above

    checked = 0
    mids_between: dict = {}
    for bottom, top, above in sections():
        checked += 1
        if not _section_connected(polytope, bottom, top, above, mids_between):
            bottom_id = label(face_at(polytope, bottom)) if bottom is not None else "least face"
            return VerifyReport(
                False,
                checked,
                f"section [{bottom_id}, {label(face_at(polytope, top))}] has a disconnected flag graph",
            )
    return VerifyReport(True, checked)


def faces_on_no_flag(polytope) -> list[int]:
    """The ids of stored faces with no chain of covers down to a vertex or
    none up to the greatest rank, found by closing over the cover lists."""
    up, down, ranks = polytope.up, polytope.down, polytope.ranks
    reaches_vertex = {}
    for i in range(len(ranks)):  # ranks ascend, so every face below is settled first
        reaches_vertex[i] = ranks[i] == 0 or any(reaches_vertex[j] for j in down[i])
    reaches_top = {}
    for i in reversed(range(len(ranks))):
        reaches_top[i] = ranks[i] == polytope.rank or any(reaches_top[j] for j in up[i])
    return [i for i in range(len(ranks)) if not (reaches_vertex[i] and reaches_top[i])]


# ---------------------------------------------------------------------------
# Checks that only the tests run


def refines(fine: VertexPartition, coarse: VertexPartition) -> bool:
    """Whether every block of ``fine`` is contained in a block of ``coarse``."""
    return all(
        len({coarse.block_of[v] for v in block}) == 1 for block in fine.blocks
    )


def coset_le(part_a: VertexPartition, a: Perm, part_b: VertexPartition, b: Perm) -> bool:
    """Containment of right cosets: the coset of (part_a, a) inside that of (part_b, b).

    Containment holds exactly when the Young subgroups nest (partition
    refinement) and ``a`` lies in the larger coset.
    """
    return refines(part_a, part_b) and same_coset(part_b, a, b)


def tree_order_equals_coset_inclusion(graph: SimpleGraph) -> tuple[bool, tuple[Face, Face] | None]:
    """Whether coset containment already implies the face order.

    Face order always implies coset containment.  The converse holds for
    trees, whose Young subgroups nest only when the edge sets do; cycles
    break it because different edge sets can generate the same subgroup.
    Returns the first counterexample pair otherwise.  Builds under the
    default permutation cap.
    """
    polytope = build(graph)
    faces = all_faces(polytope)
    parts = {K: components(polytope.graph, K) for K in {f.edges for f in faces}}
    for f in faces:
        for g in faces:
            cosets_nest = coset_le(parts[f.edges], f.rep, parts[g.edges], g.rep)
            if cosets_nest != is_incident(polytope, f, g):
                return False, (f, g)
    return True, None


def classify_2face(polytope: Graphicahedron, face: Face) -> str:
    """``"hexagon"`` when the two edges share a vertex, ``"square"`` when they
    are disjoint.

    The verdict is cross-checked against the number of vertices under the
    face (6 versus 4), counted in its down-set in the store; a mismatch would
    mean the poset is corrupt.  Raises ValueError for a face not stored.
    """
    if face.rank != 2:
        raise ValueError("classify_2face expects a rank-2 face")
    i = id_of(polytope, face)
    if i is None:
        raise ValueError(f"{label(face)} is not a face of this polytope")
    verdict = classify_by_construction(polytope.graph, face.edges)
    n_vertices = polytope.vertices_below(i)
    if n_vertices != (6 if verdict == "hexagon" else 4):
        raise InternalInconsistencyError(
            f"2-face {label(face)} classified {verdict} but has {n_vertices} vertices"
        )
    return verdict


def skeleton(polytope: Graphicahedron, k: int) -> Skeleton:
    """The faces of rank at most ``k`` of a whole store, its other blocks
    dropped: what ``build_skeleton`` makes without enumerating the ranks
    above ``k``.  Raises ValueError unless ``0 <= k <= q - 1``."""
    if not (0 <= k <= polytope.graph.q - 1):
        raise ValueError(f"skeleton rank {k} out of range 0..{polytope.graph.q - 1}")
    return Skeleton(polytope.graph, (b for b in polytope.blocks if len(b[0]) <= k))
