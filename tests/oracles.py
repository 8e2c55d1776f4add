"""Independent brute-force oracles used across the test suite.

Everything here recomputes expected values from first principles (full
enumeration, no shared code paths with the library's fast routes), so a
test that compares against these is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from graphicahedron import SimpleGraph, VertexPartition, compose, make_graph


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


def pairwise_covers(polytope) -> tuple[dict, dict]:
    """(up, down) cover lists by testing every face pair in adjacent ranks
    with the coset incidence relation, lists in face order."""
    up = {f: [] for f in polytope.all_faces()}
    down = {f: [] for f in polytope.all_faces()}
    for r in range(polytope.rank):
        for g in polytope.faces(r + 1):
            for f in polytope.faces(r):
                if polytope.is_incident(f, g):
                    up[f].append(g)
                    down[g].append(f)
    return (
        {f: tuple(v) for f, v in up.items()},
        {f: tuple(v) for f, v in down.items()},
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
