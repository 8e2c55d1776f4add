"""Type labels of faces by construction, and the facet census.

A facet's type is a label string read off its edge subset by
:func:`classify_by_construction`: each nontrivial component of the spanning
subgraph contributes a factor (a path of length n gives the rank-n
permutahedron, the triangle and the 3-star give the two hexagonal toroids),
and a facet over several components is the product of its factors.  The
census checks every facet against the poset: the interval below it must be
isomorphic to :func:`labelled_poset` of its edge set, built from the
components alone, with no permutation, coset or stored face.
:func:`permutahedron_oracle` is a second such model, of the permutahedron,
on ordered set partitions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import CapacityError, InternalInconsistencyError
from .graphs import SimpleGraph, canonical_form, components
from .polytope import Graphicahedron, face_count, face_id
from .posets import RankedPoset, posets_isomorphic


def classify_by_construction(graph: SimpleGraph, edge_subset: frozenset[int]) -> str:
    """The type label of the face over an edge subset, read off the
    spanning subgraph.

    Each nontrivial component names a factor: a path of n edges the rank-n
    permutahedron (``segment`` and ``hexagon`` for n = 1, 2), the triangle
    ``toroid_63_11``, the 3-star ``toroid_63_22``, and any other component
    ``graph(...)`` of its :func:`graphs.canonical_form`, written 1-based as
    ``--edges`` takes it, so two components share a name exactly when they
    are isomorphic.  No factor gives ``vertex`` and one gives itself; k
    segments give ``square`` or ``cube(k)``, a segment and a hexagon
    ``hexagonal_prism``, and other factors ``product(...)`` in label order.
    """
    blocks = [block for block in components(graph, edge_subset).blocks if len(block) > 1]
    degree = Counter(v for e in edge_subset for v in graph.edges[e])
    factors = []
    for block in blocks:
        degrees = tuple(sorted(degree[v] for v in block))
        n, m = len(block), sum(degrees) // 2
        if m == n - 1 and degrees[-1] <= 2:
            factors.append({1: "segment", 2: "hexagon"}.get(m, f"permutahedron({m})"))
        else:
            toroids = {(2, 2, 2): "toroid_63_11", (1, 1, 1, 3): "toroid_63_22"}
            factors.append(toroids.get(degrees) or _graph_label(
                canonical_form(graph.edges[e] for e in edge_subset if graph.edges[e][0] in block)
            ))
    factors.sort()
    if not factors:
        return "vertex"
    if len(factors) == 1:
        return factors[0]
    if set(factors) == {"segment"}:
        return "square" if len(factors) == 2 else f"cube({len(factors)})"
    if factors == ["hexagon", "segment"]:
        return "hexagonal_prism"
    return f"product({' x '.join(factors)})"


def _graph_label(edges: Iterable[tuple[int, int]]) -> str:
    return f"graph({','.join(f'{i + 1}-{j + 1}' for i, j in edges)})"


def labelled_poset(graph: SimpleGraph, edges: Iterable[int]) -> RankedPoset:
    """The interval below the face over ``edges`` in which each component
    of ``edges`` holds its own vertex set, built from the components alone.

    A face over ``K`` within ``edges`` gives each block B of ``K``'s
    component partition a set of |B| positions inside the component of
    ``edges`` that holds B.  It is recorded as ``(K, labels)``: the
    positions are the vertices taken component by component, and each
    position's label is the least vertex of the block holding it.  It is
    covered by the face over ``K`` plus an edge e whose labels merge e's
    two blocks (the same labels when e closes a cycle in ``K``).  Ids run
    rank by rank in ``(K, labels)`` order.  Raises ValueError on a
    repeated edge index.
    """
    edges = sorted(edges)
    if len(set(edges)) != len(edges):
        raise ValueError(f"repeated edge index in {edges}")
    tops = components(graph, edges).blocks
    least_of: dict[tuple[int, ...], list[int]] = {}
    elements: list[tuple] = []
    for rank in range(len(edges) + 1):
        level = []
        for K in itertools.combinations(edges, rank):
            part = components(graph, K)
            least = least_of[K] = [part.blocks[b][0] for b in part.block_of]
            arrangements = [set(itertools.permutations([least[v] for v in top])) for top in tops]
            level += [(K, sum(choice, ())) for choice in itertools.product(*arrangements)]
        elements += sorted(level)
    ids = {element: i for i, element in enumerate(elements)}
    down: list[list[int]] = [[] for _ in elements]
    for i, (K, labels) in enumerate(elements):
        for e in sorted(set(edges) - set(K)):
            a, b = sorted(least_of[K][v] for v in graph.edges[e])
            merged = tuple(a if x == b else x for x in labels)
            down[ids[tuple(sorted(K + (e,))), merged]].append(i)
    return RankedPoset([len(K) for K, _ in elements], down)


class FacetCensus(NamedTuple):
    """Multiset of facet type labels, with one sample facet per type."""

    entries: tuple[tuple[str, int, str], ...]
    total: int

    def as_dict(self) -> dict[str, int]:
        return {tag: count for tag, count, _ in self.entries}


def facet_census(polytope: Graphicahedron) -> FacetCensus:
    """Type every facet by construction, one edge subset at a time, and
    require the :func:`labelled_poset` of its edge subset, built and
    frame-checked once per subset, to be isomorphic to each facet's interval.
    Raises :class:`InternalInconsistencyError` naming the first facet that
    is not, or when the facets do not add up to the face count of their
    rank."""
    q = polytope.rank
    if q < 1:
        raise ValueError("the facet census needs rank at least 1")
    counts: dict[str, int] = {}
    samples: dict[str, str] = {}
    for (edges, reps), start in zip(polytope.blocks, polytope.starts):
        if len(edges) != q - 1:
            continue
        tag = classify_by_construction(polytope.graph, edges)
        reference = labelled_poset(polytope.graph, edges)
        for i in range(start, start + len(reps)):
            if not posets_isomorphic(reference, polytope.interval_below(i)):
                raise InternalInconsistencyError(
                    f"facet {face_id(polytope, i)}: interval is not isomorphic to the {tag} reference"
                )
        counts[tag] = counts.get(tag, 0) + len(reps)
        if tag not in samples:
            samples[tag] = face_id(polytope, start)
    entries = tuple((tag, counts[tag], samples[tag]) for tag in sorted(counts))
    census = FacetCensus(entries, sum(counts.values()))
    if census.total != face_count(polytope.graph, q - 1):
        raise InternalInconsistencyError(
            f"census total {census.total} does not match the face count at rank {q - 1}"
        )
    return census


# ---------------------------------------------------------------------------
# Independent permutahedron model


def ordered_set_partitions(n_items: int):
    """All ordered set partitions of {0..n_items-1}, blocks as sorted tuples."""
    if n_items == 0:
        yield ()
        return
    for smaller in ordered_set_partitions(n_items - 1):
        item = n_items - 1
        for i, block in enumerate(smaller):
            yield smaller[:i] + (tuple(sorted(block + (item,))),) + smaller[i + 1:]
        for i in range(len(smaller) + 1):
            yield smaller[:i] + ((item,),) + smaller[i:]


def _splits(partition: tuple) -> list[tuple]:
    """The ordered set partitions made by splitting one block of
    ``partition`` into two ordered non-empty parts, in place."""
    return [
        partition[:i] + (first, tuple(x for x in block if x not in first)) + partition[i + 1:]
        for i, block in enumerate(partition)
        for size in range(1, len(block))
        for first in itertools.combinations(block, size)
    ]


PERMUTAHEDRON_ORACLE_MAX_N = 5


def permutahedron_oracle(n: int) -> RankedPoset:
    """The face poset of the rank-n permutahedron, built without any Cayley
    machinery: faces are ordered set partitions of n+1 items, ranked by
    items minus blocks, numbered rank by rank in sorted order; a face
    covers the partitions made by splitting one of its blocks in two.
    Raises :class:`CapacityError` above rank :data:`PERMUTAHEDRON_ORACLE_MAX_N`.
    """
    if n > PERMUTAHEDRON_ORACLE_MAX_N:
        raise CapacityError(f"permutahedron oracle capped at n={PERMUTAHEDRON_ORACLE_MAX_N}")
    elements = sorted(ordered_set_partitions(n + 1), key=lambda partition: (-len(partition), partition))
    ids = {partition: i for i, partition in enumerate(elements)}
    return RankedPoset(
        [n + 1 - len(partition) for partition in elements],
        [sorted(ids[finer] for finer in _splits(partition)) for partition in elements],
    )
