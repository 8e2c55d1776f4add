"""Classification of 2-faces and facets, and the facet census.

A facet's type is read off its edge subset by :func:`classify_by_construction`:
each nontrivial component of the spanning subgraph contributes a factor (a
path of length n gives the rank-n permutahedron, the triangle and the 3-star
give the two hexagonal toroids), and a facet over several components is the
product of its factors.  The census checks every facet against the poset:
the interval below it must be isomorphic to :func:`labelled_poset` of its
edge set, built from the components alone, with no permutation, coset or
stored face.  :func:`permutahedron_oracle` is a second such model, of the
permutahedron, on ordered set partitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, InternalInconsistencyError
from .graphs import SimpleGraph, components
from .polytope import Face, Graphicahedron, face_count, face_id, interval_below
from .posets import RankedPoset, posets_isomorphic


@dataclass(frozen=True)
class FaceType:
    """A recognized combinatorial type, or a certificate for an unrecognized one."""

    kind: str
    size: int | None = None
    parts: tuple["FaceType", ...] = ()
    certificate: tuple = ()

    @property
    def label(self) -> str:
        if self.kind in ("permutahedron", "cube"):
            return f"{self.kind}({self.size})"
        if self.kind == "product":
            return "product(" + " x ".join(p.label for p in self.parts) + ")"
        if self.kind == "unrecognized":
            return f"unrecognized{self.certificate}"
        return self.kind


SEGMENT = FaceType("segment")
SQUARE = FaceType("square")
HEXAGON = FaceType("hexagon")
TOROID_63_11 = FaceType("toroid_63_11")
TOROID_63_22 = FaceType("toroid_63_22")
HEXAGONAL_PRISM = FaceType("hexagonal_prism")


def permutahedron_type(n: int) -> FaceType:
    if n == 1:
        return SEGMENT
    if n == 2:
        return HEXAGON
    return FaceType("permutahedron", n)


def cube_type(k: int) -> FaceType:
    if k == 1:
        return SEGMENT
    if k == 2:
        return SQUARE
    return FaceType("cube", k)


def classify_2face(polytope: Graphicahedron, face: Face) -> FaceType:
    """Hexagon when the two edges share a vertex, square when they are disjoint.

    The verdict is cross-checked against the number of vertices under the
    face (6 versus 4), counted in its down-set in the store; a mismatch would
    mean the poset is corrupt.  Raises ValueError for a face not stored.
    """
    if face.rank != 2:
        raise ValueError("classify_2face expects a rank-2 face")
    e1, e2 = sorted(face.edges)
    endpoints = set(polytope.graph.edges[e1]) & set(polytope.graph.edges[e2])
    verdict = HEXAGON if endpoints else SQUARE
    i = polytope.id_of(face)
    if i is None:
        raise ValueError(f"{face_id(face)} is not a face of this polytope")
    n_vertices = polytope.vertices_below(i)
    if n_vertices != (6 if verdict is HEXAGON else 4):
        raise InternalInconsistencyError(
            f"2-face {face_id(face)} classified {verdict.label} but has {n_vertices} vertices"
        )
    return verdict


def _component_type(n_vertices: int, degrees: list[int]) -> FaceType:
    n_edges = sum(degrees) // 2
    if n_edges == n_vertices - 1 and max(degrees) <= 2:
        return permutahedron_type(n_edges)
    if n_vertices == 3 and n_edges == 3:
        return TOROID_63_11
    if n_vertices == 4 and n_edges == 3 and max(degrees) == 3:
        return TOROID_63_22
    return FaceType(
        "unrecognized", certificate=(n_vertices, n_edges, tuple(sorted(degrees)))
    )


def classify_by_construction(graph: SimpleGraph, edge_subset: frozenset[int]) -> FaceType:
    """Type of the face over an edge subset, read off the spanning subgraph.

    Each nontrivial component is typed by graph shape; several components
    multiply, with a segment times a hexagon normalized to the hexagonal
    prism and k segments to the k-cube.
    """
    part = components(graph, edge_subset)
    tags: list[FaceType] = []
    for block in part.blocks:
        if len(block) == 1:
            continue
        members = set(block)
        degrees = {v: 0 for v in block}
        for e in edge_subset:
            i, j = graph.edges[e]
            if i in members:
                degrees[i] += 1
                degrees[j] += 1
        tags.append(_component_type(len(block), list(degrees.values())))

    if not tags:
        return FaceType("vertex")
    if len(tags) == 1:
        return tags[0]
    if all(t == SEGMENT for t in tags):
        return cube_type(len(tags))
    if sorted(t.label for t in tags) == ["hexagon", "segment"]:
        return HEXAGONAL_PRISM
    return FaceType("product", parts=tuple(sorted(tags, key=lambda t: t.label)))


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


@dataclass(frozen=True)
class FacetCensus:
    """Multiset of facet types, with one sample facet per type."""

    entries: tuple[tuple[FaceType, int, str], ...]
    total: int

    def as_dict(self) -> dict[str, int]:
        return {t.label: count for t, count, _ in self.entries}


def facet_census(polytope: Graphicahedron) -> FacetCensus:
    """Type every facet by construction, one edge subset at a time, and
    require each facet's interval to be isomorphic to the
    :func:`labelled_poset` of its edge subset, built once per subset.
    Raises :class:`InternalInconsistencyError` naming the first facet that
    is not, or when the facets do not add up to the face count of their
    rank."""
    q = polytope.rank
    if q < 1:
        raise ValueError("the facet census needs rank at least 1")
    counts: dict[FaceType, int] = {}
    samples: dict[FaceType, str] = {}
    for edges, reps in polytope.blocks:
        if len(edges) != q - 1:
            continue
        tag = classify_by_construction(polytope.graph, edges)
        reference = labelled_poset(polytope.graph, edges)
        for facet in (Face(edges, rep) for rep in reps):
            if not posets_isomorphic(interval_below(polytope, facet), reference):
                raise InternalInconsistencyError(
                    f"facet {face_id(facet)}: interval is not isomorphic to the {tag.label} reference"
                )
        counts[tag] = counts.get(tag, 0) + len(reps)
        samples.setdefault(tag, face_id(Face(edges, reps[0])))
    entries = tuple(
        (tag, counts[tag], samples[tag])
        for tag in sorted(counts, key=lambda t: t.label)
    )
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
