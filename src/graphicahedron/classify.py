"""Classification of 2-faces and facets, and the facet census.

Two classifiers run independently.  The *by-construction* classifier reads
the facet's edge subset: each nontrivial component of the spanning
subgraph contributes a factor (a path of length n gives the rank-n
permutahedron, the triangle and the 3-star give the two hexagonal toroids),
and a facet over several components is the product of its factors.  The
*intrinsic* classifier ignores the construction and examines the interval
below the facet: face counts, 2-face sizes and the Euler characteristic,
with the two toroids pinned down by poset isomorphism against reference
polytopes built fresh from the triangle and the 3-star.  The census
requires the two classifiers to agree on every rank-3 facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, InternalInconsistencyError
from .graphs import SimpleGraph, components, preset_graph
from .polytope import Face, Graphicahedron, build, face_count, face_id, full_poset, interval_below
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


@lru_cache(maxsize=None)
def _reference_toroid(kind: str) -> RankedPoset:
    graph = preset_graph("cycle", 3) if kind == "toroid_63_11" else preset_graph("star", 3)
    return full_poset(build(graph))


def classify_intrinsic_rank3(polytope: Graphicahedron, face: Face) -> FaceType:
    """Type a rank-3 face from its interval alone.

    The sphere-like signatures (permutahedron, hexagonal prism, cube) are
    decided by face counts, 2-face sizes and Euler characteristic 2; the
    flat signatures (Euler characteristic 0, all hexagons) are confirmed by
    poset isomorphism with the matching reference toroid.
    """
    if face.rank != 3:
        raise ValueError("classify_intrinsic_rank3 expects a rank-3 face")
    interval = interval_below(polytope, face)
    v, e, f2, _ = interval.f_vector()
    gon = sorted(interval.vertices_below(m) for m in interval.levels[2])
    euler = v - e + f2
    signature = ((v, e, f2), tuple(gon), euler)

    if signature == ((24, 36, 14), (4,) * 6 + (6,) * 8, 2):
        return permutahedron_type(3)
    if signature == ((12, 18, 8), (4,) * 6 + (6,) * 2, 2):
        return HEXAGONAL_PRISM
    if signature == ((8, 12, 6), (4,) * 6, 2):
        return cube_type(3)
    if euler == 0 and set(gon) == {6} and v in (6, 24):
        candidate = TOROID_63_11 if v == 6 else TOROID_63_22
        if posets_isomorphic(interval, _reference_toroid(candidate.kind)):
            return candidate
    return FaceType("unrecognized", certificate=signature)


@dataclass(frozen=True)
class FacetCensus:
    """Multiset of facet types, with one sample facet per type."""

    entries: tuple[tuple[FaceType, int, str], ...]
    total: int

    def as_dict(self) -> dict[str, int]:
        return {t.label: count for t, count, _ in self.entries}


def facet_census(polytope: Graphicahedron) -> FacetCensus:
    """Classify every facet; at facet rank 3 the two classifiers must agree."""
    q = polytope.rank
    if q < 1:
        raise ValueError("the facet census needs rank at least 1")
    counts: dict[FaceType, int] = {}
    samples: dict[FaceType, str] = {}
    for facet in polytope.faces(q - 1):
        tag = classify_by_construction(polytope.graph, facet.edges)
        if q - 1 == 3:
            intrinsic = classify_intrinsic_rank3(polytope, facet)
            if intrinsic != tag:
                raise InternalInconsistencyError(
                    f"facet {face_id(facet)}: construction says {tag.label}, "
                    f"interval says {intrinsic.label}"
                )
        counts[tag] = counts.get(tag, 0) + 1
        samples.setdefault(tag, face_id(facet))
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


def _merges_consecutively(fine: tuple, coarse: tuple) -> bool:
    """Whether ``coarse`` is obtained from ``fine`` by merging runs of consecutive blocks."""
    i = 0
    for block in coarse:
        want = set(block)
        got: set[int] = set()
        while got != want:
            if i >= len(fine) or not set(fine[i]) <= want:
                return False
            got |= set(fine[i])
            i += 1
    return i == len(fine)


PERMUTAHEDRON_ORACLE_MAX_N = 5


def permutahedron_oracle(n: int) -> RankedPoset:
    """The face poset of the rank-n permutahedron, built without any Cayley
    machinery: faces are ordered set partitions of n+1 items, ranked by
    items minus blocks, ordered by consecutive-block merging.  Raises
    :class:`CapacityError` above rank :data:`PERMUTAHEDRON_ORACLE_MAX_N`.
    """
    if n > PERMUTAHEDRON_ORACLE_MAX_N:
        raise CapacityError(f"permutahedron oracle capped at n={PERMUTAHEDRON_ORACLE_MAX_N}")
    levels: list[list[tuple]] = [[] for _ in range(n + 1)]
    for partition in ordered_set_partitions(n + 1):
        levels[n + 1 - len(partition)].append(partition)
    ordered_levels = [sorted(level) for level in levels]
    return RankedPoset.from_le(ordered_levels, _merges_consecutively)
