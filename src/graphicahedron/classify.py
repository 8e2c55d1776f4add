"""Classification of 2-faces and facets, and the facet census.

A facet's type is read off its edge subset by :func:`classify_by_construction`:
each nontrivial component of the spanning subgraph contributes a factor (a
path of length n gives the rank-n permutahedron, the triangle and the 3-star
give the two hexagonal toroids), and a facet over several components is the
product of its factors.  The census checks that reading against the poset at
every facet rank: the interval below each facet must be isomorphic to the
:func:`reference_poset` of its type, built from ordered set partitions and
poset products rather than from the Cayley machinery (the toroids excepted).
Facets of a type with no reference are typed by construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import CapacityError, InternalInconsistencyError
from .graphs import SimpleGraph, components, preset_graph
from .polytope import Face, Graphicahedron, build, face_count, face_id, full_poset, interval_below
from .posets import RankedPoset, posets_isomorphic, product_poset


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
def reference_poset(tag: FaceType) -> RankedPoset | None:
    """The face poset of a facet type, built once per process.

    Permutahedra up to rank :data:`PERMUTAHEDRON_ORACLE_MAX_N` (a vertex, a
    segment and a hexagon among them) come from :func:`permutahedron_oracle`;
    cubes, the hexagonal prism and products are :func:`product_poset` of
    their factors' references.  None of these touches the Cayley machinery.
    The two toroids are the exception: their references are the
    graphicahedra of the triangle and the 3-star, built by the same
    construction they check, so that route is weaker.  Returns None for an
    unrecognized type, a larger permutahedron, or a product with such a
    factor; facets of those types are typed by construction alone.
    """
    if tag.kind in ("vertex", "segment", "hexagon", "permutahedron"):
        n = {"vertex": 0, "segment": 1, "hexagon": 2}.get(tag.kind, tag.size)
        return permutahedron_oracle(n) if n <= PERMUTAHEDRON_ORACLE_MAX_N else None
    if tag in (TOROID_63_11, TOROID_63_22):
        return full_poset(build(preset_graph("cycle" if tag == TOROID_63_11 else "star", 3)))
    if tag.kind in ("square", "cube"):
        factors = (SEGMENT,) * (2 if tag == SQUARE else tag.size)
    elif tag == HEXAGONAL_PRISM:
        factors = (SEGMENT, HEXAGON)
    elif tag.kind == "product":
        factors = tag.parts
    else:
        return None
    references = [reference_poset(factor) for factor in factors]
    if any(reference is None for reference in references):
        return None
    return reduce(product_poset, references)


@dataclass(frozen=True)
class FacetCensus:
    """Multiset of facet types, with one sample facet per type."""

    entries: tuple[tuple[FaceType, int, str], ...]
    total: int

    def as_dict(self) -> dict[str, int]:
        return {t.label: count for t, count, _ in self.entries}


def facet_census(polytope: Graphicahedron) -> FacetCensus:
    """Type every facet by construction, one edge subset at a time, and
    require each facet's interval to be isomorphic to its type's
    :func:`reference_poset` when the type has one.  Raises
    :class:`InternalInconsistencyError` naming the first facet that is not,
    or when the facets do not add up to the face count of their rank."""
    q = polytope.rank
    if q < 1:
        raise ValueError("the facet census needs rank at least 1")
    counts: dict[FaceType, int] = {}
    samples: dict[FaceType, str] = {}
    for edges, reps in polytope.blocks:
        if len(edges) != q - 1:
            continue
        tag = classify_by_construction(polytope.graph, edges)
        reference = reference_poset(tag)
        if reference is not None:
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
