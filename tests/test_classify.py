import math

import pytest
from oracles import stirling2

from graphicahedron import (
    build,
    classify_2face,
    classify_by_construction,
    face_count,
    facet_census,
    permutahedron_oracle,
    posets_isomorphic,
    preset_graph,
    product_poset,
    reference_poset,
)
from graphicahedron.classify import (
    HEXAGON,
    HEXAGONAL_PRISM,
    SEGMENT,
    SQUARE,
    TOROID_63_11,
    TOROID_63_22,
    FaceType,
    cube_type,
    ordered_set_partitions,
    permutahedron_type,
)
from graphicahedron.errors import InternalInconsistencyError
from graphicahedron.polytope import drop_face, full_poset, interval_below
from graphicahedron.posets import RankedPoset


def hedron(name, n=None):
    return build(preset_graph(name, n))


# ---------------------------------------------------------------------------
# 2-faces


def test_hexagon_when_edges_share_a_vertex():
    P = hedron("path", 2)
    (face,) = P.faces(2)
    assert classify_2face(P, face) == HEXAGON


def test_square_when_edges_are_disjoint():
    P = hedron("path", 3)
    for face in P.faces(2):
        expected = SQUARE if face.edges == frozenset([0, 2]) else HEXAGON
        assert classify_2face(P, face) == expected


def test_2face_classification_matches_vertex_count():
    for name, n in [("cycle", 4), ("paw", None)]:
        P = hedron(name, n)
        for face in P.faces(2):
            tag = classify_2face(P, face)
            n_vertices = sum(1 for v in P.faces(0) if P.is_incident(v, face))
            assert n_vertices == (6 if tag == HEXAGON else 4)


def test_path3_2face_census():
    P = hedron("path", 3)
    tags = [classify_2face(P, f) for f in P.faces(2)]
    assert tags.count(HEXAGON) == 8
    assert tags.count(SQUARE) == 6


# ---------------------------------------------------------------------------
# By-construction classification


def test_paw_star_subset_is_toroid_22():
    paw = preset_graph("paw")
    # edges {1,2},{1,3},{1,4} form the 3-star spanning subgraph
    assert classify_by_construction(paw, frozenset([0, 1, 3])) == TOROID_63_22


def test_paw_triangle_subset_is_toroid_11():
    paw = preset_graph("paw")
    assert classify_by_construction(paw, frozenset([0, 1, 2])) == TOROID_63_11


def test_fork_prism_subset():
    fork = preset_graph("fork")
    # segment {1,2} plus the length-2 path 4-3-5
    assert classify_by_construction(fork, frozenset([0, 2, 3])) == HEXAGONAL_PRISM


def test_two_disjoint_edges_are_a_square():
    p3 = preset_graph("path", 3)
    assert classify_by_construction(p3, frozenset([0, 2])) == SQUARE
    assert cube_type(2) == SQUARE


def test_three_disjoint_edges_are_a_cube():
    p5 = preset_graph("path", 5)
    tag = classify_by_construction(p5, frozenset([0, 2, 4]))
    assert tag.kind == "cube" and tag.size == 3
    assert tag.label == "cube(3)"


def test_single_edge_and_empty_subsets():
    p3 = preset_graph("path", 3)
    assert classify_by_construction(p3, frozenset([1])) == SEGMENT
    assert classify_by_construction(p3, frozenset()).kind == "vertex"


def test_product_label_for_two_hexagons():
    p5 = preset_graph("path", 5)
    tag = classify_by_construction(p5, frozenset([0, 1, 3, 4]))
    assert tag.kind == "product"
    assert tag.label == "product(hexagon x hexagon)"


def test_unrecognized_component_carries_certificate():
    c4 = preset_graph("cycle", 4)
    tag = classify_by_construction(c4, frozenset(range(4)))
    assert tag.kind == "unrecognized"
    assert tag.certificate == (4, 4, (2, 2, 2, 2))


def test_permutahedron_type_naming():
    assert permutahedron_type(1) == SEGMENT
    assert permutahedron_type(2) == HEXAGON
    assert permutahedron_type(3).label == "permutahedron(3)"


# ---------------------------------------------------------------------------
# Reference posets


def test_paw_triangle_facet_intrinsic():
    P = hedron("paw")
    facets = [f for f in P.faces(3) if f.edges == frozenset([0, 1, 2])]
    assert len(facets) == 4
    for facet in facets:
        interval = interval_below(P, facet)
        assert posets_isomorphic(interval, reference_poset(TOROID_63_11))
        assert interval.f_vector()[:3] == (6, 9, 3)
        v, e, f2, _ = interval.f_vector()
        assert v - e + f2 == 0


def test_paw_star_facet_intrinsic():
    P = hedron("paw")
    (facet,) = [f for f in P.faces(3) if f.edges == frozenset([0, 1, 3])]
    interval = interval_below(P, facet)
    assert posets_isomorphic(interval, reference_poset(TOROID_63_22))
    assert interval.f_vector() == (24, 36, 12, 1)
    v, e, f2, _ = interval.f_vector()
    assert v - e + f2 == 0


def test_fork_path_facet_intrinsic():
    P = hedron("fork")
    facets = [f for f in P.faces(3) if f.edges == frozenset([0, 1, 2])]
    for facet in facets[:2]:
        interval = interval_below(P, facet)
        assert posets_isomorphic(interval, reference_poset(permutahedron_type(3)))
        assert interval.f_vector() == (24, 36, 14, 1)


def test_rank3_references_are_distinct():
    tags = [permutahedron_type(3), HEXAGONAL_PRISM, cube_type(3), TOROID_63_11, TOROID_63_22]
    f_vectors = [reference_poset(tag).f_vector() for tag in tags]
    assert len(set(f_vectors)) == len(tags)
    assert reference_poset(cube_type(3)).f_vector() == (8, 12, 6, 1)


def test_types_without_a_reference():
    assert reference_poset(FaceType("unrecognized", certificate=(5, 4, (1, 1, 1, 1, 4)))) is None
    assert reference_poset(permutahedron_type(6)) is None
    assert reference_poset(FaceType("product", parts=(SEGMENT, permutahedron_type(6)))) is None


# ---------------------------------------------------------------------------
# Census


def test_paw_census():
    census = facet_census(hedron("paw"))
    assert census.as_dict() == {
        "permutahedron(3)": 2,
        "toroid_63_11": 4,
        "toroid_63_22": 1,
    }
    assert census.total == 7


def test_fork_census():
    census = facet_census(hedron("fork"))
    assert census.as_dict() == {
        "permutahedron(3)": 10,
        "toroid_63_22": 5,
        "hexagonal_prism": 10,
    }
    assert census.total == 25


def test_cycle3_census():
    census = facet_census(hedron("cycle", 3))
    assert census.as_dict() == {"hexagon": 3}
    assert census.total == 3


def test_star4_has_twenty_toroid_facets():
    # the rank-4 star polytope: (n+1)(n+2) facets for n = 3, every one a
    # copy of the 3-star's toroid
    census = facet_census(hedron("star", 4))
    assert census.as_dict() == {"toroid_63_22": 20}


def test_cycle4_and_path4_censuses():
    assert facet_census(hedron("cycle", 4)).as_dict() == {"permutahedron(3)": 4}
    assert facet_census(hedron("path", 4)).as_dict() == {
        "permutahedron(3)": 10,
        "hexagonal_prism": 20,
    }


def test_census_totals_match_face_count():
    for name, n in [("path", 4), ("cycle", 4), ("star", 4), ("paw", None), ("fork", None)]:
        P = hedron(name, n)
        census = facet_census(P)
        assert census.total == face_count(P.graph, P.rank - 1)


def test_census_agreement_on_rank3_facets_of_q4_presets():
    # facet_census raises when a facet's interval disagrees with the
    # reference poset of its type; run it on every 4-edge preset so each
    # rank-3 facet passes that check
    for name, n in [("path", 4), ("cycle", 4), ("star", 4), ("paw", None), ("fork", None)]:
        facet_census(hedron(name, n))


CENSUSES = {
    ("path", 1): {"vertex": 2},
    ("path", 2): {"segment": 6},
    ("path", 3): {"hexagon": 8, "square": 6},
    ("path", 4): {"hexagonal_prism": 20, "permutahedron(3)": 10},
    ("path", 5): {
        "permutahedron(4)": 12,
        "product(hexagon x hexagon)": 20,
        "product(permutahedron(3) x segment)": 30,
    },
    ("cycle", 3): {"hexagon": 3},
    ("cycle", 4): {"permutahedron(3)": 4},
    ("cycle", 5): {"permutahedron(4)": 5},
    ("star", 2): {"segment": 6},
    ("star", 3): {"hexagon": 12},
    ("star", 4): {"toroid_63_22": 20},
    ("star", 5): {"unrecognized(5, 4, (1, 1, 1, 1, 4))": 30},
    ("paw", None): {"permutahedron(3)": 2, "toroid_63_11": 4, "toroid_63_22": 1},
    ("fork", None): {"hexagonal_prism": 10, "permutahedron(3)": 10, "toroid_63_22": 5},
}


@pytest.mark.parametrize("name, n", list(CENSUSES), ids=[f"{a}:{b}" if b else a for a, b in CENSUSES])
def test_census_at_every_facet_rank(name, n):
    # facet_census raises unless every facet whose type has a reference
    # poset is isomorphic to it, whatever the facet rank
    assert facet_census(hedron(name, n)).as_dict() == CENSUSES[name, n]


@pytest.mark.parametrize("name, n", [("cycle", 3), ("paw", None), ("fork", None)])
def test_census_rejects_a_dropped_vertex(name, n):
    P = hedron(name, n)
    with pytest.raises(InternalInconsistencyError, match=r"^facet K\{.*reference$"):
        facet_census(drop_face(P, P.faces(0)[0]))


def test_census_euler_characteristic_per_tag():
    for name in ["paw", "fork"]:
        P = hedron(name)
        for facet in P.faces(3):
            v, e, f2, _ = interval_below(P, facet).f_vector()
            tag = classify_by_construction(P.graph, facet.edges)
            expected = 0 if tag.kind.startswith("toroid") else 2
            assert v - e + f2 == expected


def test_census_samples_are_stable_ids():
    census = facet_census(hedron("paw"))
    for _, _, sample in census.entries:
        assert sample.startswith("K{")


# ---------------------------------------------------------------------------
# Permutahedron oracle


def test_ordered_set_partition_counts():
    # ordered Bell numbers 1, 1, 3, 13, 75
    for n, expected in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
        assert sum(1 for _ in ordered_set_partitions(n)) == expected


def test_oracle_hexagon():
    oracle = permutahedron_oracle(2)
    assert oracle.f_vector() == (6, 6, 1)


def test_oracle_f_vector_matches_stirling_counts():
    oracle = permutahedron_oracle(3)
    expected = tuple(
        math.factorial(4 - r) * stirling2(4, 4 - r) for r in range(4)
    )
    assert oracle.f_vector() == expected
    assert oracle.f_vector() == (24, 36, 14, 1)


def test_oracle_2face_sizes():
    oracle = permutahedron_oracle(3)
    gonalities = sorted(oracle.vertices_below(x) for x in oracle.levels[2])
    assert gonalities == [4] * 6 + [6] * 8


def test_path_graphicahedron_is_the_permutahedron():
    for n in (1, 2, 3):
        P = full_poset(hedron("path", n))
        assert posets_isomorphic(P, permutahedron_oracle(n))


def test_poset_isomorphism_distinguishes():
    assert not posets_isomorphic(full_poset(hedron("cycle", 3)), permutahedron_oracle(3))
    assert not posets_isomorphic(permutahedron_oracle(2), permutahedron_oracle(3))


def two_triangles():
    """Two disjoint triangles under one greatest element, f-vector (6, 6, 1)."""
    edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    return RankedPoset([0] * 6 + [1] * 6 + [2], [[]] * 6 + edges + [list(range(6, 12))])


@pytest.mark.parametrize("swap", [False, True], ids=["a-b", "b-a"])
def test_poset_isomorphism_distinguishes_equal_f_vectors(swap):
    segment = full_poset(hedron("path", 1))
    hexagon = full_poset(hedron("path", 2))
    pairs = [
        (hexagon, two_triangles()),
        (product_poset(segment, hexagon), product_poset(segment, two_triangles())),
    ]
    for a, b in pairs:
        assert a.f_vector() == b.f_vector()
        assert not posets_isomorphic(*((b, a) if swap else (a, b)))


def test_poset_isomorphism_rejects_posets_that_are_not_thin():
    # a segment with three endpoints: three choices at rank 0
    three = RankedPoset([0, 0, 0, 1], [[], [], [], [0, 1, 2]])
    with pytest.raises(ValueError, match="poset is not thin"):
        posets_isomorphic(three, three)
    # a segment with one endpoint: no other choice at rank 0
    one = RankedPoset([0, 1], [[], [0]])
    with pytest.raises(ValueError, match="poset is not thin"):
        posets_isomorphic(one, one)


def test_oracle_capacity():
    from graphicahedron.errors import CapacityError

    with pytest.raises(CapacityError):
        permutahedron_oracle(6)
