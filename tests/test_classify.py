import itertools
import math

import sys
from functools import reduce

import pytest
from oracles import (
    classify_2face,
    connected_graphs_with_edges,
    flag_posets_isomorphic,
    hexagonal_toroid,
    id_of,
    is_incident,
    product_poset,
    rank_faces,
    stirling2,
)

from graphicahedron import (
    build,
    classify_by_construction,
    face_count,
    facet_census,
    labelled_poset,
    make_graph,
    permutahedron_oracle,
    posets_isomorphic,
    preset_graph,
)
from graphicahedron.classify import ordered_set_partitions
from graphicahedron.errors import InternalInconsistencyError
from graphicahedron.polytope import drop_face
from graphicahedron.posets import RankedPoset, map_frame


def hedron(name, n=None):
    return build(preset_graph(name, n))


# ---------------------------------------------------------------------------
# 2-faces


def test_hexagon_when_edges_share_a_vertex():
    P = hedron("path", 2)
    (face,) = rank_faces(P, 2)
    assert classify_2face(P, face) == "hexagon"


def test_square_when_edges_are_disjoint():
    P = hedron("path", 3)
    for face in rank_faces(P, 2):
        expected = "square" if face.edges == frozenset([0, 2]) else "hexagon"
        assert classify_2face(P, face) == expected


def test_2face_classification_matches_vertex_count():
    for name, n in [("cycle", 4), ("paw", None)]:
        P = hedron(name, n)
        for face in rank_faces(P, 2):
            tag = classify_2face(P, face)
            n_vertices = sum(1 for v in rank_faces(P, 0) if is_incident(P, v, face))
            assert n_vertices == (6 if tag == "hexagon" else 4)


def test_path3_2face_census():
    P = hedron("path", 3)
    tags = [classify_2face(P, f) for f in rank_faces(P, 2)]
    assert tags.count("hexagon") == 8
    assert tags.count("square") == 6


# ---------------------------------------------------------------------------
# By-construction classification


def test_paw_star_subset_is_toroid_22():
    paw = preset_graph("paw")
    # edges {1,2},{1,3},{1,4} form the 3-star spanning subgraph
    assert classify_by_construction(paw, frozenset([0, 1, 3])) == "toroid_63_22"


def test_paw_triangle_subset_is_toroid_11():
    paw = preset_graph("paw")
    assert classify_by_construction(paw, frozenset([0, 1, 2])) == "toroid_63_11"


def test_fork_prism_subset():
    fork = preset_graph("fork")
    # segment {1,2} plus the length-2 path 4-3-5
    assert classify_by_construction(fork, frozenset([0, 2, 3])) == "hexagonal_prism"


def test_two_disjoint_edges_are_a_square():
    p3 = preset_graph("path", 3)
    assert classify_by_construction(p3, frozenset([0, 2])) == "square"


def test_three_disjoint_edges_are_a_cube():
    p5 = preset_graph("path", 5)
    assert classify_by_construction(p5, frozenset([0, 2, 4])) == "cube(3)"
    p7 = preset_graph("path", 7)
    assert classify_by_construction(p7, frozenset([0, 2, 4, 6])) == "cube(4)"


def test_single_edge_and_empty_subsets():
    p3 = preset_graph("path", 3)
    assert classify_by_construction(p3, frozenset([1])) == "segment"
    assert classify_by_construction(p3, frozenset()) == "vertex"


def test_product_label_for_two_hexagons():
    p5 = preset_graph("path", 5)
    assert classify_by_construction(p5, frozenset([0, 1, 3, 4])) == "product(hexagon x hexagon)"


def test_unrecognized_component_carries_certificate():
    # the component's canonical form: its least edge list over the
    # relabellings that number its vertices by non-increasing degree
    c4 = preset_graph("cycle", 4)
    assert classify_by_construction(c4, frozenset(range(4))) == "graph(1-2,1-3,2-4,3-4)"
    star4 = preset_graph("star", 4)
    assert classify_by_construction(star4, frozenset(range(4))) == "graph(1-2,1-3,1-4,1-5)"


@pytest.mark.parametrize("spec", ["1-2,1-3,1-4,2-3,2-4,3-5", "1-2,1-3,3-4,1-5,5-6,6-7"])
def test_facet_labels_agree_exactly_on_isomorphic_facets(spec):
    # K4 minus an edge with a pendant edge, and the spider (1, 2, 3): each
    # has two facet components of one vertex count, edge count and degree
    # sequence that are not isomorphic, and their labels must differ
    edges = [tuple(int(v) - 1 for v in pair.split("-")) for pair in spec.split(",")]
    graph = make_graph(max(map(max, edges)) + 1, edges)
    facets = [frozenset(range(graph.q)) - {e} for e in range(graph.q)]
    for a, b in itertools.combinations(facets, 2):
        same = classify_by_construction(graph, a) == classify_by_construction(graph, b)
        assert same == posets_isomorphic(labelled_poset(graph, a), labelled_poset(graph, b))


def test_permutahedron_type_naming():
    # a path of n edges is the rank-n permutahedron, named for n = 1, 2
    p5 = preset_graph("path", 5)
    names = [classify_by_construction(p5, frozenset(range(n))) for n in range(1, 6)]
    assert names == ["segment", "hexagon", "permutahedron(3)", "permutahedron(4)", "permutahedron(5)"]


# ---------------------------------------------------------------------------
# The labelled-partition model, and the type names against oracles


def test_paw_triangle_facet_intrinsic():
    P = hedron("paw")
    facets = [f for f in rank_faces(P, 3) if f.edges == frozenset([0, 1, 2])]
    assert len(facets) == 4
    for facet in facets:
        interval = P.interval_below(id_of(P, facet))
        assert posets_isomorphic(interval, hexagonal_toroid(1, 1))
        assert interval.f_vector()[:3] == (6, 9, 3)
        v, e, f2, _ = interval.f_vector()
        assert v - e + f2 == 0


def test_paw_star_facet_intrinsic():
    P = hedron("paw")
    (facet,) = [f for f in rank_faces(P, 3) if f.edges == frozenset([0, 1, 3])]
    interval = P.interval_below(id_of(P, facet))
    assert posets_isomorphic(interval, hexagonal_toroid(2, 2))
    assert interval.f_vector() == (24, 36, 12, 1)
    v, e, f2, _ = interval.f_vector()
    assert v - e + f2 == 0


def test_fork_path_facet_intrinsic():
    P = hedron("fork")
    facets = [f for f in rank_faces(P, 3) if f.edges == frozenset([0, 1, 2])]
    for facet in facets[:2]:
        interval = P.interval_below(id_of(P, facet))
        assert posets_isomorphic(interval, permutahedron_oracle(3))
        assert interval.f_vector() == (24, 36, 14, 1)


def segments(k):
    return reduce(product_poset, [permutahedron_oracle(1)] * k)


# One edge subset per facet type, and that type's poset built by an oracle;
# the permutahedra are whole paths.
TYPE_ORACLES = {
    "vertex": (("path", 3), [], lambda: permutahedron_oracle(0)),
    "segment": (("path", 1), [0], lambda: permutahedron_oracle(1)),
    "hexagon": (("path", 2), [0, 1], lambda: permutahedron_oracle(2)),
    "permutahedron(3)": (("path", 3), [0, 1, 2], lambda: permutahedron_oracle(3)),
    "permutahedron(4)": (("path", 4), [0, 1, 2, 3], lambda: permutahedron_oracle(4)),
    "square": (("path", 3), [0, 2], lambda: segments(2)),
    "cube(3)": (("path", 5), [0, 2, 4], lambda: segments(3)),
    "hexagonal_prism": (("fork", None), [0, 2, 3], lambda: product_poset(segments(1), permutahedron_oracle(2))),
    "product(hexagon x hexagon)": (
        ("path", 5), [0, 1, 3, 4], lambda: product_poset(permutahedron_oracle(2), permutahedron_oracle(2))
    ),
    "toroid_63_11": (("cycle", 3), [0, 1, 2], lambda: hexagonal_toroid(1, 1)),
    "toroid_63_22": (("star", 3), [0, 1, 2], lambda: hexagonal_toroid(2, 2)),
}


@pytest.mark.parametrize("label", TYPE_ORACLES)
def test_each_type_name_matches_its_oracle(label):
    (name, n), edges, oracle = TYPE_ORACLES[label]
    graph = preset_graph(name, n)
    assert classify_by_construction(graph, frozenset(edges)) == label
    assert posets_isomorphic(labelled_poset(graph, edges), oracle())


def test_toroid_oracles_do_not_cross():
    triangle = labelled_poset(preset_graph("cycle", 3), range(3))
    star = labelled_poset(preset_graph("star", 3), range(3))
    assert hexagonal_toroid(1, 1).f_vector() == (6, 9, 3, 1)
    assert hexagonal_toroid(2, 2).f_vector() == (24, 36, 12, 1)
    assert not posets_isomorphic(triangle, hexagonal_toroid(2, 2))
    assert not posets_isomorphic(star, hexagonal_toroid(1, 1))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_labelled_poset_of_all_edges_is_the_graphicahedron(q):
    for graph in connected_graphs_with_edges(q):
        assert posets_isomorphic(build(graph), labelled_poset(graph, range(graph.q)))


def test_labelled_poset_rejects_a_repeated_edge():
    with pytest.raises(ValueError, match="repeated edge index"):
        labelled_poset(preset_graph("path", 2), [0, 0])
    with pytest.raises(ValueError, match="repeated edge index"):
        labelled_poset(preset_graph("paw"), (3, 1, 3))


def test_labelled_poset_and_oracle_build_without_cosets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the model used the Cayley construction")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphicahedron"]
    for module in modules:
        for attr in ("build", "canonical_rep", "coset_reps"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    assert labelled_poset(preset_graph("fork"), [0, 2, 3]).f_vector() == (12, 18, 8, 1)
    assert permutahedron_oracle(3).f_vector() == (24, 36, 14, 1)


def test_rank3_references_are_distinct():
    oracles = [
        permutahedron_oracle(3),
        product_poset(segments(1), permutahedron_oracle(2)),
        segments(3),
        hexagonal_toroid(1, 1),
        hexagonal_toroid(2, 2),
    ]
    f_vectors = [oracle.f_vector() for oracle in oracles]
    assert len(set(f_vectors)) == len(oracles)
    assert segments(3).f_vector() == (8, 12, 6, 1)


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
    # labelled model of its edge subset; run it on every 4-edge preset so
    # each rank-3 facet passes that check
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
    ("star", 5): {"graph(1-2,1-3,1-4,1-5)": 30},
    ("paw", None): {"permutahedron(3)": 2, "toroid_63_11": 4, "toroid_63_22": 1},
    ("fork", None): {"hexagonal_prism": 10, "permutahedron(3)": 10, "toroid_63_22": 5},
}


@pytest.mark.parametrize("name, n", list(CENSUSES), ids=[f"{a}:{b}" if b else a for a, b in CENSUSES])
def test_census_at_every_facet_rank(name, n):
    # facet_census raises unless every facet is isomorphic to the labelled
    # model of its edge subset, whatever the facet rank
    assert facet_census(hedron(name, n)).as_dict() == CENSUSES[name, n]


@pytest.mark.parametrize("name, n", [("cycle", 3), ("paw", None), ("fork", None), ("star", 5)])
def test_census_rejects_a_dropped_vertex(name, n):
    P = hedron(name, n)
    with pytest.raises(InternalInconsistencyError, match=r"^facet K\{.*reference$"):
        facet_census(drop_face(P, 0))


# The 12 connected graphs with 5 edges, by their 1-based edge lists, and
# their facet censuses, recorded before facet types were plain label strings.
Q5_CENSUSES = {
    "1-2,1-3,1-4,2-3,2-4": {"graph(1-2,1-3,1-4,2-3)": 4, "graph(1-2,1-3,2-4,3-4)": 1},
    "1-2,1-3,1-4,1-5,2-3": {
        "graph(1-2,1-3,1-4,2-3)": 10,
        "graph(1-2,1-3,1-4,1-5)": 1,
        "graph(1-2,1-3,1-4,2-5)": 2,
    },
    "1-2,1-3,1-4,2-3,2-5": {
        "permutahedron(4)": 1,
        "graph(1-2,1-3,1-4,2-3)": 10,
        "graph(1-2,1-3,1-4,2-5)": 2,
    },
    "1-2,1-3,1-4,2-3,4-5": {
        "permutahedron(4)": 2,
        "product(segment x toroid_63_11)": 10,
        "graph(1-2,1-3,1-4,2-3)": 5,
        "graph(1-2,1-3,1-4,2-5)": 1,
    },
    "1-2,1-3,1-4,2-5,3-5": {
        "permutahedron(4)": 2,
        "graph(1-2,1-3,2-4,3-4)": 5,
        "graph(1-2,1-3,1-4,2-5)": 2,
    },
    "1-2,1-3,2-4,3-5,4-5": {"permutahedron(4)": 5},
    "1-2,1-3,1-4,1-5,1-6": {"graph(1-2,1-3,1-4,1-5)": 30},
    "1-2,1-3,1-4,1-5,2-6": {
        "product(segment x toroid_63_22)": 15,
        "graph(1-2,1-3,1-4,1-5)": 6,
        "graph(1-2,1-3,1-4,2-5)": 18,
    },
    "1-2,1-3,1-4,2-5,2-6": {"product(hexagon x hexagon)": 20, "graph(1-2,1-3,1-4,2-5)": 24},
    "1-2,1-3,1-4,2-5,3-6": {
        "permutahedron(4)": 6,
        "product(permutahedron(3) x segment)": 30,
        "graph(1-2,1-3,1-4,2-5)": 12,
    },
    "1-2,1-3,1-4,2-5,5-6": {
        "permutahedron(4)": 12,
        "product(hexagon x hexagon)": 20,
        "product(segment x toroid_63_22)": 15,
        "graph(1-2,1-3,1-4,2-5)": 6,
    },
    "1-2,1-3,2-4,3-5,4-6": {
        "permutahedron(4)": 12,
        "product(hexagon x hexagon)": 20,
        "product(permutahedron(3) x segment)": 30,
    },
}


@pytest.mark.parametrize("spec", Q5_CENSUSES)
def test_census_checks_every_facet_of_the_q5_graphs(spec):
    edges = [tuple(int(v) - 1 for v in pair.split("-")) for pair in spec.split(",")]
    graph = make_graph(max(map(max, edges)) + 1, edges)
    census = facet_census(build(graph))
    assert census.total == face_count(graph, 4)
    assert census.as_dict() == Q5_CENSUSES[spec]


def test_census_euler_characteristic_per_tag():
    for name in ["paw", "fork"]:
        P = hedron(name)
        for facet in rank_faces(P, 3):
            v, e, f2, _ = P.interval_below(id_of(P, facet)).f_vector()
            tag = classify_by_construction(P.graph, facet.edges)
            expected = 0 if tag.startswith("toroid") else 2
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
        P = hedron("path", n)
        assert posets_isomorphic(P, permutahedron_oracle(n))


def test_poset_isomorphism_distinguishes():
    assert not posets_isomorphic(hedron("cycle", 3), permutahedron_oracle(3))
    assert not posets_isomorphic(permutahedron_oracle(2), permutahedron_oracle(3))


def two_triangles():
    """Two disjoint triangles under one greatest element, f-vector (6, 6, 1)."""
    edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    return RankedPoset([0] * 6 + [1] * 6 + [2], [[]] * 6 + edges + [list(range(6, 12))])


@pytest.mark.parametrize("swap", [False, True], ids=["a-b", "b-a"])
def test_poset_isomorphism_distinguishes_equal_f_vectors(swap):
    segment = hedron("path", 1)
    hexagon = hedron("path", 2)
    pairs = [
        (hexagon, two_triangles()),
        (product_poset(segment, hexagon), product_poset(segment, two_triangles())),
    ]
    for a, b in pairs:
        assert a.f_vector() == b.f_vector()
        ordered = (b, a) if swap else (a, b)
        assert not posets_isomorphic(*ordered)
        assert not flag_posets_isomorphic(*ordered)
        assert posets_isomorphic(a, a) and flag_posets_isomorphic(a, a)


def test_disconnected_posets_are_not_compared():
    # two triangles pass the frame check, but a frame reaches one triangle only
    with pytest.raises(ValueError, match="^the 1-skeleta are not connected$"):
        posets_isomorphic(two_triangles(), two_triangles())
    with pytest.raises(InternalInconsistencyError, match="^the 1-skeleton is not connected$"):
        two_triangles().vertex_orbit_and_stabiliser


def with_down(poset, i, below):
    """A copy of ``poset`` in which the id ``i`` covers ``below`` instead."""
    down = [list(d) for d in poset.down]
    down[i] = sorted(below)
    return RankedPoset(list(poset.ranks), down)


def test_map_frame_maps_every_higher_face_by_its_covers():
    # A copy of paw's poset with its 2-skeleton kept and the first rank-3
    # face changed: one down-cover swapped for another 2-face, or the next
    # face's down-covers repeated.  Only the step above rank 2 can tell.
    P = hedron("paw")
    assert map_frame(P, P, 0, P.up[0]) == list(range(len(P)))
    x = P.first_of_rank(3)
    other = next(t for t in P.levels[2] if t not in P.down[x])
    for below in ([other, *P.down[x][1:]], P.down[x + 1]):
        copy = with_down(P, x, below)
        assert copy.down[:x] == P.down[:x] and copy.f_vector() == P.f_vector()
        assert map_frame(P, copy, 0, copy.up[0]) is None


def test_map_frame_rejects_a_frame_that_is_not_an_ordering_of_the_edges():
    # a repeated edge, three of the four edges, or an edge away from vertex 0
    P = hedron("paw")
    e, *rest = P.up[0]
    away = next(x for x in P.levels[1] if x not in P.up[0])
    for frame in ([e] * 4, [e, *rest[:2]], [away, *rest]):
        assert map_frame(P, P, 0, frame) is None


def test_map_frame_rejects_a_frame_that_misses_a_vertex():
    triangles = two_triangles()
    assert map_frame(triangles, triangles, 0, triangles.up[0]) is None


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
