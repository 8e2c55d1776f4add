"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All tolerances are exact integer or boolean equality.
"""

import functools
import itertools
import math

from oracles import (
    adjacent_flag,
    all_faces,
    all_set_partitions,
    apply_graph_aut,
    apply_right,
    brute_coset,
    classify_2face,
    conjugate,
    connected_graphs_with_edges,
    flag_graph,
    flags,
    graphs_isomorphic,
    id_of,
    is_incident,
    rank_faces,
    same_coset,
    sectionwise_strong_flag_connectedness,
    tree_order_equals_coset_inclusion,
)

from graphicahedron import (
    automorphisms,
    build,
    build_cayley,
    canonical_rep,
    components,
    face_count,
    facet_census,
    flag_count,
    full_aut_order_via_flags,
    is_regular,
    one_skeleton_equals_cayley,
    permutahedron_oracle,
    posets_isomorphic,
    preset_graph,
    verify_diamond,
    verify_strong_flag_connectedness,
    vertex_figure_is_simplex,
)
from graphicahedron.polytope import drop_face, face_id

CRITERION_1_GRAPHS = [
    ("P_1", preset_graph("path", 1)),
    ("P_2", preset_graph("path", 2)),
    ("P_3", preset_graph("path", 3)),
    ("C_3", preset_graph("cycle", 3)),
    ("C_4", preset_graph("cycle", 4)),
    ("K_{1,3}", preset_graph("star", 3)),
    ("K_{1,4}", preset_graph("star", 4)),
    ("paw", preset_graph("paw")),
    ("fork", preset_graph("fork")),
]

_polytopes = {}


def polytope_of(name):
    if name not in _polytopes:
        graph = dict(CRITERION_1_GRAPHS)[name]
        _polytopes[name] = build(graph)
    return _polytopes[name]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({description}): FAIL")
                raise
            print(f"criterion {number:2d} ({description}): PASS")

        return wrapper

    return decorate


@criterion(1, "p! vertices and p!q! flags")
def test_criterion_01_vertex_and_flag_counts():
    for name, graph in CRITERION_1_GRAPHS:
        P = polytope_of(name)
        assert len(P.faces(0)) == math.factorial(graph.p), name
        assert P.f_vector()[0] == math.factorial(graph.p), name
        assert flag_count(P) == math.factorial(graph.p) * math.factorial(graph.q), name
        assert sum(1 for _ in flags(P)) == flag_count(P), name
        chains, _ = flag_graph(P)
        assert len(chains) == flag_count(P), name


@criterion(2, "two edges give a hexagon")
def test_criterion_02_hexagon():
    P = polytope_of("P_2")
    assert P.f_vector() == (6, 6, 1)
    assert full_aut_order_via_flags(P) == 12


@criterion(3, "1-skeleton is the Cayley graph")
def test_criterion_03_one_skeleton():
    for name, graph in CRITERION_1_GRAPHS:
        assert one_skeleton_equals_cayley(polytope_of(name), build_cayley(graph)), name


@criterion(4, "polytope axioms plus negative controls")
def test_criterion_04_axioms():
    for name, graph in CRITERION_1_GRAPHS:
        P = polytope_of(name)
        assert flag_count(P) <= 2880, name
        assert verify_diamond(P).passed, name
        assert verify_strong_flag_connectedness(P).passed, name
        assert all(vertex_figure_is_simplex(P, v) for v in P.faces(0)), name
    # negative controls: a deleted face breaks the diamond count, and two
    # deleted opposite vertices of a hexagon leave its section in two
    # pieces, as the section-by-section oracle finds too
    P = polytope_of("C_3")
    corrupted = drop_face(P, P.first_of_rank(1))
    assert not verify_diamond(corrupted).passed
    for label in ("K{}:a(1,2,3)", "K{}:a(1,3,2)"):
        P = drop_face(P, next(v for v in P.faces(0) if face_id(P, v) == label))
    report = verify_strong_flag_connectedness(P)
    assert report == sectionwise_strong_flag_connectedness(P)
    assert not report.passed
    assert report.failure == "section [least face, K{1,3}:a(1,2,3)] has a disconnected flag graph"


@criterion(5, "automorphism group order is p! * |graph automorphisms|")
def test_criterion_05_automorphism_orders():
    expected = {
        "P_2": 12,
        "P_3": 48,
        "C_3": 36,
        "K_{1,3}": 144,
        "paw": 48,
        "fork": 240,
    }
    for name, order in expected.items():
        graph = dict(CRITERION_1_GRAPHS)[name]
        P = polytope_of(name)
        assert full_aut_order_via_flags(P) == order, name
        assert order == math.factorial(graph.p) * len(automorphisms(graph)), name


@criterion(6, "regular exactly for the triangle and the stars")
def test_criterion_06_regularity_classification():
    named = {
        "P_1": preset_graph("path", 1),
        "P_2": preset_graph("path", 2),
        "P_3": preset_graph("path", 3),
        "P_4": preset_graph("path", 4),
        "C_3": preset_graph("cycle", 3),
        "C_4": preset_graph("cycle", 4),
        "K_{1,3}": preset_graph("star", 3),
        "K_{1,4}": preset_graph("star", 4),
        "paw": preset_graph("paw"),
        "fork": preset_graph("fork"),
    }
    regular_names = {"P_1", "P_2", "C_3", "K_{1,3}", "K_{1,4}"}

    seen = []
    for q in range(1, 5):
        for rep in connected_graphs_with_edges(q):
            matches = [n for n, g in named.items() if graphs_isomorphic(rep, g)]
            assert len(matches) == 1, f"unexpected connected graph with {q} edges"
            (name,) = matches
            seen.append(name)
            assert is_regular(build(rep)) == (name in regular_names), name
    assert sorted(seen) == sorted(named)  # all ten classes, each exactly once


@criterion(7, "the two toroidal graphicahedra")
def test_criterion_07_toroids():
    c3 = polytope_of("C_3")
    assert c3.f_vector() == (6, 9, 3, 1)
    assert all(classify_2face(c3, f) == "hexagon" for f in rank_faces(c3, 2))
    v, e, f2, _ = c3.f_vector()
    assert v - e + f2 == 0

    star = polytope_of("K_{1,3}")
    assert star.f_vector()[0] == 24
    assert all(classify_2face(star, f) == "hexagon" for f in rank_faces(star, 2))
    v, e, f2, _ = star.f_vector()
    assert v - e + f2 == 0

    # the paw's facets over the triangle and the star are poset-isomorphic
    # to these two reference polytopes
    paw = polytope_of("paw")
    triangle_facet = next(f for f in rank_faces(paw, 3) if f.edges == frozenset([0, 1, 2]))
    star_facet = next(f for f in rank_faces(paw, 3) if f.edges == frozenset([0, 1, 3]))
    assert posets_isomorphic(paw.interval_below(id_of(paw, triangle_facet)), c3)
    assert posets_isomorphic(paw.interval_below(id_of(paw, star_facet)), star)


@criterion(8, "facet censuses of the paw and the fork")
def test_criterion_08_facet_censuses():
    paw_census = facet_census(polytope_of("paw"))
    assert paw_census.as_dict() == {
        "permutahedron(3)": 2,
        "toroid_63_11": 4,
        "toroid_63_22": 1,
    }
    assert paw_census.total == 7

    fork_census = facet_census(polytope_of("fork"))
    assert fork_census.as_dict() == {
        "permutahedron(3)": 10,
        "toroid_63_22": 5,
        "hexagonal_prism": 10,
    }
    assert fork_census.total == 25
    # facet_census raises unless every facet's interval is isomorphic to the
    # reference poset of its construction type, so reaching this point
    # certifies every facet type


@criterion(9, "path graphicahedra are permutahedra")
def test_criterion_09_permutahedron_isomorphism():
    for n in (1, 2, 3):
        P = polytope_of(f"P_{n}")
        assert posets_isomorphic(P, permutahedron_oracle(n)), n

    p3 = polytope_of("P_3")
    oracle = permutahedron_oracle(3)
    assert p3.f_vector()[:3] == (24, 36, 14)
    assert oracle.f_vector()[:3] == (24, 36, 14)
    tags = [classify_2face(p3, f) for f in rank_faces(p3, 2)]
    assert tags.count("hexagon") == 8 and tags.count("square") == 6
    oracle_gon = sorted(oracle.vertices_below(x) for x in oracle.levels[2])
    assert oracle_gon == [4] * 6 + [6] * 8


@criterion(10, "tree order equals coset inclusion")
def test_criterion_10_tree_remark():
    holds, witness = tree_order_equals_coset_inclusion(preset_graph("path", 3))
    assert holds and witness is None
    holds, witness = tree_order_equals_coset_inclusion(preset_graph("star", 3))
    assert holds and witness is None

    holds, witness = tree_order_equals_coset_inclusion(preset_graph("cycle", 3))
    assert not holds and witness is not None
    f, g = witness
    c3 = polytope_of("C_3")
    assert not is_incident(c3, f, g)
    assert brute_coset(components(c3.graph, f.edges), f.rep) <= brute_coset(
        components(c3.graph, g.edges), g.rep
    )


@criterion(11, "property suites")
def test_criterion_11_property_suites():
    # coset identities, exhaustively for p <= 4
    for p in range(1, 5):
        for part in all_set_partitions(p):
            for a in itertools.permutations(range(p)):
                rep = canonical_rep(part, a)
                coset = brute_coset(part, a)
                assert rep == min(coset)
                for b in itertools.permutations(range(p)):
                    assert same_coset(part, a, b) == (b in coset)

    # closed-form face counts versus enumeration
    for name, graph in CRITERION_1_GRAPHS:
        P = polytope_of(name)
        for r in range(P.rank + 1):
            assert face_count(graph, r) == len(P.faces(r)), name

    # flag adjacency: fixed-point-free involution, distant operators commute
    for name, _ in CRITERION_1_GRAPHS:
        P = polytope_of(name)
        if flag_count(P) > 10**4:
            continue
        far_pairs = [(j, k) for j in range(P.rank) for k in range(j + 2, P.rank)]
        for phi in flags(P):
            for j in range(P.rank):
                psi = adjacent_flag(P, phi, j)
                assert psi != phi and adjacent_flag(P, psi, j) == phi
            for j, k in far_pairs:
                assert adjacent_flag(P, adjacent_flag(P, phi, j), k) == adjacent_flag(
                    P, adjacent_flag(P, phi, k), j
                )

    # semidirect conjugation identity on the paw and the fork
    for name in ("paw", "fork"):
        P = polytope_of(name)
        faces = all_faces(P)
        for kappa in automorphisms(P.graph):
            kappa_inv = kappa.inverse()
            for gamma in itertools.permutations(range(P.graph.p)):
                gamma_conj = conjugate(gamma, kappa.vertex_map)
                for f in faces:
                    lhs = apply_graph_aut(
                        P, kappa, apply_right(P, gamma, apply_graph_aut(P, kappa_inv, f))
                    )
                    assert lhs == apply_right(P, gamma_conj, f)
