import importlib
import itertools
import math
import pkgutil
import random

import pytest
from oracles import (
    Face,
    Flag,
    adjacent_flag,
    all_faces,
    brute_coset,
    construction_flag_tables,
    face,
    face_at,
    face_sort_key,
    faces_on_no_flag,
    flag_graph,
    flags,
    greatest_face,
    id_of,
    is_incident,
    label,
    pairwise_covers,
    product_poset,
    propagate,
    rank_faces,
    sectionwise_strong_flag_connectedness,
    skeleton,
    tree_order_equals_coset_inclusion,
    vertex,
)

from graphicahedron import (
    CayleyGraph,
    DisconnectedGraphError,
    build,
    build_cayley,
    components,
    constructed_group_order,
    face_count,
    facet_census,
    flag_count,
    full_aut_order_via_flags,
    identity,
    labelled_poset,
    make_graph,
    one_skeleton_equals_cayley,
    permutahedron_oracle,
    posets_isomorphic,
    preset_graph,
    transposition_of_edge,
    verify_diamond,
    verify_strong_flag_connectedness,
    vertex_figure_is_simplex,
)
import graphicahedron
from graphicahedron import polytope, posets
from graphicahedron.errors import CapacityError
from graphicahedron.polytope import (
    Skeleton,
    build_skeleton,
    drop_face,
    face_id,
)
from graphicahedron.posets import RankedPoset

SMALL_PRESETS = [
    ("path", 1),
    ("path", 2),
    ("path", 3),
    ("path", 4),
    ("cycle", 3),
    ("cycle", 4),
    ("star", 3),
    ("star", 4),
    ("paw", None),
    ("fork", None),
]


def hedron(name, n=None):
    return build(preset_graph(name, n))


# ---------------------------------------------------------------------------
# Construction


def test_single_edge_is_a_segment():
    P = hedron("path", 1)
    assert P.f_vector() == (2, 1)


def test_two_edges_give_a_hexagon():
    P = hedron("path", 2)
    assert P.f_vector() == (6, 6, 1)


def test_triangle_f_vector():
    assert hedron("cycle", 3).f_vector() == (6, 9, 3, 1)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        build(make_graph(4, [(0, 1), (2, 3)]))


def test_build_capacity():
    with pytest.raises(CapacityError):
        build(preset_graph("path", 7), max_perms=5040 - 1)


def test_faces_are_self_canonical_and_deduplicated():
    for name, n in [("cycle", 3), ("paw", None), ("star", 3)]:
        P = hedron(name, n)
        for f in all_faces(P):
            assert face(P, f.edges, f.rep) == f
            assert f.rank == len(f.edges)
        for r in range(P.rank + 1):
            faces = rank_faces(P, r)
            assert len(set(faces)) == len(faces)


def relabelled(graph, seed):
    """The same graph with its vertices renamed and its edges listed in
    another order, both shuffled by ``seed``."""
    rng = random.Random(seed)
    sigma = list(range(graph.p))
    rng.shuffle(sigma)
    edges = [(sigma[i], sigma[j]) for i, j in graph.edges]
    rng.shuffle(edges)
    return make_graph(graph.p, edges)


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:5", "path:5", "star:5"])
@pytest.mark.parametrize("shuffled", [False, True])
def test_build_emits_faces_in_sort_key_order(spec, shuffled):
    name, _, n = spec.partition(":")
    g = preset_graph(name, int(n) if n else None)
    if shuffled:
        g = relabelled(g, spec)
    P = build(g)
    for r in range(P.rank + 1):
        faces = rank_faces(P, r)
        assert faces == sorted(faces, key=face_sort_key)


def test_face_reps_are_the_vertex_tuples():
    # every representative is taken from the one lex-ordered table of
    # permutations, the vertices' own, and no face makes a tuple of its own
    P = build(preset_graph("path", 4))
    assert len(P.vertex_reps) == 120
    for _, reps in P.blocks:
        for rep in reps:
            assert rep is P.vertex_reps[P.vertex_reps.index(rep)]


def test_build_skeleton_matches_the_skeleton_of_build():
    for g in (preset_graph("paw"), preset_graph("fork"), relabelled(preset_graph("cycle", 4), 1)):
        P = build(g)
        for k in range(g.q):
            skel, expected = build_skeleton(g, k), skeleton(P, k)
            assert skel.blocks == expected.blocks
            assert tuple(skel.vertex_edges()) == tuple(expected.vertex_edges())


def test_build_skeleton_checks_capacity_then_connectivity_then_rank():
    with pytest.raises(CapacityError):
        build_skeleton(make_graph(8, [(0, 1), (2, 3)]), 9)
    with pytest.raises(DisconnectedGraphError):
        build_skeleton(make_graph(4, [(0, 1), (2, 3)]), 9)
    with pytest.raises(ValueError, match="skeleton rank 4 out of range 0..3"):
        build_skeleton(preset_graph("paw"), 4)


def test_vertices_and_top():
    P = hedron("cycle", 3)
    assert len(P.faces(0)) == math.factorial(3)
    top = greatest_face(P)
    assert top.rank == 3 and top.edges == frozenset(range(3))
    assert all(is_incident(P, f, top) for f in all_faces(P))


def test_face_count_formula_matches_enumeration():
    for name, n in SMALL_PRESETS + [("path", 5), ("cycle", 6)]:
        P = hedron(name, n)
        for r in range(P.rank + 1):
            assert face_count(P.graph, r) == len(P.faces(r))
    assert face_count(preset_graph("cycle", 3), 1) == 9
    assert face_count(preset_graph("cycle", 3), 0) == 6
    assert face_count(preset_graph("cycle", 3), 3) == 1


def test_face_count_against_coset_dedup():
    # independent route: canonicalize all p! pairs per K and count distinct reps
    for name, n in [("cycle", 3), ("path", 3), ("paw", None)]:
        g = preset_graph(name, n)
        P = build(g)
        for size in range(g.q + 1):
            total = 0
            for combo in itertools.combinations(range(g.q), size):
                part = components(P.graph, combo)
                total += len({
                    tuple(min(brute_coset(part, a)))
                    for a in itertools.permutations(range(g.p))
                })
            assert total == len(P.faces(size))


# ---------------------------------------------------------------------------
# Incidence


def test_incidence_reflexive_and_examples():
    P = hedron("cycle", 3)
    for f in all_faces(P):
        assert is_incident(P, f, f)
    alpha = (1, 2, 0)
    v = vertex(alpha)
    e = face(P, [0], alpha)
    assert is_incident(P, v, e)


def test_incidence_example_decided_by_coset_listing():
    # vertex (empty, id) against the edge of color 1 through (1 3)
    P = hedron("cycle", 3)
    g = P.graph
    a13 = transposition_of_edge(3, (0, 2))
    edge_face = face(P, [0], a13)
    coset = brute_coset(components(P.graph, [0]), a13)
    assert (identity(3) in coset) == is_incident(P, vertex(identity(3)), edge_face)
    assert not is_incident(P, vertex(identity(3)), edge_face)
    # the two vertices genuinely below that edge are its coset members
    below = [v for v in rank_faces(P, 0) if is_incident(P, v, edge_face)]
    assert {v.rep for v in below} == coset


def test_incidence_is_a_partial_order():
    for name, n in [("path", 2), ("cycle", 3), ("paw", None)]:
        P = hedron(name, n)
        faces = all_faces(P)
        le = {(f, g) for f in faces for g in faces if is_incident(P, f, g)}
        for f in faces:
            assert (f, f) in le
        for f, g in le:
            if f != g:
                assert (g, f) not in le
        succ = {}
        for f, g in le:
            succ.setdefault(f, []).append(g)
        for f, g in le:
            for h in succ.get(g, ()):
                assert (f, h) in le


# ---------------------------------------------------------------------------
# Flags


def test_flag_counts():
    assert flag_count(hedron("path", 2)) == 12
    assert flag_count(hedron("cycle", 3)) == 36
    assert flag_count(hedron("paw")) == 576


def test_flags_enumeration_is_deterministic_and_complete():
    P = hedron("cycle", 3)
    all_flags = list(flags(P))
    assert len(all_flags) == 36
    assert len(set(all_flags)) == 36
    assert all_flags == list(flags(P))


def test_adjacent_flag_examples():
    P = hedron("path", 2)
    phi = Flag((0, 1), identity(3))
    tau0 = transposition_of_edge(3, P.graph.edges[0])
    assert adjacent_flag(P, phi, 0) == Flag((0, 1), tau0)
    assert adjacent_flag(P, phi, 1) == Flag((1, 0), identity(3))
    with pytest.raises(ValueError):
        adjacent_flag(P, phi, 2)


def test_adjacent_flag_is_a_fixed_point_free_involution():
    for name, n in SMALL_PRESETS:
        P = hedron(name, n)
        if flag_count(P) > 10**4:
            continue
        for phi in flags(P):
            for j in range(P.rank):
                psi = adjacent_flag(P, phi, j)
                assert psi != phi
                assert adjacent_flag(P, psi, j) == phi


def test_distant_adjacencies_commute():
    for name, n in SMALL_PRESETS:
        P = hedron(name, n)
        if flag_count(P) > 10**4:
            continue
        pairs = [
            (j, k)
            for j in range(P.rank)
            for k in range(j + 2, P.rank)
        ]
        for phi in flags(P):
            for j, k in pairs:
                a = adjacent_flag(P, adjacent_flag(P, phi, j), k)
                b = adjacent_flag(P, adjacent_flag(P, phi, k), j)
                assert a == b


@pytest.mark.parametrize("name, n", SMALL_PRESETS)
def test_poset_flag_graph_has_pq_flags_and_is_thin(name, n):
    P = hedron(name, n)
    chains, tables = flag_graph(P)
    assert len(chains) == flag_count(P) == math.factorial(P.graph.p) * math.factorial(P.rank)
    assert len(set(chains)) == len(chains)
    for s, table in enumerate(tables):
        for x, y in enumerate(table):
            assert y != x and table[y] == x
            assert chains[x][:s] + chains[x][s + 1:] == chains[y][:s] + chains[y][s + 1:]


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:4"])
def test_construction_flag_graph_maps_onto_the_poset_flag_graph(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    count, construction = construction_flag_tables(P)
    _, tables = flag_graph(P)
    assert any(propagate(construction, tables, k) is not None for k in range(count))


def without_vertices(P, *labels):
    """The store without the vertices named by their labels."""
    for name in labels:
        (v,) = [v for v in P.faces(0) if face_id(P, v) == name]
        P = drop_face(P, v)
    return P


# Two opposite vertices of a 2-face: paw's hexagon K{2,4} and fork's square K{1,3}.
OPPOSITE_VERTICES = {"paw": ("K{}:a(1,2,3,4)", "K{}:a(1,2,4,3)"), "fork": ("K{}:a(1,2,3,4,5)", "K{}:a(2,1,4,3,5)")}


@pytest.mark.parametrize("name", ["paw", "fork"])
def test_strong_flag_connectedness_builds_no_flag_graph(monkeypatch, name):
    # No module of the library defines a flag graph, and the verifier does
    # not go through the frame propagation either: it walks covers.
    for info in pkgutil.iter_modules(graphicahedron.__path__):
        module = importlib.import_module(f"graphicahedron.{info.name}")
        assert not any(hasattr(module, attr) for attr in ("flag_graph", "propagate")), info.name
    assert not hasattr(posets.RankedPoset, "_flag_tables")
    P = hedron(name)
    # the store, then without two opposite vertices of a 2-face, which fails
    # a section, then without its greatest face, which leaves faces on no flag
    stores = [P, without_vertices(P, *OPPOSITE_VERTICES[name]), drop_face(P, len(P) - 1)]
    expected = [sectionwise_strong_flag_connectedness(store) for store in stores[:2]]

    def refuse(*args):
        raise AssertionError("a frame map was built")

    monkeypatch.setattr(posets, "map_frame", refuse)
    got = [verify_strong_flag_connectedness(store) for store in stores]
    assert got[:2] == expected
    assert got[0].passed and not any(report.passed for report in got[1:])
    assert got[2].failure.endswith(" lies on no flag")


def test_flag_graph_rejects_a_poset_that_is_not_thin():
    # one edge over three vertices
    with pytest.raises(ValueError, match="poset is not thin"):
        flag_graph(RankedPoset([0, 0, 0, 1], [[], [], [], [0, 1, 2]]))
    # one edge over one vertex
    with pytest.raises(ValueError, match="poset is not thin"):
        flag_graph(RankedPoset([0, 1], [[], [0]]))


# ---------------------------------------------------------------------------
# Axioms


def test_diamond_passes_on_presets():
    for name, n in [("path", 2), ("cycle", 3), ("paw", None)]:
        report = verify_diamond(hedron(name, n))
        assert report.passed, report.failure


def test_diamond_fails_with_witness_on_corrupted_poset():
    P = hedron("path", 2)
    corrupted = drop_face(P, P.first_of_rank(1))
    report = verify_diamond(corrupted)
    assert not report.passed
    assert report.failure is not None and "expected 2" in report.failure


def test_strong_flag_connectedness_passes():
    for name, n in [("path", 2), ("cycle", 3), ("paw", None)]:
        report = verify_strong_flag_connectedness(hedron(name, n))
        assert report.passed, report.failure


def test_strong_flag_connectedness_negative_control():
    # two opposite vertices of a hexagon leave its section in two pieces,
    # though every single face drop but the greatest face's passes
    report = same_report(without_vertices(hedron("paw"), *OPPOSITE_VERTICES["paw"]))
    assert (report.passed, report.checked) == (False, 17)
    assert report.failure == "section [least face, K{2,4}:a(1,2,3,4)] has a disconnected flag graph"


# Presets whose flag graphs the section-by-section oracle walks in about a second.
ORACLE_PRESETS = SMALL_PRESETS + [("cycle", 5)]


def same_report(P):
    new = verify_strong_flag_connectedness(P)
    old = sectionwise_strong_flag_connectedness(P)
    assert (new.passed, new.checked, new.failure) == (old.passed, old.checked, old.failure)
    return new


@pytest.mark.parametrize("name, n", ORACLE_PRESETS)
def test_strong_flag_connectedness_matches_the_sectionwise_oracle(name, n):
    assert same_report(hedron(name, n)).passed


@pytest.mark.parametrize("spec", ["path:2", "cycle:3", "star:3", "path:3", "paw"])
def test_strong_flag_connectedness_matches_the_oracle_under_every_face_drop(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    for i in range(P.first_of_rank(P.rank)):
        same_report(drop_face(P, i))


def test_strong_flag_connectedness_matches_the_oracle_at_rank_5_with_faces_dropped():
    # every 150th single-face drop of cycle:5, then seeded drops of 3 to 12
    # faces, which fail in sections above the least face and above a vertex
    P = hedron("cycle", 5)
    faces = [face for face in all_faces(P) if face.rank < P.rank]
    stores = [drop_face(P, id_of(P, face)) for face in faces[::150]]
    rng = random.Random(0)
    for _ in range(3):
        corrupted = P
        for face in rng.sample(faces, rng.randint(3, 12)):
            corrupted = drop_face(corrupted, id_of(corrupted, face))
        stores.append(corrupted)
    reports = [same_report(store) for store in stores]
    assert [report.passed for report in reports] == [True] * 5 + [False] * 3


@pytest.mark.parametrize("spec", ["cycle:3", "paw"])
def test_drop_face_drops_exactly_the_face_of_its_id(spec):
    # the greatest face's block empties, and every other id moves down by one
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    faces = all_faces(P)
    for i in range(len(P)):
        assert all_faces(drop_face(P, i)) == faces[:i] + faces[i + 1:]


def test_drop_face_refuses_an_id_outside_the_store():
    # a negative id would otherwise slice a face off the end of a block
    P = hedron("paw")
    for i in (len(P), -1):
        with pytest.raises(ValueError, match=rf"^face id {i} out of range 0..{len(P) - 1}$"):
            drop_face(P, i)


def test_dropping_the_greatest_face_leaves_every_face_on_no_flag():
    P = hedron("cycle", 3)
    corrupted = drop_face(P, id_of(P, greatest_face(P)))
    assert sectionwise_strong_flag_connectedness(corrupted).passed
    report = verify_strong_flag_connectedness(corrupted)
    assert not report.passed
    assert report.failure == "K{}:a(1,2,3) lies on no flag"


def test_a_store_without_its_greatest_face_says_so():
    corrupted = drop_face(hedron("cycle", 3), len(hedron("cycle", 3)) - 1)
    with pytest.raises(ValueError, match="^no greatest face: 0 faces of rank 3 are stored$"):
        greatest_face(corrupted)


@pytest.mark.parametrize("name", ["paw", "fork"])
def test_the_store_and_its_walks_make_no_face_objects(monkeypatch, name):
    # the walks run on integer ids: the oracles' tuple Face is never built
    g = preset_graph(name)
    intact = build(g)
    facet = intact.faces(g.q - 1)[0]
    expected = intact.interval_below(facet).f_vector()
    made = []
    init = Face.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(label(self))

    monkeypatch.setattr(Face, "__init__", recorded)
    P = build(g)
    build_skeleton(g, g.q - 1)
    P.up  # builds the cover lists before the walks use them
    assert verify_diamond(P).passed
    assert verify_strong_flag_connectedness(P).passed
    assert P.is_simple
    assert full_aut_order_via_flags(P) == constructed_group_order(g)
    assert P.interval_below(facet).f_vector() == expected
    # the census names one sample facet per type by its label, from its id
    census = facet_census(P)
    assert made == []
    facets = {face_id(P, i) for i in P.faces(g.q - 1)}
    assert {sample for _, _, sample in census.entries} <= facets


def test_no_module_defines_a_face_type():
    # a face is an integer id; the tuple form lives in the tests' oracles
    for info in pkgutil.iter_modules(graphicahedron.__path__):
        module = importlib.import_module(f"graphicahedron.{info.name}")
        assert not hasattr(module, "Face"), info.name
    assert not hasattr(graphicahedron, "Face")


def two_face_drops(spec, sample=None, seed=0):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    pairs = list(itertools.combinations(range(len(P)), 2))
    if sample is not None:
        pairs = random.Random(seed).sample(pairs, sample)
    return [drop_face(drop_face(P, g), f) for f, g in pairs]


@pytest.mark.parametrize("spec, sample", [("cycle:3", None), ("path:3", 200)])
def test_strong_flag_connectedness_under_two_face_drops(spec, sample):
    for corrupted in two_face_drops(spec, sample):
        expected = sectionwise_strong_flag_connectedness(corrupted).passed and not faces_on_no_flag(corrupted)
        assert verify_strong_flag_connectedness(corrupted).passed == expected


@pytest.mark.parametrize("spec", ["cycle:3", "path:3", "star:3", "paw", "cycle:4"])
def test_strong_flag_connectedness_under_seeded_multi_face_drops(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    faces = all_faces(P)
    rng = random.Random(0)
    for _ in range(200):
        corrupted = P
        for face in rng.sample(faces, rng.randint(3, 12)):
            corrupted = drop_face(corrupted, id_of(corrupted, face))
        new = verify_strong_flag_connectedness(corrupted)
        old = sectionwise_strong_flag_connectedness(corrupted)
        assert new.passed == (old.passed and not faces_on_no_flag(corrupted))
        if not old.passed:  # the oracle's witness is a section
            assert (new.checked, new.failure) == (old.checked, old.failure)


def test_coatoms_sharing_only_an_atom_leave_a_section_disconnected():
    # Two facets of cycle:3 left sharing vertices but no edge.  Comparing
    # the facets' vertex sets instead of their edge sets would pass the
    # section [least face, greatest face] and name a later one.
    P = hedron("cycle", 3)
    dropped = {
        "K{1,2}:a(1,2,3)", "K{1}:a(1,3,2)", "K{1}:a(3,1,2)", "K{2}:a(2,1,3)", "K{2}:a(2,3,1)",
        "K{3}:a(1,2,3)", "K{3}:a(1,3,2)", "K{3}:a(2,1,3)", "K{}:a(1,3,2)", "K{}:a(3,2,1)",
    }
    for face in all_faces(P):
        if label(face) in dropped:
            P = drop_face(P, id_of(P, face))
    report = same_report(P)
    assert (report.passed, report.checked) == (False, 3)
    assert report.failure == "section [least face, K{1,2,3}:a(1,2,3)] has a disconnected flag graph"


def test_a_section_fails_while_the_full_flag_graph_stays_connected():
    # two vertices joined by color 2 leave the hexagon K{1,3} in two pieces
    report = same_report(without_vertices(hedron("cycle", 3), "K{}:a(1,2,3)", "K{}:a(1,3,2)"))
    assert (report.passed, report.checked) == (False, 2)
    assert report.failure == "section [least face, K{1,3}:a(1,2,3)] has a disconnected flag graph"


def test_vertex_figures_are_boolean():
    for name, n in [("path", 2), ("paw", None)]:
        P = hedron(name, n)
        results = [vertex_figure_is_simplex(P, v) for v in P.faces(0)]
        assert all(results)
        assert len(set(results)) == 1  # uniform across the vertex-transitive orbit


def test_vertex_figure_rejects_non_vertex():
    P = hedron("path", 2)
    for i in (len(P) - 1, P.first_of_rank(1), -1, len(P)):
        with pytest.raises(ValueError, match="vertex figures are computed at rank-0 faces"):
            vertex_figure_is_simplex(P, i)


def test_vertex_figure_detects_missing_face():
    P = hedron("paw")
    v = vertex(P.vertex_reps[0])
    above = [f for f in rank_faces(P, 2) if is_incident(P, v, f)]
    corrupted = drop_face(P, id_of(P, above[0]))
    assert not vertex_figure_is_simplex(corrupted, id_of(corrupted, v))


def test_vertex_figures_fail_exactly_under_a_dropped_face():
    # a vertex keeps its id when a face of rank 2 is dropped
    P = hedron("paw")
    for dropped in rank_faces(P, 2):
        corrupted = drop_face(P, id_of(P, dropped))
        for i, v in enumerate(rank_faces(P, 0)):
            assert vertex_figure_is_simplex(corrupted, i) == (not is_incident(P, v, dropped))


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:4", "path:4", "star:4", "cycle:5"])
def test_direct_covers_match_pairwise_scan(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    assert P.covers() == pairwise_covers(P)
    if spec in ("paw", "fork"):
        corrupted = drop_face(P, P.first_of_rank(P.rank - 1))
        assert corrupted.covers() == pairwise_covers(corrupted)


@pytest.mark.parametrize("spec", ["fork", "cycle:5", "path:5"])
def test_cover_lists_share_one_int_per_id(spec):
    # an id's int object is made once, not once per face that covers it or
    # that it covers
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    held = [i for lists in (P.down, P.up) for ids in lists for i in ids]
    assert len(set(map(id, held))) == len(set(held))


# (verify_diamond, verify_strong_flag_connectedness) ``checked`` counts,
# recorded from the pairwise-incidence implementation; path:5 and star:5
# from the flag-graph route that came before the walk of covers.  The
# second count is the sections walked: one less than those routes
# recorded, which also counted the full flag graph.  cycle:6, whose
# sections reach seven ranks deep, from the walk that checked the least
# face apart from the proper faces.
PINNED_CHECKED = {
    "fork": (1820, 1006),
    "path:4": (1830, 1021),
    "star:4": (1800, 981),
    "cycle:5": (4125, 4001),
    "path:5": (25020, 24243),
    "star:5": (23700, 23251),
    "cycle:6": (52026, 81193),
}


@pytest.mark.parametrize("spec", sorted(PINNED_CHECKED))
def test_verifier_counts_are_pinned(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    diamond = verify_diamond(P)
    connected = verify_strong_flag_connectedness(P)
    assert diamond.passed and connected.passed
    assert (diamond.checked, connected.checked) == PINNED_CHECKED[spec]


# ---------------------------------------------------------------------------
# Skeleta


def test_skeleton_of_hexagon_is_a_six_cycle():
    P = hedron("path", 2)
    skel = skeleton(P, 1)
    assert len(skel.faces(0)) == 6
    edges = tuple(skel.vertex_edges())
    assert len(edges) == 6
    degree = {}
    for u, v, _ in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert set(degree.values()) == {2}
    # single cycle: connected
    adj = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for u in frontier for w in adj[u] if w not in seen and not seen.add(w)]
    assert len(seen) == 6


def test_skeleton_rank_zero_is_isolated_vertices():
    P = hedron("cycle", 3)
    skel = skeleton(P, 0)
    assert len(skel.faces(0)) == 6
    assert tuple(skel.vertex_edges()) == ()


def test_skeleton_c3_counts():
    skel = skeleton(hedron("cycle", 3), 1)
    assert len(skel.faces(0)) == 6
    assert len(tuple(skel.vertex_edges())) == 9


def test_skeleton_range_check():
    with pytest.raises(ValueError):
        skeleton(hedron("path", 2), 2)


def test_one_skeleton_equals_cayley():
    for name, n in SMALL_PRESETS:
        g = preset_graph(name, n)
        assert one_skeleton_equals_cayley(build(g), build_cayley(g))


def test_one_skeleton_mismatched_inputs():
    P = hedron("path", 2)
    assert not one_skeleton_equals_cayley(P, build_cayley(preset_graph("cycle", 3)))
    # same p and q but different edge sets
    assert not one_skeleton_equals_cayley(
        hedron("path", 3), build_cayley(preset_graph("star", 3))
    )


@pytest.mark.parametrize("name, n", [*SMALL_PRESETS, ("relabelled-cycle", 4)])
def test_skeleton_edges_equal_cayley_edges(name, n):
    # compared in order, so vertex ids must equal Cayley indices; the ranks
    # up to 1 include the greatest face when q = 1
    g = relabelled(preset_graph("cycle", n), 2) if name == "relabelled-cycle" else preset_graph(name, n)
    ones = Skeleton(g, (b for b in build(g).blocks if len(b[0]) <= 1))
    assert tuple(ones.vertex_edges()) == tuple(sorted(build_cayley(g).edges()))


@pytest.mark.parametrize("name, n", [("paw", None), ("cycle", 4)])
@pytest.mark.parametrize("rank", [0, 1])
def test_one_skeleton_rejects_a_dropped_face(name, n, rank):
    g = preset_graph(name, n)
    P = build(g)
    assert not one_skeleton_equals_cayley(drop_face(P, P.first_of_rank(rank) + 5), build_cayley(g))


def test_vertex_edges_of_a_store_without_a_vertex_and_its_edges():
    # a store that lacks a vertex is not a full store
    g = preset_graph("cycle", 4)
    P = build(g)
    gone = vertex(P.vertex_reps[5])
    skel = Skeleton(g, (
        (edges, tuple(r for r in reps if not is_incident(P, gone, Face(edges, r))))
        for edges, reps in P.blocks if len(edges) <= 1
    ))
    assert len(skel.vertex_reps) == 23
    with pytest.raises(ValueError, match=r"block K\{\} is not the 24 vertices in lex order"):
        skel.vertex_edges()


@pytest.mark.parametrize("name, n", [("paw", None), ("cycle", 4)])
def test_vertex_edges_of_a_partial_rank_one_block(name, n):
    # a rank-1 block without one face is not its color's whole matching
    g = preset_graph(name, n)
    P = build(g)
    gone = P.first_of_rank(1) + 5
    ones = Skeleton(g, (b for b in drop_face(P, gone).blocks if len(b[0]) <= 1))
    (e,) = face_at(P, gone).edges
    with pytest.raises(ValueError, match=rf"block K\{{{e + 1}\}} is not the lower ends of color {e + 1}'s"):
        ones.vertex_edges()


def test_vertex_edges_rejects_a_missing_rank_one_block():
    # paw without the block of edge 1-2 raises rather than write 36 of its
    # 48 edges
    g = preset_graph("paw")
    ones = Skeleton(g, (b for b in build(g).blocks if len(b[0]) <= 1 and b[0] != {0}))
    assert len(ones.faces(1)) == 36
    with pytest.raises(ValueError, match=r"block K\{1\} is not the lower ends of color 1's Cayley matching"):
        ones.vertex_edges()


def test_vertex_edges_rejects_a_representative_that_is_not_the_lesser():
    g = preset_graph("cycle", 3)
    P = build(g)
    (edges, reps), cayley = P.blocks[1], build_cayley(g)
    (e,) = edges
    upper = cayley.perms[cayley.neighbor[e][cayley.perms.index(reps[0])]]
    blocks = [b if b[0] != edges else (edges, (upper,) + reps[1:]) for b in P.blocks if len(b[0]) <= 1]
    with pytest.raises(ValueError, match=rf"block K\{{{e + 1}\}} is not the lower ends of color {e + 1}'s"):
        Skeleton(g, blocks).vertex_edges()


def test_vertex_edges_rejects_a_skeleton_missing_an_endpoint():
    P = hedron("cycle", 3)
    with pytest.raises(ValueError, match=r"block K\{\} is not the 6 vertices in lex order"):
        skeleton(drop_face(P, 2), 1).vertex_edges()


def test_one_skeleton_rejects_a_mis_paired_cayley_table(monkeypatch):
    # color 0's table swaps the partners of its first two lower ends: still a
    # matching with the same lower ends, so only the store's own covers
    # tell it from the Cayley graph
    g = preset_graph("paw")
    init = CayleyGraph.__init__

    def mis_paired(self, graph):
        init(self, graph)
        table = self.neighbor[0]
        a, b = [u for u in range(self.n_vertices) if table[u] > u][:2]
        a2, b2 = table[a], table[b]
        assert a2 > b
        table[a], table[b2], table[b], table[a2] = b2, a, a2, b

    monkeypatch.setattr(CayleyGraph, "__init__", mis_paired)
    cayley = build_cayley(g)
    table = cayley.neighbor[0]
    assert all(table[table[u]] == u != table[u] for u in range(cayley.n_vertices))
    assert not one_skeleton_equals_cayley(build(g), cayley)


# ---------------------------------------------------------------------------
# Order versus coset inclusion, and facet products


def test_tree_order_equals_coset_inclusion_for_trees():
    holds, witness = tree_order_equals_coset_inclusion(preset_graph("path", 3))
    assert holds and witness is None
    holds, witness = tree_order_equals_coset_inclusion(preset_graph("star", 3))
    assert holds and witness is None


def test_cycle_breaks_coset_inclusion_equivalence():
    holds, witness = tree_order_equals_coset_inclusion(preset_graph("cycle", 3))
    assert not holds
    f, g = witness
    # the witness really is a containment of cosets without face incidence
    P = build(preset_graph("cycle", 3))
    assert not is_incident(P, f, g)
    assert brute_coset(components(P.graph, f.edges), f.rep) <= brute_coset(components(P.graph, g.edges), g.rep)
    assert not (f.edges <= g.edges)


def fork_facet_interval():
    P = hedron("fork")
    return P.interval_below(len(P) - 2)


NUMBERED_POSETS = {
    "fork store": lambda: hedron("fork"),
    "fork facet interval": fork_facet_interval,
    "prism": lambda: product_poset(hedron("path", 1), hedron("path", 2)),
    "permutahedron oracle": lambda: permutahedron_oracle(3),
    "labelled prism": lambda: labelled_poset(preset_graph("fork"), [0, 2, 3]),
}


@pytest.mark.parametrize("name", NUMBERED_POSETS)
def test_posets_are_numbered_rank_by_rank(name):
    P = NUMBERED_POSETS[name]()
    ranks = list(P.ranks)
    assert ranks == sorted(ranks) and ranks[-1] == P.rank and ranks.count(P.rank) == 1
    by_rank = [[i for i in range(len(P)) if ranks[i] == r] for r in range(P.rank + 1)]
    assert [list(level) for level in P.levels] == by_rank
    for i, below in enumerate(P.down):
        assert list(below) == sorted(below) and all(ranks[j] == ranks[i] - 1 for j in below)
        assert all(i in P.up[j] for j in below)
    assert sum(map(len, P.up)) == sum(map(len, P.down))


def test_prism_facets_are_products_of_component_polytopes():
    # a facet over a disconnected edge set is the product of the
    # graphicahedra of its nontrivial components
    fork = preset_graph("fork")
    P = build(fork)
    prism_K = frozenset([0, 2, 3])  # segment {1,2} plus path 4-3-5
    facets = [f for f in rank_faces(P, 3) if f.edges == prism_K]
    assert len(facets) == 10
    segment = build(preset_graph("path", 1))
    hexagon = build(preset_graph("path", 2))
    expected = product_poset(segment, hexagon)
    for facet in facets[:2]:
        assert posets_isomorphic(P.interval_below(id_of(P, facet)), expected)


def test_face_id_format():
    P = build(make_graph(4, [(1, 2), (0, 3), (2, 3)]))
    i = id_of(P, Face(frozenset([0, 2]), (1, 0, 2, 3)))
    assert face_id(P, i) == "K{1,3}:a(2,1,3,4)"


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:4"])
def test_face_id_labels_every_id_as_the_oracle_does(spec):
    # every id, the first and last of each block included
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    assert [face_id(P, i) for i in range(len(P))] == list(map(label, all_faces(P)))
    for i in (-1, len(P)):
        with pytest.raises(ValueError, match=f"face id {i} out of range"):
            face_id(P, i)


def test_trivial_graph_gives_the_point_polytope():
    P = build(make_graph(1, []))
    assert P.f_vector() == (1,)
    assert flag_count(P) == 1
    assert list(flags(P)) == [Flag((), (0,))]
    assert verify_diamond(P).passed
    assert verify_strong_flag_connectedness(P).passed
    assert vertex_figure_is_simplex(P, id_of(P, greatest_face(P)))


def test_single_edge_polytope_axioms():
    P = hedron("path", 1)
    assert verify_diamond(P).passed
    assert verify_strong_flag_connectedness(P).passed
    assert all(vertex_figure_is_simplex(P, v) for v in P.faces(0))
