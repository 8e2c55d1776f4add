import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import (
    all_faces,
    apply_graph_aut,
    apply_right,
    conjugate,
    face,
    flag_aut_order,
    frames_by_filter,
    greatest_face,
    is_incident,
    propagate,
    rank_faces,
    vertex,
)

import graphicahedron

from graphicahedron import (
    aut_summary,
    automorphisms,
    build,
    constructed_group_order,
    facet_census,
    flag_count,
    full_aut_order_via_flags,
    identity,
    is_regular,
    is_vertex_transitive,
    labelled_poset,
    make_graph,
    preset_graph,
)
from graphicahedron import posets, symmetry
from graphicahedron.errors import CapacityError
from graphicahedron.polytope import drop_face
from graphicahedron.symmetry import regular_by_graph_shape, semidirect_applies


def hedron(name, n=None):
    return build(preset_graph(name, n))


def test_apply_right_identity_and_vertices():
    P = hedron("cycle", 3)
    gamma = (1, 2, 0)
    for f in all_faces(P):
        assert apply_right(P, identity(3), f) == f
    v = vertex((2, 0, 1))
    moved = apply_right(P, gamma, v)
    assert moved.edges == frozenset()
    assert moved.rep == tuple(v.rep[gamma[x]] for x in range(3))  # right multiplication


def test_apply_right_fixes_greatest_face():
    P = hedron("paw")
    top = greatest_face(P)
    for gamma in itertools.permutations(range(4)):
        assert apply_right(P, gamma, top) == top


def test_apply_right_permutes_each_rank():
    P = hedron("cycle", 3)
    gamma = (1, 2, 0)
    for r in range(P.rank + 1):
        faces = rank_faces(P, r)
        images = {apply_right(P, gamma, f) for f in faces}
        assert images == set(faces)


def test_apply_graph_aut_identity():
    P = hedron("paw")
    ident = next(a for a in automorphisms(P.graph) if a.is_identity)
    for f in all_faces(P):
        assert apply_graph_aut(P, ident, f) == f


def test_apply_graph_aut_path_reversal_swaps_edge_faces():
    P = hedron("path", 2)
    reversal = next(a for a in automorphisms(P.graph) if not a.is_identity)
    e0 = face(P, [0], identity(3))
    image = apply_graph_aut(P, reversal, e0)
    assert image == face(P, [1], identity(3))  # conjugating the identity gives the identity


def test_both_actions_preserve_incidence():
    # exhaustive at p <= 4, sampled pairs at p = 5
    for name, n in [("cycle", 3), ("paw", None)]:
        P = hedron(name, n)
        faces = all_faces(P)
        gammas = [(1, 0) + tuple(range(2, P.graph.p)), tuple(range(1, P.graph.p)) + (0,)]
        for gamma in gammas:
            for f in faces:
                for g in faces:
                    assert is_incident(P, f, g) == is_incident(
                        P, apply_right(P, gamma, f), apply_right(P, gamma, g)
                    )
        for kappa in automorphisms(P.graph):
            for f in faces:
                for g in faces:
                    assert is_incident(P, f, g) == is_incident(
                        P, apply_graph_aut(P, kappa, f), apply_graph_aut(P, kappa, g)
                    )
    fork = hedron("fork")
    sample = all_faces(fork)[::13]
    gamma = (1, 2, 3, 4, 0)
    kappa = next(a for a in automorphisms(fork.graph) if not a.is_identity)
    for f in sample:
        for g in sample:
            assert is_incident(fork, f, g) == is_incident(
                fork, apply_right(fork, gamma, f), apply_right(fork, gamma, g)
            )
            assert is_incident(fork, f, g) == is_incident(
                fork, apply_graph_aut(fork, kappa, f), apply_graph_aut(fork, kappa, g)
            )


def test_constructed_group_order():
    assert constructed_group_order(preset_graph("cycle", 3)) == 36
    assert constructed_group_order(preset_graph("paw")) == 48
    assert constructed_group_order(preset_graph("fork")) == 240
    assert constructed_group_order(preset_graph("star", 3)) == 144


def test_single_edge_is_the_excluded_case():
    g = preset_graph("path", 1)
    assert constructed_group_order(g) == 2  # the true order, not p! * |aut| = 4
    assert not semidirect_applies(g)
    assert semidirect_applies(preset_graph("path", 2))


def test_full_aut_order_examples():
    assert full_aut_order_via_flags(hedron("path", 2)) == 12  # hexagon dihedral group
    assert full_aut_order_via_flags(hedron("cycle", 3)) == 36
    assert full_aut_order_via_flags(hedron("paw")) == 48


def test_flag_count_oracle_matches_constructed_order():
    for name, n in [
        ("path", 2),
        ("path", 3),
        ("path", 4),
        ("cycle", 3),
        ("cycle", 4),
        ("cycle", 5),  # 14 400 flags
        ("star", 3),
        ("star", 4),
        ("paw", None),
        ("fork", None),
    ]:
        P = hedron(name, n)
        assert full_aut_order_via_flags(P, max_flags=20000) == constructed_group_order(P.graph)


@pytest.mark.parametrize("spec", [
    "path:2", "path:3", "path:4", "cycle:3", "cycle:4", "cycle:5", "star:3", "star:4", "paw", "fork",
])
def test_frame_count_equals_the_flag_count(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    assert full_aut_order_via_flags(P, max_flags=20000) == flag_aut_order(P)


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:4"])
def test_both_counts_reject_every_single_face_drop(spec):
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    for i in range(len(P)):
        dropped = drop_face(P, i)
        with pytest.raises(ValueError, match="poset is not thin"):
            full_aut_order_via_flags(dropped)
        with pytest.raises(ValueError, match="poset is not thin"):
            flag_aut_order(dropped)


def test_cycle6_counts_on_frames_at_p6():
    P = hedron("cycle", 6)
    assert full_aut_order_via_flags(P, max_flags=10**6) == 8640 == constructed_group_order(P.graph)
    assert is_vertex_transitive(P)
    assert facet_census(P).total == 6


def test_aut_summary_counts_once(monkeypatch):
    counted = []
    searched = []
    real = posets.RankedPoset.vertex_orbit_and_stabiliser.func
    real_search = symmetry.automorphisms

    def counting(poset):
        counted.append(poset)
        return real(poset)

    def searching(graph):
        searched.append(graph)
        return real_search(graph)

    count = functools.cached_property(counting)
    count.__set_name__(posets.RankedPoset, "vertex_orbit_and_stabiliser")
    monkeypatch.setattr(posets.RankedPoset, "vertex_orbit_and_stabiliser", count)
    monkeypatch.setattr(symmetry, "automorphisms", searching)
    for name, n in [("path", 1), ("star", 3), ("paw", None), ("fork", None)]:
        counted.clear()
        searched.clear()
        s = aut_summary(hedron(name, n))
        assert len(counted) == 1 and len(searched) == 1
        assert s.regular == regular_by_graph_shape(preset_graph(name, n))
        assert s.constructed_order == constructed_group_order(preset_graph(name, n))


# frame tests per count, the identity excluded (a connected 1-skeleton is
# checked without one): one per left coset of the stabiliser found so far
# at vertex 0, then one per vertex outside the orbit grown so far.  A
# vertex's edges come in edge order, so its first frame is a right
# multiplication and succeeds.
FRAME_TESTS = {"paw": 4, "fork": 5, "star:4": 5, "cycle:5": 3}


@pytest.mark.parametrize("spec", sorted(FRAME_TESTS))
def test_aut_count_tests_few_candidates(spec, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    real = posets.map_frame
    monkeypatch.setattr(posets, "map_frame", counting)
    name, _, n = spec.partition(":")
    P = hedron(name, int(n) if n else None)
    assert full_aut_order_via_flags(P, max_flags=20000) == constructed_group_order(P.graph)
    assert len(calls) == FRAME_TESTS[spec]


def store(spec):
    """The store of a preset written ``name:n``, or of K4."""
    if spec == "K4":
        return build(make_graph(4, list(itertools.combinations(range(4), 2))))
    name, _, n = spec.partition(":")
    return hedron(name, int(n) if n else None)


@pytest.mark.parametrize("spec", ["paw", "fork", "cycle:5", "star:4", "path:4", "K4"])
def test_first_frame_at_every_vertex_is_its_edge_order_and_extends(spec):
    # the claim above FRAME_TESTS: the identity order of positions into a
    # vertex's edges comes first and is a right multiplication
    P = store(spec)
    q = P.rank
    for w in range(P.first_of_rank(1)):
        assert next(posets._frames_at(P, P, w)) == tuple(range(q))
        assert posets.map_frame(P, P, w, range(q)) is not None


# Every preset with at most 6 edges, and K4, at every vertex up to p = 5 and
# at about 100 evenly spaced vertices above: over all vertices the filter
# takes about 1.5 s on cycle:6 and 11 s on each of path:6 and star:6.
FRAME_SEARCH_GRAPHS = [
    *(f"path:{n}" for n in range(1, 7)), *(f"cycle:{n}" for n in range(3, 7)),
    *(f"star:{n}" for n in range(1, 7)), "paw", "fork", "K4",
]


@pytest.mark.parametrize("spec", FRAME_SEARCH_GRAPHS)
def test_frame_search_equals_the_permutation_filter(spec):
    P = store(spec)
    n_vertices = P.first_of_rank(1)
    for w in range(0, n_vertices, max(1, n_vertices // 100)):
        assert list(posets._frames_at(P, P, w)) == list(frames_by_filter(P, P, w))


@pytest.mark.parametrize("name", ["paw", "fork"])
def test_census_frame_search_equals_the_permutation_filter(name):
    # the pairs the facet census tests: each facet's interval against the
    # labelled poset of its edge set, at every vertex of the latter
    P = hedron(name)
    for (edges, reps), start in zip(P.blocks, P.starts):
        if len(edges) == P.rank - 1:
            reference = labelled_poset(P.graph, edges)
            for i in range(start, start + len(reps)):
                interval = P.interval_below(i)
                for w in range(reference.first_of_rank(1)):
                    assert list(posets._frames_at(interval, reference, w)) == list(
                        frames_by_filter(interval, reference, w)
                    )


def _alternating_cycles(n_cycles, length):
    """Neighbor tables of ``n_cycles`` disjoint cycles of ``length`` nodes, edges colored 0, 1 alternately."""
    def along(color, x):
        block, j = divmod(x, length)
        if color == 0:
            return block * length + (j ^ 1)
        return block * length + (j + (1 if j % 2 else -1)) % length

    return [[along(c, x) for x in range(n_cycles * length)] for c in range(2)]


def test_propagate_rejects_non_injective_cover():
    big = _alternating_cycles(1, 24)
    small = _alternating_cycles(2, 12)
    wrap = [x % 12 for x in range(24)]  # color-preserving, but two-to-one
    assert all(small[c][wrap[x]] == wrap[big[c][x]] for c in range(2) for x in range(24))
    assert propagate(big, big, 5) is not None
    assert propagate(small, small, 0) is None  # not connected
    assert propagate(big, small, 0) is None


def test_package_imports_without_numpy():
    src = Path(graphicahedron.__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-c", "import graphicahedron, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )


def test_full_aut_order_reads_the_stored_poset():
    P = hedron("paw")
    with pytest.raises(ValueError, match="poset is not thin"):
        full_aut_order_via_flags(drop_face(P, P.first_of_rank(3)))


def test_full_aut_capacity():
    with pytest.raises(CapacityError):
        full_aut_order_via_flags(hedron("paw"), max_flags=100)


def test_is_regular():
    assert is_regular(hedron("cycle", 3))
    assert is_regular(hedron("star", 3))
    assert not is_regular(hedron("path", 3))
    assert is_regular(hedron("path", 1))
    assert regular_by_graph_shape(preset_graph("star", 4))
    assert not regular_by_graph_shape(preset_graph("cycle", 4))


def test_vertex_transitivity():
    assert is_vertex_transitive(hedron("path", 2))
    assert is_vertex_transitive(hedron("paw"))


def test_unique_transporter_between_vertices():
    # simply transitive: exactly one right multiplier maps u to v, per pair
    for name, n in [("path", 2), ("cycle", 3), ("paw", None)]:
        P = hedron(name, n)
        p = P.graph.p
        vertices = rank_faces(P, 0)
        for u in vertices:
            counts = {}
            for gamma in itertools.permutations(range(p)):
                img = apply_right(P, gamma, u)
                counts[img] = counts.get(img, 0) + 1
            assert set(counts.values()) == {1}
            assert len(counts) == len(vertices)


def test_semidirect_conjugation_identity():
    # conjugating a right multiplication by a graph symmetry is the right
    # multiplication by the conjugated permutation
    for name in ["paw", "fork"]:
        P = hedron(name)
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


def test_constructed_subgroups_intersect_trivially():
    # right multiplications never move the edge set; only the identity
    # graph symmetry fixes every edge subset
    for name, n in [("path", 3), ("cycle", 4), ("paw", None), ("fork", None)]:
        g = preset_graph(name, n)
        for kappa in automorphisms(g):
            if not kappa.is_identity:
                assert kappa.edge_map != tuple(range(g.q))


def test_aut_summary_invariant():
    for name, n in [("cycle", 3), ("paw", None), ("star", 3)]:
        P = hedron(name, n)
        s = aut_summary(P)
        assert s.flag_aut_order == s.sp_order * s.graph_aut_order
        assert s.flag_aut_order == s.constructed_order
        assert s.vertex_transitive
        assert s.regular == (flag_count(P) == s.flag_aut_order)
        assert s.sp_order == math.factorial(P.graph.p)
