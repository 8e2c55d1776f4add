import itertools
import math

import pytest
from oracles import (
    all_set_partitions,
    brute_coset,
    compose,
    conjugate,
    coset_le,
    coset_reps_by_recursion,
    refines,
    same_coset,
    young_subgroup,
)

from graphicahedron import (
    VertexPartition,
    automorphisms,
    canonical_rep,
    coset_size,
    identity,
    inverse,
    preset_graph,
    transposition_of_edge,
)
from graphicahedron.errors import CapacityError
from graphicahedron.perms import check_perm_capacity, coset_reps


def tau(p, i, j):
    # 1-based convenience wrapper for tests
    return transposition_of_edge(p, (i - 1, j - 1))


def test_compose_identity():
    a = (2, 0, 1)
    assert compose(identity(3), a) == a
    assert compose(a, identity(3)) == a


def test_compose_involution():
    t = tau(3, 1, 2)
    assert compose(t, t) == identity(3)


def test_compose_path_conjugation():
    # walking a transposition along the path 1-2-3: (2 3)(1 2)(2 3) = (1 3)
    assert compose(tau(3, 2, 3), compose(tau(3, 1, 2), tau(3, 2, 3))) == tau(3, 1, 3)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_applies_right_factor_first():
    a, b = (1, 2, 0), (0, 2, 1)
    c = compose(a, b)
    for x in range(3):
        assert c[x] == a[b[x]]


def test_transposition_of_edge():
    assert transposition_of_edge(3, (0, 1)) == (1, 0, 2)
    assert transposition_of_edge(3, (1, 2)) == (0, 2, 1)


def test_transposition_rejects_loop():
    with pytest.raises(ValueError):
        transposition_of_edge(3, (1, 1))


def test_inverse():
    for a in itertools.permutations(range(4)):
        assert compose(a, inverse(a)) == identity(4)
        assert compose(inverse(a), a) == identity(4)


def test_conjugate_identity_cases():
    a = (2, 0, 1)
    assert conjugate(a, identity(3)) == a
    assert conjugate(identity(3), a) == identity(3)


def test_conjugate_relabels_transposition():
    # (2 3)(1 2)(2 3) = (1 3)
    assert conjugate(tau(3, 1, 2), tau(3, 2, 3)) == tau(3, 1, 3)


def test_conjugate_matches_products():
    for a in itertools.permutations(range(4)):
        for k in [(1, 0, 2, 3), (1, 2, 3, 0)]:
            assert conjugate(a, k) == compose(k, compose(a, inverse(k)))


def test_conjugation_moves_edge_transpositions_for_graph_automorphisms():
    # kappa tau_e kappa^{-1} must be the transposition of the mapped edge
    for name, n in [("path", 1), ("path", 2), ("path", 4), ("cycle", 3), ("cycle", 5), ("star", 4), ("paw", None), ("fork", None)]:
        g = preset_graph(name, n)
        for kappa in automorphisms(g):
            for e_idx, e in enumerate(g.edges):
                lhs = conjugate(transposition_of_edge(g.p, e), kappa.vertex_map)
                rhs = transposition_of_edge(g.p, g.edges[kappa.edge_map[e_idx]])
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Vertex partitions and cosets


def test_partition_blocks_ordered_by_smallest_member():
    part = VertexPartition.from_blocks([[3, 1], [2, 0]])
    assert part.blocks == ((0, 2), (1, 3))
    assert part.block_of == (0, 1, 0, 1)


def test_partition_rejects_non_partition():
    with pytest.raises(ValueError):
        VertexPartition.from_blocks([[0, 1], [1, 2]])


def test_coset_size_examples():
    assert coset_size(VertexPartition.singletons(5)) == 1
    assert coset_size(VertexPartition.from_blocks([[0, 1], [2, 3, 4]])) == 12
    assert coset_size(VertexPartition.from_blocks([range(4)])) == 24


def test_canonical_rep_trivial_partitions():
    for a in itertools.permutations(range(4)):
        assert canonical_rep(VertexPartition.singletons(4), a) == a
        assert canonical_rep(VertexPartition.from_blocks([range(4)]), a) == identity(4)


def test_canonical_rep_two_element_coset():
    # blocks {1,2},{3} with a = (1 3): enumerate the coset and take the lex-min
    part = VertexPartition.from_blocks([[0, 1], [2]])
    a = (2, 1, 0)
    coset = brute_coset(part, a)
    assert canonical_rep(part, a) == min(coset)
    assert canonical_rep(part, a) == (2, 0, 1)  # frozen from the oracle above


def test_canonical_rep_is_least_coset_member_exhaustive():
    for p in range(1, 5):
        for part in all_set_partitions(p):
            for a in itertools.permutations(range(p)):
                coset = brute_coset(part, a)
                rep = canonical_rep(part, a)
                assert rep in coset
                assert rep == min(coset)


def test_same_coset_examples():
    part = VertexPartition.from_blocks([[0, 1], [2]])
    a = (2, 1, 0)
    assert same_coset(part, a, a)
    assert not same_coset(VertexPartition.singletons(3), (0, 1, 2), (1, 0, 2))
    one_block = VertexPartition.from_blocks([range(3)])
    for a in itertools.permutations(range(3)):
        for b in itertools.permutations(range(3)):
            assert same_coset(one_block, a, b)


def test_same_coset_iff_equal_canonical_rep():
    for p in range(1, 5):
        for part in all_set_partitions(p):
            for a in itertools.permutations(range(p)):
                for b in itertools.permutations(range(p)):
                    assert same_coset(part, a, b) == (
                        canonical_rep(part, a) == canonical_rep(part, b)
                    )


def test_coset_count_times_size_is_group_order():
    for p in range(1, 6):
        for part in all_set_partitions(p):
            keys = {canonical_rep(part, a) for a in itertools.permutations(range(p))}
            assert coset_size(part) * len(keys) == math.factorial(p)
            # direct enumeration of representatives agrees with the dedup route
            assert set(coset_reps(part)) == keys


def test_coset_reps_are_the_sorted_recursive_enumeration():
    # every set partition of up to 7 points (Bell(7) = 877 of them at p = 7)
    for p in range(8):
        for part in all_set_partitions(p):
            reps = coset_reps(part)
            assert list(reps) == sorted(coset_reps_by_recursion(part))
            assert all(a < b for a, b in zip(reps, reps[1:]))
            assert len(reps) == math.factorial(p) // coset_size(part)


def test_refines_and_coset_le():
    fine = VertexPartition.from_blocks([[0, 1], [2], [3]])
    coarse = VertexPartition.from_blocks([[0, 1, 2], [3]])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    # coset containment matches materialized cosets on all pairs
    for a in itertools.permutations(range(4)):
        for b in itertools.permutations(range(4)):
            expected = brute_coset(fine, a) <= brute_coset(coarse, b)
            assert coset_le(fine, a, coarse, b) == expected


def test_young_subgroup_order_background():
    # sanity for the oracle itself
    part = VertexPartition.from_blocks([[0, 1], [2, 3, 4]])
    assert len(young_subgroup(part)) == 12


def test_perm_capacity_matches_factorial():
    for cap in (-1, 0, 1, 2, 5, 6, 719, 720, 5040, 40319):
        for p in range(0, 10):
            if math.factorial(p) > cap:
                with pytest.raises(CapacityError):
                    check_perm_capacity(p, cap)
            else:
                check_perm_capacity(p, cap)
    with pytest.raises(CapacityError, match=r"^300000! permutations"):
        check_perm_capacity(300000, 5040)
