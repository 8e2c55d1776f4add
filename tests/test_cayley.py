import itertools
import math
import random
import re
from array import array

import pytest
from oracles import brute_coset, component_of

from graphicahedron import (
    CayleyGraph,
    build,
    build_cayley,
    components,
    compose,
    identity,
    is_connected,
    make_graph,
    preset_graph,
    transposition_of_edge,
)
from graphicahedron import cayley
from graphicahedron.cayley import dot_graph
from graphicahedron.errors import CapacityError
from graphicahedron.perms import DEFAULT_MAX_PERMS


def cayley_dot(cayley):
    return "".join(dot_graph("cayley", cayley.perms, cayley.edges()))


def reachable(cayley, start=0):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for color in range(cayley.n_colors):
                w = cayley.neighbor[color][v]
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_single_edge_gives_a_matching():
    c = build_cayley(preset_graph("path", 1))
    assert c.n_vertices == 2
    assert c.edge_count() == 1


def test_path2_cayley_is_an_alternating_hexagon():
    c = build_cayley(preset_graph("path", 2))
    assert c.n_vertices == 6
    assert c.edge_count() == 6
    assert c.n_colors == 2
    # every vertex has one neighbor per color and the whole graph is a single cycle
    assert len(reachable(c)) == 6
    # walking colors alternately returns to the start after 6 steps, not earlier
    v = 0
    visited = [v]
    for step in range(6):
        v = c.neighbor[step % 2][v]
        visited.append(v)
    assert v == 0
    assert len(set(visited[:-1])) == 6


def test_cycle3_cayley_counts():
    c = build_cayley(preset_graph("cycle", 3))
    assert c.n_vertices == 6
    assert c.edge_count() == math.factorial(3) * 3 // 2  # 9
    assert len(list(c.edges())) == 9


def test_color_classes_are_perfect_matchings():
    for name, n in [("path", 2), ("cycle", 3), ("paw", None)]:
        c = build_cayley(preset_graph(name, n))
        for color in range(c.n_colors):
            nbr = c.neighbor[color]
            for v in range(c.n_vertices):
                assert nbr[v] != v  # simple: a transposition never fixes a permutation
                assert nbr[nbr[v]] == v


def test_capacity():
    with pytest.raises(CapacityError):
        build_cayley(preset_graph("path", 4), max_perms=100)


def test_default_cap_is_the_stores():
    # one library default: the Cayley graph stops where build does, at p = 7
    assert build_cayley.__defaults__ == build.__defaults__ == (DEFAULT_MAX_PERMS,) == (5040,)
    with pytest.raises(CapacityError):
        build_cayley(preset_graph("path", 7))


@pytest.mark.parametrize("name, n", [("path", 3), ("cycle", 4), ("paw", None)])
def test_edges_come_sorted(name, n):
    edges = list(build_cayley(preset_graph(name, n)).edges())
    assert edges == sorted(edges) and len(edges) == len(set(edges))


def test_edges_are_every_matching_pair_in_order():
    # 5040 vertices: the edges are merged across several windows
    c = build_cayley(preset_graph("path", 6))
    assert c.n_vertices > 2 * cayley._WINDOW
    expected = sorted((u, v, color) for color, table in enumerate(c.neighbor) for u, v in enumerate(table) if v > u)
    assert list(c.edges()) == expected == list(c.edges())


def _presets_up_to_p6():
    for name, least, most in [("path", 1, 5), ("star", 1, 5), ("cycle", 3, 6)]:
        for n in range(least, most + 1):
            yield f"{name}:{n}", preset_graph(name, n)
    for name in ("paw", "fork"):
        yield name, preset_graph(name)
    for seed in (1, 2):
        # relabelled and shuffled, so colors meet non-adjacent transpositions
        rng = random.Random(seed)
        sigma = list(range(6))
        rng.shuffle(sigma)
        edges = [(sigma[i], sigma[j]) for i, j in preset_graph("cycle", 6).edges + ((0, 3),)]
        rng.shuffle(edges)
        yield f"shuffled-{seed}", make_graph(6, edges)


GRAPHS_UP_TO_P6 = dict(_presets_up_to_p6())


@pytest.mark.parametrize("name", GRAPHS_UP_TO_P6)
def test_neighbor_tables_are_the_left_products(name):
    g = GRAPHS_UP_TO_P6[name]
    perms = list(itertools.permutations(range(g.p)))
    index = {a: i for i, a in enumerate(perms)}
    c = build_cayley(g)
    assert list(c.perms) == perms
    assert c.n_colors == g.q
    for color, edge in enumerate(g.edges):
        tau = transposition_of_edge(g.p, edge)
        assert list(c.neighbor[color]) == [index[compose(tau, a)] for a in perms]


@pytest.mark.parametrize("name", GRAPHS_UP_TO_P6)
def test_neighbor_tables_are_compact(name):
    # one array of C ints per color, p! ranks each, and no shared int list
    c = build_cayley(GRAPHS_UP_TO_P6[name])
    for table in c.neighbor:
        assert type(table) is array and table.typecode == "i"
        assert len(table) == math.factorial(c.p)


def test_cayley_tables_stop_where_ranks_outgrow_c_ints():
    with pytest.raises(CapacityError, match="up to p = 12"):
        CayleyGraph(preset_graph("path", 12))


def test_component_of_trivial_cases():
    g = preset_graph("path", 2)
    a = (1, 2, 0)
    assert component_of(g, [], a) == (a,)
    assert component_of(g, [0], identity(3)) == (identity(3), (1, 0, 2))
    full = component_of(g, range(g.q), identity(3))
    assert full == tuple(sorted(itertools.permutations(range(3))))


def test_component_of_is_the_young_coset():
    # the executable content of faces-as-components: color-restricted
    # reachability equals the materialized coset of the component partition
    for name, n in [("path", 3), ("cycle", 3), ("cycle", 4), ("star", 3), ("paw", None)]:
        g = preset_graph(name, n)
        for size in range(g.q + 1):
            for combo in itertools.combinations(range(g.q), size):
                part = components(g, combo)
                for a in [identity(g.p), tuple(reversed(range(g.p)))]:
                    assert set(component_of(g, combo, a)) == brute_coset(part, a)


def test_cayley_connected_iff_graph_connected():
    cases = [
        (preset_graph("path", 3), True),
        (preset_graph("cycle", 4), True),
        (make_graph(4, [(0, 1), (2, 3)]), False),
        (make_graph(4, [(0, 1), (1, 2)]), False),  # isolated vertex 3
        (make_graph(3, [(0, 1)]), False),
    ]
    for g, expected in cases:
        assert is_connected(g) == expected
        c = build_cayley(g)
        assert (len(reachable(c)) == c.n_vertices) == expected


def test_restricting_colors_is_monotone():
    g = preset_graph("cycle", 4)
    for size in range(g.q):
        for combo in itertools.combinations(range(g.q), size):
            for e in range(g.q):
                if e in combo:
                    continue
                small = set(component_of(g, combo, identity(g.p)))
                large = set(component_of(g, combo + (e,), identity(g.p)))
                assert small <= large


def test_vertex_transitive_under_right_multiplication():
    for name, n in [("path", 2), ("cycle", 3)]:
        g = preset_graph(name, n)
        c = build_cayley(g)
        edges = set(c.edges())
        index = {a: i for i, a in enumerate(c.perms)}
        for gmul in itertools.permutations(range(g.p)):
            relabel = {v: index[compose(c.perms[v], gmul)] for v in range(c.n_vertices)}
            mapped = {
                (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]), color)
                for u, v, color in edges
            }
            assert mapped == edges


def test_export_dot_counts():
    c = build_cayley(preset_graph("path", 2))
    dot = cayley_dot(c)
    assert len(re.findall(r"^\s*v\d+ \[label=", dot, re.M)) == 6
    edge_lines = re.findall(r"^\s*v\d+ -- v\d+ \[color=\"(#\w+)\"", dot, re.M)
    assert len(edge_lines) == 6
    assert len(set(edge_lines)) == 2

    single = cayley_dot(build_cayley(preset_graph("path", 1)))
    assert len(re.findall(r"\[label=", single)) == 2
    assert len(re.findall(r" -- ", single)) == 1

    c3 = cayley_dot(build_cayley(preset_graph("cycle", 3)))
    colors = re.findall(r"color=\"(#\w+)\"", c3)
    assert len(colors) == 9
    assert len(set(colors)) == 3


def test_export_dot_deterministic():
    g = preset_graph("cycle", 3)
    assert cayley_dot(build_cayley(g)) == cayley_dot(build_cayley(g))


def test_node_labels_are_one_based():
    dot = cayley_dot(build_cayley(preset_graph("path", 1)))
    assert 'v0 [label="1,2"]' in dot
    assert 'v1 [label="2,1"]' in dot
