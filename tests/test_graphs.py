import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compose, connected_graphs_with_edges, graphs_isomorphic, refines

from graphicahedron import (
    ParseError,
    SimpleGraph,
    automorphisms,
    components,
    is_connected,
    make_graph,
    parse_graph,
    preset_graph,
)
from graphicahedron.errors import CapacityError
from graphicahedron.graphs import canonical_form, induced_edge_map, is_star, is_triangle


def test_parse_path():
    g = parse_graph("1 2\n2 3")
    assert (g.p, g.q) == (3, 2)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_triangle_with_comments_and_header():
    g = parse_graph("# a triangle\np 3\n1 2\n1 3\n2 3  # last edge")
    assert (g.p, g.q) == (3, 3)


def test_parse_header_allows_isolated_vertices():
    g = parse_graph("p 4\n1 2")
    assert g.p == 4
    assert not is_connected(g)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("1 2\n1 2")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("1 1")
    with pytest.raises(ParseError):
        parse_graph("0 2")
    with pytest.raises(ParseError):
        parse_graph("1 2 3")
    with pytest.raises(ParseError):
        parse_graph("a b")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("p 2\n1 3")
    with pytest.raises(ParseError):
        parse_graph("p \u00b2\n1 2")  # superscript two: isdigit() but not int()
    # labels and the header take ASCII digits only, though int() takes all of these
    for text in ("1 1_0", "1 +2", "1 \u0662", "1 2 \n 2 \uff13", "p \u0663\n1 2", "p +3\n1 2"):
        with pytest.raises(ParseError):
            parse_graph(text)


# Texts assembled from tokens the format gives meaning to, half of them
# behind a "p" header, so that examples reach the header, label and
# duplicate checks, not only the first token.
TOKENS = st.sampled_from(
    ["p", "#", "0", "1", "2", "3", "12", "-1", "+2", "1_0", "\u00b2", "\u0663", "x", "9" * 5000]
)
LINES = st.lists(TOKENS, max_size=3).map(" ".join)
TEXTS = st.tuples(st.sampled_from(["", "p "]), TOKENS, st.lists(LINES, max_size=5)).map(
    lambda parts: "\n".join([parts[0] + parts[1], *parts[2]])
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.text(), TEXTS))
def test_parse_graph_raises_only_parse_error(text):
    try:
        parse_graph(text)
    except ParseError:
        return
    # accepted: every token of every line is the header's "p" or ASCII digits
    for line in text.splitlines():
        for token in line.split("#", 1)[0].split():
            assert token == "p" or (token.isascii() and token.isdecimal())


def test_preset_star():
    g = preset_graph("star", 3)
    assert g.edges == ((0, 1), (0, 2), (0, 3))


def test_preset_sizes():
    assert (preset_graph("path", 1).p, preset_graph("path", 1).q) == (2, 1)
    assert (preset_graph("cycle", 4).p, preset_graph("cycle", 4).q) == (4, 4)
    assert (preset_graph("paw").p, preset_graph("paw").q) == (4, 4)
    assert (preset_graph("fork").p, preset_graph("fork").q) == (5, 4)


def test_preset_validation():
    with pytest.raises(ValueError):
        preset_graph("cycle", 2)
    with pytest.raises(ValueError):
        preset_graph("path", 0)
    with pytest.raises(ValueError):
        preset_graph("paw", 3)
    with pytest.raises(ValueError):
        preset_graph("torus")


@pytest.mark.parametrize(
    "build_graph, message",
    [
        (lambda: make_graph(3, [(1, 1)]), "loop edge at vertex 2"),
        (lambda: make_graph(2, [(0, 2)]), "edge (1, 3) out of range for p=2"),
        (lambda: SimpleGraph(3, ((1, 0),)), "edge endpoints must be stored sorted"),
        (lambda: make_graph(3, [(0, 1), (1, 0)]), "duplicate edge (1, 2)"),
        (lambda: make_graph(3, [(0, 1)])._replace(edges=((1, 1),)), "loop edge at vertex 2"),
    ],
    ids=["loop", "out-of-range", "unsorted", "duplicate", "replace"],
)
def test_simple_graph_rejects_what_the_parser_never_passes(build_graph, message):
    # parse_graph refuses these inputs itself, so only direct construction reaches them
    with pytest.raises(ValueError) as caught:
        build_graph()
    assert str(caught.value) == message


def test_connected_four_edge_graphs_are_exactly_the_five_presets():
    # the paw and the fork are pinned as the two remaining isomorphism
    # classes once the path, cycle and star are named
    reps = connected_graphs_with_edges(4)
    named = [
        preset_graph("path", 4),
        preset_graph("cycle", 4),
        preset_graph("star", 4),
        preset_graph("paw"),
        preset_graph("fork"),
    ]
    assert len(reps) == 5
    for g in named:
        assert sum(1 for r in reps if graphs_isomorphic(g, r)) == 1
    # paw: the only non-tree besides the cycle; fork: the only tree besides path/star
    non_trees = [r for r in reps if r.p == r.q]
    assert len(non_trees) == 2
    trees = [r for r in reps if r.p == r.q + 1]
    assert len(trees) == 3


def test_is_connected():
    assert is_connected(preset_graph("cycle", 4))
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_graph(1, []))


def test_components_trivial_cases():
    g = preset_graph("cycle", 4)
    assert components(g, []).blocks == ((0,), (1,), (2,), (3,))
    assert components(g, range(4)).blocks == ((0, 1, 2, 3),)


def test_components_paw_triangle():
    paw = preset_graph("paw")
    part = components(paw, [0, 1, 2])  # the triangle edges
    assert part.blocks == ((0, 1, 2), (3,))


def test_components_rejects_bad_edge_index():
    with pytest.raises(ValueError):
        components(preset_graph("paw"), [7])


def test_adding_an_edge_coarsens_components():
    for name, n in [("path", 3), ("cycle", 4), ("star", 4), ("paw", None), ("fork", None), ("cycle", 5)]:
        g = preset_graph(name, n)
        for size in range(g.q):
            for combo in itertools.combinations(range(g.q), size):
                base = components(g, combo)
                for e in range(g.q):
                    if e in combo:
                        continue
                    bigger = components(g, combo + (e,))
                    assert refines(base, bigger)
                    assert len(base.blocks) - len(bigger.blocks) in (0, 1)


def test_automorphism_orders():
    assert len(automorphisms(preset_graph("path", 2))) == 2
    assert len(automorphisms(preset_graph("cycle", 3))) == 6  # brute force: all of S_3
    assert len(automorphisms(preset_graph("star", 4))) == 24
    assert len(automorphisms(preset_graph("paw"))) == 2
    assert len(automorphisms(preset_graph("fork"))) == 2


def test_automorphisms_form_a_group():
    for name, n in [("path", 3), ("cycle", 4), ("star", 3), ("paw", None), ("fork", None)]:
        g = preset_graph(name, n)
        auts = automorphisms(g)
        assert math.factorial(g.p) % len(auts) == 0
        vmaps = {a.vertex_map for a in auts}
        assert tuple(range(g.p)) in vmaps
        for a in auts:
            assert a.inverse().vertex_map in vmaps
            for b in auts:
                assert compose(a.vertex_map, b.vertex_map) in vmaps


def test_edge_map_is_induced_action():
    for name, n in [("cycle", 4), ("paw", None), ("fork", None)]:
        g = preset_graph(name, n)
        for a in automorphisms(g):
            assert induced_edge_map(g, a.vertex_map) == a.edge_map
            for idx, (i, j) in enumerate(g.edges):
                image = tuple(sorted((a.vertex_map[i], a.vertex_map[j])))
                assert g.edges[a.edge_map[idx]] == image


def test_automorphisms_capacity():
    with pytest.raises(CapacityError):
        automorphisms(make_graph(12, [(i, i + 1) for i in range(11)]))


def test_shape_predicates():
    assert is_triangle(preset_graph("cycle", 3))
    assert not is_triangle(preset_graph("path", 3))
    assert is_star(preset_graph("star", 4))
    assert is_star(preset_graph("path", 1))
    assert is_star(preset_graph("path", 2))
    assert is_star(make_graph(1, []))
    assert not is_star(preset_graph("path", 3))
    assert not is_star(preset_graph("paw"))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_canonical_form_is_a_complete_invariant(q):
    # one form per isomorphism class of connected graphs with q edges, and
    # every relabelling of a class keeps its form
    reps = connected_graphs_with_edges(q)
    forms = [canonical_form(g.edges) for g in reps]
    assert len(set(forms)) == len(reps)
    for g, form in zip(reps, forms):
        for sigma in itertools.permutations(range(g.p)):
            assert canonical_form((sigma[i], sigma[j]) for i, j in g.edges) == form
