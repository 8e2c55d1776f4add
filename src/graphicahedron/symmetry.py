"""Automorphisms of the graphicahedron.

Two families of automorphisms come straight from the construction: right
multiplication of the coset representatives by a fixed permutation (which
never moves the edge-set component), and the action of a graph automorphism
(which permutes edge sets and conjugates the representatives).  Together
they generate a semidirect product of order p! * |graph automorphisms|
whenever the graph has more than one edge; this module gives that order in
closed form (:func:`constructed_group_order`) and builds neither action.

Independently of that construction, the full automorphism group is counted
on the stored face poset by vertex frames (:mod:`posets`): the size of a
vertex's orbit times its stabiliser (:func:`full_aut_order_via_flags`, which
:func:`aut_summary` and :func:`is_regular` read), with no cap and no flag built
(the CLI bounds the work with :func:`polytope.check_walkable` first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .graphs import SimpleGraph, automorphisms, is_star, is_triangle
from .polytope import Graphicahedron, flag_count


def constructed_group_order(graph: SimpleGraph) -> int:
    """Order of the automorphism group predicted by the construction.

    For a single-edge graph the semidirect formula double-counts (the graph
    symmetry acts trivially on the one-element edge set), so the true order
    2 of the segment's group is returned instead; `semidirect_applies`
    reports whether the formula itself was used.
    """
    return _constructed_order(graph, len(automorphisms(graph)))


def _constructed_order(graph: SimpleGraph, graph_aut_order: int) -> int:
    return math.factorial(graph.p) * graph_aut_order if semidirect_applies(graph) else 2


def semidirect_applies(graph: SimpleGraph) -> bool:
    return graph.q != 1


def full_aut_order_via_flags(polytope: Graphicahedron, max_flags: int | None = None) -> int:
    """Count polytope automorphisms on the vertex frames of the stored poset: vertex 0's
    orbit times its stabiliser (:attr:`RankedPoset.vertex_orbit_and_stabiliser`).  A face
    missing from the store shows: ValueError unless every vertex figure is a simplex.
    ``max_flags`` is unused; it stays only for ``perfbench/job.py`` until ROADMAP item 1."""
    return math.prod(polytope.vertex_orbit_and_stabiliser)


def regular_by_graph_shape(graph: SimpleGraph) -> bool:
    """The closed-form regularity criterion: the triangle and the stars
    (the single edge and the 2-path included) are the only regular cases."""
    return is_triangle(graph) or is_star(graph)


def is_regular(polytope: Graphicahedron) -> bool:
    """Flag-transitivity, decided by order counting and cross-checked.

    A polytope is regular exactly when its automorphism group is as large
    as its flag set.  The verdict must agree with the closed-form criterion
    on the underlying graph; disagreement means a bug, not a warning.
    """
    by_count = full_aut_order_via_flags(polytope) == flag_count(polytope)
    by_shape = regular_by_graph_shape(polytope.graph)
    if by_count != by_shape:
        raise InternalInconsistencyError(
            f"regularity disagreement: flag count says {by_count}, graph shape says {by_shape}"
        )
    return by_count


def is_vertex_transitive(polytope: Graphicahedron) -> bool:
    """Whether vertex 0's orbit under the automorphisms counted on frames
    is every vertex."""
    return polytope.vertex_orbit_and_stabiliser[0] == polytope.first_of_rank(1)


@dataclass(frozen=True)
class AutGroupSummary:
    constructed_order: int
    flag_aut_order: int
    sp_order: int
    graph_aut_order: int
    regular: bool
    vertex_transitive: bool
    semidirect_applies: bool


def aut_summary(polytope: Graphicahedron) -> AutGroupSummary:
    graph = polytope.graph
    flag_aut_order = full_aut_order_via_flags(polytope)
    graph_aut_order = len(automorphisms(graph))
    return AutGroupSummary(
        constructed_order=_constructed_order(graph, graph_aut_order),
        flag_aut_order=flag_aut_order,
        sp_order=math.factorial(graph.p),
        graph_aut_order=graph_aut_order,
        regular=is_regular(polytope),
        vertex_transitive=is_vertex_transitive(polytope),
        semidirect_applies=semidirect_applies(graph),
    )

