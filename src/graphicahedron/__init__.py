"""Graphicahedra: abstract polytopes built from Cayley graphs of symmetric groups.

Given a connected simple graph with p vertices and q edges, the associated
polytope has the p! permutations as vertices; its rank-i faces are the
right cosets of the Young subgroups generated by the transpositions of
i-edge subsets, ordered by containment.  The 1-skeleton is the Cayley graph
of the symmetric group with one transposition generator per graph edge; a
path graph recovers the classical permutahedron.
"""

from .cayley import CayleyGraph, build_cayley
from .classify import (
    FacetCensus,
    classify_by_construction,
    facet_census,
    labelled_poset,
    permutahedron_oracle,
)
from .errors import (
    CapacityError,
    DisconnectedGraphError,
    GraphicahedronError,
    InternalInconsistencyError,
    NotThinError,
    ParseError,
)
from .graphs import (
    GraphAutomorphism,
    SimpleGraph,
    automorphisms,
    components,
    is_connected,
    make_graph,
    parse_graph,
    preset_graph,
)
from .perms import (
    Perm,
    VertexPartition,
    canonical_rep,
    coset_size,
    identity,
    inverse,
    transposition_of_edge,
)
from .polytope import (
    Graphicahedron,
    build,
    face_count,
    flag_count,
    one_skeleton_equals_cayley,
    verify_diamond,
    verify_strong_flag_connectedness,
    vertex_figure_is_simplex,
)
from .posets import RankedPoset, posets_isomorphic
from .symmetry import (
    AutGroupSummary,
    aut_summary,
    constructed_group_order,
    full_aut_order_via_flags,
    is_regular,
    is_vertex_transitive,
)

__version__ = "0.1.0"

__all__ = [
    "AutGroupSummary",
    "CapacityError",
    "CayleyGraph",
    "DisconnectedGraphError",
    "FacetCensus",
    "GraphAutomorphism",
    "Graphicahedron",
    "GraphicahedronError",
    "InternalInconsistencyError",
    "NotThinError",
    "ParseError",
    "Perm",
    "RankedPoset",
    "SimpleGraph",
    "VertexPartition",
    "aut_summary",
    "automorphisms",
    "build",
    "build_cayley",
    "canonical_rep",
    "classify_by_construction",
    "components",
    "constructed_group_order",
    "coset_size",
    "face_count",
    "facet_census",
    "flag_count",
    "full_aut_order_via_flags",
    "identity",
    "inverse",
    "is_connected",
    "is_regular",
    "is_vertex_transitive",
    "labelled_poset",
    "make_graph",
    "one_skeleton_equals_cayley",
    "parse_graph",
    "permutahedron_oracle",
    "posets_isomorphic",
    "preset_graph",
    "transposition_of_edge",
    "verify_diamond",
    "verify_strong_flag_connectedness",
    "vertex_figure_is_simplex",
]
