import graphicahedron


def test_every_exported_name_resolves():
    missing = [name for name in graphicahedron.__all__ if not hasattr(graphicahedron, name)]
    assert missing == []
    assert len(set(graphicahedron.__all__)) == len(graphicahedron.__all__)


# Every public name; a change here belongs next to its CHANGES.md line.
PUBLIC_NAMES = [
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


def test_exported_names_are_pinned():
    assert sorted(graphicahedron.__all__) == PUBLIC_NAMES
