import graphicahedron


def test_every_exported_name_resolves():
    missing = [name for name in graphicahedron.__all__ if not hasattr(graphicahedron, name)]
    assert missing == []
    assert len(set(graphicahedron.__all__)) == len(graphicahedron.__all__)
