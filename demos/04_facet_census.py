"""Facet censuses of the two 4-edge graphs that are neither path, cycle nor star.

Each facet sits over a 3-edge subset; its type is readable from the
components of that subset (a path gives a permutahedron, the triangle and
the 3-star give toroidal maps, disconnected subsets give products).  The
census checks every facet against the poset: the interval below it must be
isomorphic to a model built from its edge subset's components alone, in
which each block of a smaller edge subset holds its own set of positions.
"""

from graphicahedron import build, facet_census, preset_graph

for name in ("paw", "fork"):
    P = build(preset_graph(name))
    census = facet_census(P)
    print(f"{name}: {census.total} facets")
    for label, count, sample in census.entries:
        print(f"  {count:>3} x {label:<18} e.g. {sample}")
    print()

print("toroid_63_11 is the polytope of the triangle (6 vertices, 9 edges,")
print("3 hexagons); toroid_63_22 is the polytope of the 3-star (24 vertices,")
print("36 edges, 12 hexagons).  Both have Euler characteristic 0.")
