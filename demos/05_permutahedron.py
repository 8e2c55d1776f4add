"""The path graphicahedron is the permutahedron.

The permutahedron's face lattice has a classical combinatorial model that
needs no Cayley machinery: faces are ordered set partitions of the point
set, ordered by merging consecutive blocks.  Building that model
independently and testing poset isomorphism against the graphicahedron of
the path confirms the identification rank by rank.
"""

from graphicahedron import build, permutahedron_oracle, posets_isomorphic, preset_graph

for n in (1, 2, 3):
    P = build(preset_graph("path", n))
    oracle = permutahedron_oracle(n)
    iso = posets_isomorphic(P, oracle)
    print(f"rank {n}: graphicahedron f-vector {P.f_vector()}, "
          f"ordered-set-partition model {oracle.f_vector()}, isomorphic: {iso}")

print("\nthe rank-3 permutahedron in detail:")
oracle = permutahedron_oracle(3)
sizes = sorted(oracle.vertices_below(x) for x in oracle.levels[2])
print("  f-vector:", oracle.f_vector())
print("  2-face sizes:", {s: sizes.count(s) for s in set(sizes)},
      " (6 squares and 8 hexagons)")
