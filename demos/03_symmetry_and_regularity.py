"""Symmetry groups of graphicahedra, counted two independent ways.

The construction supplies automorphisms directly: right multiplication by
any element of S_p, and the action of any graph symmetry.  For graphs with
more than one edge these generate the whole group, of order
p! * |graph automorphisms|.  The frame-based counter knows nothing of that:
it reads the stored face poset alone, where an automorphism is fixed by the
image of one vertex with its edges in order (a frame), and counts a
vertex's orbit times its stabiliser.  The two numbers agree, and a polytope
is regular exactly when they reach the flag count -- which happens only for
the triangle and the stars.
"""

from graphicahedron import (
    build,
    constructed_group_order,
    flag_count,
    full_aut_order_via_flags,
    is_regular,
    preset_graph,
)

CASES = [
    ("path:2", "path", 2),
    ("path:3", "path", 3),
    ("cycle:3", "cycle", 3),
    ("cycle:4", "cycle", 4),
    ("star:3", "star", 3),
    ("star:4", "star", 4),
    ("paw", "paw", None),
    ("fork", "fork", None),
]

print(f"{'graph':<10} {'constructed':>12} {'via flags':>10} {'flags':>6} {'regular':>8}")
for label, name, n in CASES:
    graph = preset_graph(name, n)
    P = build(graph)
    constructed = constructed_group_order(graph)
    counted = full_aut_order_via_flags(P)
    print(
        f"{label:<10} {constructed:>12} {counted:>10} {flag_count(P):>6} "
        f"{str(is_regular(P)):>8}"
    )

print("\nthe star with 4 edges is regular: its group has order 2880 = 5! * 4!,")
print("matching its flag count, and its 20 facets are all copies of the")
print("toroidal map that the 3-star produces.")
