"""A first graphicahedron: the path with two edges gives a hexagon.

The vertices of the polytope are the 3! = 6 permutations; two are adjacent
when they differ by the transposition of a path edge.  The 1-skeleton is
the Cayley graph of S_3 generated by (1 2) and (2 3) -- a 6-cycle with
alternating edge colors.
"""

from graphicahedron import build, build_cayley, flag_count, preset_graph
from graphicahedron.cayley import dot_graph

path2 = preset_graph("path", 2)
P = build(path2)

print("graph: path with 2 edges, p =", path2.p, "q =", path2.q)
print("f-vector:", P.f_vector())
print("flags:   ", flag_count(P), "=", "3! * 2!")

print("\nvertices and their incident edges:")
for v, rep in enumerate(P.vertex_reps):
    images = ",".join(str(x + 1) for x in rep)
    print(f"  ({images})  lies under {len(P.up[v])} edges")

print("\nCayley color graph in DOT format:")
cayley = build_cayley(path2)
print("".join(dot_graph("cayley", cayley.perms, cayley.edges())))
