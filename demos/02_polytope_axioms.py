"""Checking the abstract-polytope axioms on a rank-4 example.

The paw (a triangle with a pendant edge) gives a rank-4 polytope with
4! = 24 vertices and 24 * 24 = 576 flags.  The verifiers re-derive the
axioms from the stored face poset: the diamond condition counts the faces
strictly between incident pairs two ranks apart, strong flag-connectedness
walks the covers up from each bottom face and checks that every section of
rank two or more is connected, and simplicity checks that the faces above
each vertex form a Boolean lattice.  No flag is built.
"""

from graphicahedron import (
    build,
    preset_graph,
    verify_diamond,
    verify_strong_flag_connectedness,
)
from graphicahedron.polytope import drop_face

paw = preset_graph("paw")
P = build(paw)
print("paw f-vector:", P.f_vector())

diamond = verify_diamond(P)
print(f"diamond condition: {'pass' if diamond.passed else 'fail'} "
      f"({diamond.checked} incident pairs checked)")

connected = verify_strong_flag_connectedness(P)
print(f"strong flag-connectedness: {'pass' if connected.passed else 'fail'} "
      f"({connected.checked} sections of rank two or more checked)")

print(f"all vertex figures are 3-simplices: {P.is_simple}")

# A negative control: delete one face and the diamond count breaks.
corrupted = drop_face(P, P.first_of_rank(2))
report = verify_diamond(corrupted)
print("\nafter deleting one rank-2 face:")
print(f"  diamond condition: {'pass' if report.passed else 'fail'}")
print(f"  witness: {report.failure}")
