"""
Does every extension split?
===========================

H^2(G, M) classifies extensions of G by the module M up to equivalence.
Dimension 0 means the semidirect product is the only one.  The solver
takes a normalized cocycle's values f(g, x) on the group generators x as
unknowns, extends them along the element table's word tree, imposes the
cocycle condition on the remaining Cayley edges as one linear system over
GF(p), and subtracts the rank of the coboundary map.
"""

from burnside import FFMatrix, GroupModulePair, PrimeField, h2_dimension, splits_implies
from burnside.corpus import pair_a4, pair_c2, pair_s3, pair_v4

for label, factory in [
    ("C2 on its sign module over GF(3)", pair_c2),
    ("V4 on GF(2)^3", pair_v4),
    ("S3 on GF(2)^2", pair_s3),
    ("A4 on GF(2)^4", pair_a4),
]:
    group, action = factory()
    pair = GroupModulePair(group, action.matrices)
    print(label)
    print(" ", splits_implies(pair, h2_dimension(pair)))
    print()

# Trivial modules: H^2(Cp, F_p) is one-dimensional, the witness being the
# extension C_{p^2} (which visibly does not split).
from burnside import Perm, PermGroup

for p in (2, 3, 5):
    cycle = Perm(tuple(list(range(1, p)) + [0]))
    cp = PermGroup(p, [cycle])
    pair = GroupModulePair(cp, [FFMatrix.identity(PrimeField(p), 1)])
    print(f"dim H^2(C{p}, F_{p}) =", h2_dimension(pair))
