"""Permutation models of every group of order at most 16.

The list is a complete transversal of the 42 isomorphism types.  Most
groups are direct products of cyclic and dihedral blocks acting on
disjoint points; the quaternion and dicyclic ones come from 2x2 matrix
groups via their right-regular permutation copy.  iso_invariant computes
enough structure (order statistics, center, derived subgroup,
abelianization) to tell all 42 apart, which the zoo test checks.
"""

from burnside.corpus import regular_perm_copy
from burnside.ffield import FFMatrix, PrimeField
from burnside.permgroup import Perm, PermGroup, mulclose


def cyclic(n):
    if n == 1:
        return PermGroup(1, [Perm.identity(1)])
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


def dihedral(n):
    """Dihedral group of order 2n acting on n points, n >= 3."""
    rot = Perm.from_cycles(n, [tuple(range(n))])
    refl = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, refl])


def direct(a, b):
    da, db = a.degree, b.degree
    gens = [Perm(list(g.images) + list(range(da, da + db))) for g in a.generators]
    gens += [Perm(list(range(da)) + [da + g(i) for i in range(db)]) for g in b.generators]
    return PermGroup(da + db, gens)


def _matrix_group(p, rowlists):
    f = PrimeField(p)
    mats = [FFMatrix.from_rows(f, rows) for rows in rowlists]
    return PermGroup(len(mulclose_mats(mats)), regular_perm_copy(mats))


def mulclose_mats(mats):
    els = set(mats)
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in mats:
                y = x * g
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return els


def quaternion8():
    return _matrix_group(3, [[[0, 1], [2, 0]], [[1, 1], [1, 2]]])


def quaternion16():
    # <a,b | a^8, b^2=a^4, bab^-1=a^-1> inside GL(2,17), ord(2 mod 17) = 8
    return _matrix_group(17, [[[2, 0], [0, 9]], [[0, 1], [16, 0]]])


def dicyclic12():
    # <a,b | a^6, b^2=a^3, bab^-1=a^-1> inside GL(2,13), ord(4 mod 13) = 6
    return _matrix_group(13, [[[4, 0], [0, 10]], [[0, 1], [12, 0]]])


def pauli16():
    # central product D8.C4: the 2x2 Pauli matrices over GF(5) with i = 2
    return _matrix_group(5, [[[0, 1], [1, 0]], [[1, 0], [0, 4]], [[2, 0], [0, 2]]])


def _eight_cycle_twist(k):
    """C8 extended by the automorphism a -> a^k, on 8 points."""
    a = Perm.from_cycles(8, [tuple(range(8))])
    b = Perm([(k * i) % 8 for i in range(8)])
    return PermGroup(8, [a, b])


def klein_by_c4():
    # the 4-cycle swaps the two Klein generators; its square is central
    a = Perm.from_cycles(8, [(0, 1)])
    b = Perm.from_cycles(8, [(2, 3)])
    c = Perm.from_cycles(8, [(0, 2), (1, 3), (4, 5, 6, 7)])
    return PermGroup(8, [a, b, c])


def c4_by_c4():
    # b inverts the 4-cycle a; b^2 is the central 4-point double swap
    a = Perm.from_cycles(8, [(0, 1, 2, 3)])
    b = Perm.from_cycles(8, [(1, 3), (4, 5, 6, 7)])
    return PermGroup(8, [a, b])


def alternating4():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(0, 1), (2, 3)])])


def symmetric3():
    return PermGroup(3, [Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])


def all_small_groups():
    """(name, group) for one representative of each isomorphism type, |G| <= 16."""
    c2 = cyclic(2)
    groups = [
        ("C1", cyclic(1)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("C2xC2", direct(c2, c2)),
        ("C5", cyclic(5)),
        ("C6", cyclic(6)),
        ("S3", symmetric3()),
        ("C7", cyclic(7)),
        ("C8", cyclic(8)),
        ("C4xC2", direct(cyclic(4), c2)),
        ("C2xC2xC2", direct(direct(c2, c2), c2)),
        ("D8", dihedral(4)),
        ("Q8", quaternion8()),
        ("C9", cyclic(9)),
        ("C3xC3", direct(cyclic(3), cyclic(3))),
        ("C10", cyclic(10)),
        ("D10", dihedral(5)),
        ("C11", cyclic(11)),
        ("C12", cyclic(12)),
        ("C6xC2", direct(cyclic(6), c2)),
        ("D12", dihedral(6)),
        ("A4", alternating4()),
        ("Dic3", dicyclic12()),
        ("C13", cyclic(13)),
        ("C14", cyclic(14)),
        ("D14", dihedral(7)),
        ("C15", cyclic(15)),
        ("C16", cyclic(16)),
        ("C4xC4", direct(cyclic(4), cyclic(4))),
        ("(C2xC2):C4", klein_by_c4()),
        ("C4:C4", c4_by_c4()),
        ("C8xC2", direct(cyclic(8), c2)),
        ("M16", _eight_cycle_twist(5)),
        ("D16", dihedral(8)),
        ("SD16", _eight_cycle_twist(3)),
        ("Q16", quaternion16()),
        ("C4xC2xC2", direct(direct(cyclic(4), c2), c2)),
        ("D8xC2", direct(dihedral(4), c2)),
        ("Q8xC2", direct(quaternion8(), c2)),
        ("PauliD8.C4", pauli16()),
        ("C2^4", direct(direct(direct(c2, c2), c2), c2)),
    ]
    return groups


def perms_of(group, indices):
    """The elements of the group at the given element indices, as Perms."""
    perms = group.element_table().perms
    return frozenset(perms[i] for i in indices)


def iso_invariant(group):
    """A tuple that distinguishes all isomorphism types of order <= 16."""
    els = group.elements()
    orders = tuple(sorted(e.order() for e in els))
    center = [x for x in els if all(x * y == y * x for y in els)]
    center_orders = tuple(sorted(x.order() for x in center))
    comms = {x.inverse() * y.inverse() * x * y for x in els for y in els}
    derived = mulclose(list(comms), group.degree)
    coset_orders = {}
    for g in els:
        key = frozenset(g * x for x in derived)
        if key in coset_orders:
            continue
        k = 1
        h = g
        while h not in derived:
            h = h * g
            k += 1
        coset_orders[key] = k
    ab = tuple(sorted(coset_orders.values()))
    return (len(els), orders, center_orders, len(derived), ab)
