"""Aligned (permutation group, matrix action) pairs for census checks.

Every pair couples explicit permutation generators with matrix generators,
index for index, so straight-line programs written against one side evaluate
correctly on the other.  Where a natural point set exists (nonzero vectors,
an affine or projective line) the permutations are derived from the matrix
action on those points; the quaternion pair falls back to the right-regular
copy on the eight matrices themselves.
"""

from .census import ModuleAction
from .ffield import ExtField, FFMatrix, PrimeField, blow_up
from .permgroup import Perm, PermGroup


def perm_from_matrix(mat, points):
    """Permutation of the point list induced by v -> v * mat."""
    pos = {p: i for i, p in enumerate(points)}
    images = [pos.get(tuple(v)) for v in (FFMatrix.from_rows(mat.field, points) * mat).to_rows()]
    if None in images:
        raise ValueError("the matrix does not stabilize the point set")
    return Perm(images)


def regular_perm_copy(mats):
    """Right-regular permutation generators of the matrix group <mats>."""
    field = mats[0].field
    n = mats[0].rows
    ident = FFMatrix.identity(field, n)
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in mats:
                y = x * g
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    ordered = sorted(els, key=lambda m: m.entries)
    pos = {m: i for i, m in enumerate(ordered)}
    return [Perm([pos[x * g] for x in ordered]) for g in mats]


def _nonzero_vectors(field, d):
    pts = [()]
    for _ in range(d):
        pts = [v + (x,) for v in pts for x in field.elements()]
    return [p for p in pts if any(x != field.zero for x in p)]


def _affine_line(field):
    return [(x, field.one) for x in field.elements()]


def _projective_line(field):
    return [(field.one, x) for x in field.elements()] + [(field.zero, field.one)]


def _normalize_projective(field, v):
    a, b = v
    if a != field.zero:
        return (field.one, field.mul(field.inv(a), b))
    return (field.zero, field.one)


def _projective_perm(field, mat, points):
    pos = {p: i for i, p in enumerate(points)}
    moved = (FFMatrix.from_rows(field, points) * mat).to_rows()
    return Perm([pos[_normalize_projective(field, tuple(v))] for v in moved])


def pair_s3():
    """S3 as GL(2,2) on GF(2)^2; points are the three nonzero vectors."""
    f = PrimeField(2)
    mats = [
        FFMatrix.from_rows(f, [[0, 1], [1, 0]]),
        FFMatrix.from_rows(f, [[0, 1], [1, 1]]),
    ]
    pts = _nonzero_vectors(f, 2)
    group = PermGroup(3, [perm_from_matrix(m, pts) for m in mats])
    return group, ModuleAction(mats)


def pair_c3():
    """C3 on GF(2)^2 by the order-3 matrix [[0,1],[1,1]]."""
    f = PrimeField(2)
    mats = [FFMatrix.from_rows(f, [[0, 1], [1, 1]])]
    pts = _nonzero_vectors(f, 2)
    group = PermGroup(3, [perm_from_matrix(m, pts) for m in mats])
    return group, ModuleAction(mats)


def pair_v4():
    """C2 x C2 on GF(2)^3 by two commuting transvections."""
    f = PrimeField(2)
    mats = [
        FFMatrix.from_rows(f, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        FFMatrix.from_rows(f, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ]
    group = PermGroup(4, [Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])])
    return group, ModuleAction(mats)


def pair_a4():
    """A4 as AGL(1,4) on the affine line, module GF(4)^2 blown up to GF(2)^4."""
    f = ExtField(2, 2)
    z = f.gen
    mats = [
        FFMatrix.from_rows(f, [[z, 0], [0, 1]]),
        FFMatrix.from_rows(f, [[1, 0], [1, 1]]),
    ]
    pts = _affine_line(f)
    group = PermGroup(4, [perm_from_matrix(m, pts) for m in mats])
    return group, ModuleAction([blow_up(m) for m in mats])


def pair_a5():
    """A5 as SL(2,4) on the projective line, module blown up to GF(2)^4."""
    f = ExtField(2, 2)
    z = f.gen
    zz = f.mul(z, z)
    mats = [
        FFMatrix.from_rows(f, [[1, 1], [0, 1]]),
        FFMatrix.from_rows(f, [[z, 0], [0, zz]]),
        FFMatrix.from_rows(f, [[0, 1], [1, 0]]),
    ]
    pts = _projective_line(f)
    group = PermGroup(5, [_projective_perm(f, m, pts) for m in mats])
    return group, ModuleAction([blow_up(m) for m in mats])


def pair_s4():
    """S4 on GF(3)^2 through its S3 quotient (kernel the Klein four-group)."""
    f = PrimeField(3)
    mats = [
        FFMatrix.from_rows(f, [[0, 1], [1, 0]]),
        FFMatrix.from_rows(f, [[2, 2], [0, 1]]),
    ]
    group = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])])
    return group, ModuleAction(mats)


def pair_d12():
    """Dihedral of order 12 on GF(3)^2; rotation of order 6 plus a reflection."""
    f = PrimeField(3)
    mats = [
        FFMatrix.from_rows(f, [[0, 1], [2, 1]]),
        FFMatrix.from_rows(f, [[0, 1], [1, 0]]),
    ]
    group = PermGroup(
        6,
        [Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]), Perm.from_cycles(6, [(1, 5), (2, 4)])],
    )
    return group, ModuleAction(mats)


def pair_d8():
    """Dihedral of order 8 on GF(3)^2; rotation of order 4 plus a reflection."""
    f = PrimeField(3)
    mats = [
        FFMatrix.from_rows(f, [[0, 1], [2, 0]]),
        FFMatrix.from_rows(f, [[0, 1], [1, 0]]),
    ]
    group = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(1, 3)])])
    return group, ModuleAction(mats)


def pair_q8():
    """Quaternion group inside SL(2,3); permutation copy is right-regular."""
    f = PrimeField(3)
    mats = [
        FFMatrix.from_rows(f, [[0, 1], [2, 0]]),
        FFMatrix.from_rows(f, [[1, 1], [1, 2]]),
    ]
    perms = regular_perm_copy(mats)
    group = PermGroup(8, perms)
    return group, ModuleAction(mats)


def pair_c2():
    """C2 on GF(3)^1 by negation."""
    f = PrimeField(3)
    mats = [FFMatrix.from_rows(f, [[2]])]
    group = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    return group, ModuleAction(mats)


def census_corpus():
    """All aligned pairs as (name, group, action) triples."""
    return [
        ("S3 on GF(2)^2", *pair_s3()),
        ("C3 on GF(2)^2", *pair_c3()),
        ("V4 on GF(2)^3", *pair_v4()),
        ("A4 on GF(2)^4", *pair_a4()),
        ("A5 on GF(2)^4", *pair_a5()),
        ("S4 on GF(3)^2", *pair_s4()),
        ("D12 on GF(3)^2", *pair_d12()),
        ("D8 on GF(3)^2", *pair_d8()),
        ("Q8 on GF(3)^2", *pair_q8()),
        ("C2 on GF(3)^1", *pair_c2()),
    ]
