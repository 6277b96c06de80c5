"""First and second cohomology of a finite group on a GF(p) module.

Everything is done by explicit linear algebra on cochains: cocycles are the
kernel of a coboundary system, coboundaries the image of the previous one,
and dimensions fall out of exact GF(p) matrix ranks.  Cochains are stored
against an explicit element list with the identity first; 2-cochains are
normalized (f(1,.) = f(.,1) = 0), which shrinks the H^2 system to
(|G|-1)^2 * d unknowns.

Convention: the module is a right module, written f(g,h)^k for the action
of k on f(g,h); the 2-cocycle identity is

    f(g,h)^k + f(gh,k) = f(h,k) + f(g,hk).

Both systems are dense, so memory grows like |G|^5 * d^2 for H^2.  A
system of more than permgroup.SYSTEM_BYTES_BOUND bytes is refused before it
is built; its rank holds about four times the system at once.  Products of
group elements come from the group's product table, by element index.
"""

import numpy as np

from .ffield import FFMatrix, row_echelon
from .permgroup import PermGroup, check_allocation

H1_BOUND = 128


class GroupModulePair:
    """A finite group with a matrix action of its generators on GF(p)^d.

    The action extends to all elements multiplicatively along generator
    words.  That extension only makes sense when the generator images
    actually define a homomorphism, so construction checks
    action(x) * action(g) = action(x * g) for every element x and every
    generator g, which covers all defining relations of the group.
    images[i] is the d x d integer matrix (mod p) of elements[i], the i-th
    element in sorted order; elements[0] is the identity.
    """

    def __init__(self, group: PermGroup, matrices):
        matrices = tuple(matrices)
        if len(matrices) != len(group.generators):
            raise ValueError(
                f"{len(group.generators)} group generators but {len(matrices)} matrices"
            )
        if not matrices:
            raise ValueError("need at least one generator matrix")
        field = matrices[0].field
        if field.k != 1:
            raise ValueError("the module must be over a prime field GF(p)")
        d = matrices[0].rows
        for m in matrices:
            if m.field != field or m.rows != d or m.cols != d:
                raise ValueError("matrices must be square, equal-sized, over one field")
            if not m.is_invertible():
                raise ValueError("generator matrices must be invertible")
        self.group = group
        self.field = field
        self.p = field.p
        self.d = d
        table = group.element_table()
        self.elements = table.perms
        images = table.images(matrices, FFMatrix.identity(field, d))
        self.images = np.stack([m.array for m in images])


def h1_dimension(pair: GroupModulePair, bound: int = H1_BOUND) -> int:
    """dim Z^1 - dim B^1 for 1-cochains f: G -> M.

    Z^1 is cut out by f(gh) = f(g)^h + f(h) over all pairs; B^1 is the span
    of the principal cocycles g -> m - m^g.
    """
    n = len(pair.elements)
    if n > bound:
        raise ValueError(f"group order {n} exceeds the H^1 bound {bound}")
    d, p = pair.d, pair.p
    check_allocation(f"a {n * n * d} x {n * d} int64 system", n * n * d * n * d * 8)
    mul = pair.group.multiplication_table().mul
    g, h = (a.ravel() for a in np.indices((n, n)))
    r = np.arange(d)[None, :]
    g2, h2, gh = g[:, None], h[:, None], mul[g, h][:, None]

    # rows (g, h, coordinate), columns (element, coordinate)
    system = np.zeros((n, n, d, n, d), dtype=np.int64)
    system[g2, h2, r, gh, r] += 1
    system[g, h, :, g, :] -= pair.images[h].transpose(0, 2, 1)
    system[g2, h2, r, h2, r] -= 1
    z1 = n * d - len(row_echelon(system.reshape(n * n * d, n * d), p)[1])

    principal = (np.eye(d, dtype=np.int64) - pair.images).transpose(1, 0, 2).reshape(d, n * d)
    return z1 - len(row_echelon(principal, p)[1])


def delta1_matrix(pair: GroupModulePair) -> np.ndarray:
    """Coboundary of normalized 1-cochains, one row per basis cochain.

    Row (i, a): the 2-cochain delta f for f = e_a at the i-th nonidentity
    element, laid out over the (g, h, coordinate) columns of the normalized
    2-cochain space.  Its row space is B^2.
    """
    n, d, p = len(pair.elements), pair.d, pair.p
    m = n - 1
    # positions among the nonidentity elements: element index - 1, so the
    # identity (whose cochain values are zero) sits at -1 and is dropped
    pos = pair.group.multiplication_table().mul[1:, 1:] - 1
    g, h = (a.ravel() for a in np.indices((m, m)))
    r = np.arange(d)[None, :]
    g2, h2 = g[:, None], h[:, None]
    gh = pos[g, h]
    keep = gh >= 0

    # rows (element, coordinate), columns (g, h, coordinate)
    out = np.zeros((m, d, m, m, d), dtype=np.int64)
    out[g, :, g, h, :] += pair.images[h + 1]
    out[gh[keep][:, None], r, g2[keep], h2[keep], r] -= 1
    out[h2, r, g2, h2, r] += 1
    return out.reshape(m * d, m * m * d) % p


def delta2_matrix(pair: GroupModulePair) -> np.ndarray:
    """Cocycle system for normalized 2-cochains, one row per (g,h,k,coord).

    Z^2 is the kernel of this matrix applied to unknown column vectors;
    triples with an identity entry are vacuous under normalization and
    are skipped.
    """
    n, d, p = len(pair.elements), pair.d, pair.p
    m = n - 1
    pos = pair.group.multiplication_table().mul[1:, 1:] - 1  # as in delta1_matrix
    g, h, k = (a.ravel() for a in np.indices((m, m, m)))
    r = np.arange(d)[None, :]
    g2, h2, k2 = g[:, None], h[:, None], k[:, None]
    gh, hk = pos[g, h], pos[h, k]
    gh_keep, hk_keep = gh >= 0, hk >= 0

    # rows (g, h, k, coordinate), columns (g', h', coordinate)
    out = np.zeros((m, m, m, d, m, m, d), dtype=np.int64)
    out[g, h, k, :, g, h, :] += pair.images[k + 1].transpose(0, 2, 1)
    out[g2[gh_keep], h2[gh_keep], k2[gh_keep], r, gh[gh_keep][:, None], k2[gh_keep], r] += 1
    out[g2, h2, k2, r, h2, k2, r] -= 1
    out[g2[hk_keep], h2[hk_keep], k2[hk_keep], r, g2[hk_keep], hk[hk_keep][:, None], r] -= 1
    return out.reshape(m * m * m * d, m * m * d) % p


def h2_dimension(pair: GroupModulePair) -> int:
    """dim Z^2 - dim B^2 on normalized cochains, by two GF(p) ranks."""
    m = len(pair.elements) - 1
    unknowns = m * m * pair.d
    check_allocation(f"a {m * unknowns} x {unknowns} int64 system", m * unknowns * unknowns * 8)
    z2 = unknowns - len(row_echelon(delta2_matrix(pair), pair.p)[1])
    b2 = len(row_echelon(delta1_matrix(pair), pair.p)[1])
    return z2 - b2


def splits_implies(pair: GroupModulePair, h2dim: int) -> str:
    """Verdict text for a computed H^2 dimension."""
    head = (
        f"group of order {len(pair.elements)} on a {pair.d}-dimensional "
        f"GF({pair.p}) module: dim H^2 = {h2dim}"
    )
    if h2dim == 0:
        return head + ("; every extension of G by M splits; "
                       "the semidirect product is the unique extension")
    return head + f"; {pair.p**h2dim} equivalence classes of extensions"
