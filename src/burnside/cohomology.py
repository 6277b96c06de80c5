"""First and second cohomology of a finite group on a GF(p) module.

Convention: the module is a right module, written f(g,h)^k for the action
of k on f(g,h); 1-cocycles satisfy f(gh) = f(g)^h + f(h), and normalized
2-cocycles (f(1,.) = f(.,1) = 0) satisfy

    f(g,h)^k + f(gh,k) = f(h,k) + f(g,hk).

Both are parametrized by their values on the r group generators, along the
breadth-first word tree of the element table.  For H^2 the unknowns are
u(g,x) = f(g,x) for g != 1 and x a generator, (|G|-1) * r * d of them.  F is
extended by F(g,1) = 0 and F(g,h'x) = F(g,h')^x + u(gh',x) - u(h',x) along
each tree edge h' -> h'x: the identity at (g,h',x).  delta2_matrix demands
that identity on every Cayley edge outside the tree, one d-row block per
g != 1 and edge.  Its kernel is Z^2.  Restriction to the u(g,x) is injective
on Z^2, since a cocycle obeys the tree extension.  Conversely, if F obeys
the identity for every generator as last argument, it holds for every k by
induction on the word length of k: expanding each term of the identity at
(g,h,kx) by the identities at (.,k,x) leaves the one at (g,h,k), acted on
by x.  B^2 is spanned by the coboundaries of normalized 1-cochains on the
same columns (delta1_matrix).  H^1 is the same construction with unknowns
f(x) and F(h'x) = F(h')^x + f(x).

For H^2 that is (|G|-1)(|G|(r-1)+1)d rows, (|G|-1)rd columns, and an F of
(|G|-1)|G|d rows; when the two take more than permgroup.SYSTEM_BYTES_BOUND
bytes together, nothing is built.  The rank holds a reduced copy besides.
"""

import numpy as np

from .census import ModuleAction
from .ffield import row_echelon
from .permgroup import PermGroup, check_allocation


class GroupModulePair:
    """A finite group with a matrix action of its generators on GF(p)^d.

    The action extends to all elements multiplicatively along generator
    words.  That extension only makes sense when the generator images
    actually define a homomorphism, so construction checks
    action(x) * action(g) = action(x * g) for every element x and every
    generator g, which covers all defining relations of the group.  The
    pair keeps what the cohomology reads: order, the group order, and
    gens[k], the d x d integer matrix (mod p) of generator k.
    """

    def __init__(self, group: PermGroup, matrices):
        matrices = tuple(matrices)
        if len(matrices) != len(group.generators):
            raise ValueError(
                f"{len(group.generators)} group generators but {len(matrices)} matrices"
            )
        action = ModuleAction(matrices)
        if action.field.k != 1:
            raise ValueError("the module must be over a prime field GF(p)")
        self.group = group
        self.field = action.field
        self.p = action.field.p
        self.d = action.d
        group.element_table().images(matrices)  # the homomorphism check
        self.order = group.order()
        self.gens = np.stack([m.array for m in matrices])


def _check_size(pair, blocks, name):
    """Refuse F and the constraint rows of _tree_system above the byte bound."""
    n, r, d = pair.order, len(pair.gens), pair.d
    unknowns = blocks * r * d
    check_allocation(f"the {name} word-tree system on {unknowns} unknowns",
                     8 * blocks * d * unknowns * (n * r + 1))
    return unknowns


def _tree_system(pair, blocks, add_units):
    """Extend F along the word tree and return the constraint rows.

    One row per block, non-tree edge (i, k, j) and coordinate states that
    F(j) is the step from F(i) along x_k; add_units(out, i, k) adds the
    unknowns' part of that step to out in place.
    """
    table, d, p = pair.group.element_table(), pair.d, pair.p
    F = np.zeros((blocks, pair.order, d, blocks * len(pair.gens) * d), dtype=np.int64)

    def step(i, k):
        out = np.matmul(pair.gens[k].T, F[:, i])  # (F^x)_t = sum_a F_a x[a, t]
        add_units(out, i, k)
        return out % p

    for i, k, j in table.tree:
        F[:, j] = step(i, k)
    tree = {(i, k) for i, k, _ in table.tree}
    edges = [(i, k, j) for i, row in enumerate(table.right) for k, j in enumerate(row)
             if (i, k) not in tree]
    out = np.empty((blocks, len(edges)) + F.shape[2:], dtype=np.int64)
    for e, (i, k, j) in enumerate(edges):
        out[:, e] = (F[:, j] - step(i, k)) % p
    return out.reshape(blocks * len(edges) * d, F.shape[3])


def h1_dimension(pair: GroupModulePair) -> int:
    """dim Z^1 - dim B^1 on generator values; B^1 is spanned by x -> m - m^x."""
    d, p = pair.d, pair.p
    unknowns = _check_size(pair, 1, "H^1")
    t = np.arange(d)

    def add_units(out, i, k):
        out[0, t, k * d + t] += 1

    z1 = unknowns - len(row_echelon(_tree_system(pair, 1, add_units), p)[1])
    principal = (np.eye(d, dtype=np.int64) - pair.gens).transpose(1, 0, 2).reshape(d, unknowns)
    return z1 - len(row_echelon(principal, p)[1])


def delta1_matrix(pair: GroupModulePair) -> np.ndarray:
    """Coboundaries of normalized 1-cochains on the (g, x, coordinate) columns.

    Row (i, a): delta c(g, x) = c(g)^x + c(x) - c(gx) for c = e_a at the
    i-th nonidentity element, at every nonidentity g and generator x.  Its
    row space is B^2 restricted to the unknowns of delta2_matrix.
    """
    m, r, d = pair.order - 1, len(pair.gens), pair.d
    # positions among the nonidentity elements; the identity is at -1
    right = np.array(pair.group.element_table().right, dtype=np.intp) - 1
    g, k = (a.ravel() for a in np.indices((m, r)))
    t = np.arange(d)

    # rows (element, coordinate), columns (g, generator, coordinate)
    out = np.zeros((m, d, m, r, d), dtype=np.int64)
    out[np.arange(m), :, np.arange(m)] += pair.gens.transpose(1, 0, 2)
    for at, sign in ((right[0][k], 1), (right[1:].ravel(), -1)):  # c(x), c(gx)
        keep = at >= 0
        out[at[keep][:, None], t, g[keep][:, None], k[keep][:, None], t] += sign
    return out.reshape(m * d, m * r * d) % pair.p


def delta2_matrix(pair: GroupModulePair) -> np.ndarray:
    """Word-tree cocycle system: Z^2 is its kernel on the u(g, x) columns.

    Column (g * r + k) * d + t is coordinate t of u at the g-th nonidentity
    element and generator k; rows are the identities on the Cayley edges
    outside the tree, for each g != 1.
    """
    mul = pair.group.multiplication_table().mul[1:].astype(np.intp) - 1  # as in delta1_matrix
    m, r, d = pair.order - 1, len(pair.gens), pair.d
    g, t = np.arange(m), np.arange(d)

    def add_units(out, i, k):
        # + u(g h', x) where g h' != 1, - u(h', x) where h' != 1
        keep = mul[:, i] >= 0
        out[g[keep][:, None], t, (mul[keep, i][:, None] * r + k) * d + t] += 1
        if i:
            out[:, t, ((i - 1) * r + k) * d + t] -= 1

    return _tree_system(pair, m, add_units)


def h2_dimension(pair: GroupModulePair) -> int:
    """dim Z^2 - dim B^2 on the word-tree unknowns, by two GF(p) ranks."""
    unknowns = _check_size(pair, pair.order - 1, "H^2")
    z2 = unknowns - len(row_echelon(delta2_matrix(pair), pair.p)[1])
    return z2 - len(row_echelon(delta1_matrix(pair), pair.p)[1])


def splits_implies(pair: GroupModulePair, h2dim: int) -> str:
    """Verdict text for a computed H^2 dimension."""
    head = (
        f"group of order {pair.order} on a {pair.d}-dimensional "
        f"GF({pair.p}) module: dim H^2 = {h2dim}"
    )
    if h2dim == 0:
        return head + ("; every extension of G by M splits; "
                       "the semidirect product is the unique extension")
    return head + f"; {pair.p**h2dim} equivalence classes of extensions"
