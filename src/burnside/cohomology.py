"""First and second cohomology of a finite group on a GF(p) module.

Convention: the module is a right module, written f(g,h)^k for the action
of k on f(g,h); 1-cocycles satisfy f(gh) = f(g)^h + f(h), and normalized
2-cocycles (f(1,.) = f(.,1) = 0) satisfy

    f(g,h)^k + f(gh,k) = f(h,k) + f(g,hk).

Both are parametrized by their values on the r group generators, along the
breadth-first word tree of the element table.  H^1 has the unknowns f(x)
and F(h'x) = F(h')^x + f(x) along each tree edge h' -> h'x; delta1_matrix
demands that identity on every Cayley edge outside the tree, and its kernel
is Z^1.  For H^2 the unknowns are u(g,x) = f(g,x) for g != 1, (|G|-1) r d
of them, and F(g,1) = 0, F(g,h'x) = F(g,h')^x + u(gh',x) - u(h',x): the
identity at (g,h',x).  Demanded on every non-tree edge for every g != 1, it
has kernel Z^2.  Restriction to the u(g,x) is injective on Z^2, since a
cocycle obeys the tree extension.  Conversely, if F obeys the identity for
every generator as last argument, it holds for every k by induction on the
word length of k: expanding each term of the identity at (g,h,kx) by the
identities at (.,k,x) leaves the one at (g,h,k), acted on by x.

One seed system gives every g.  Give every element w, 1 included, the
unknowns u(w,x), and let A(1) = 0, A(h'x) = A(h')^x + u(h',x); delta2_matrix
is c, the identity for A on the non-tree edges.  If pi_g relabels u(w,x) as
u(gw,x), then F(g,.) = pi_g A - A once u(1,.) = 0, so the rows for g are
pi_g(c) - c without the identity's columns.  As pi_h(pi_g c - c) =
(pi_hg c - c) - (pi_h c - c), those rows span the F_pG-submodule spun from
the seeds pi_x(c) - c, x a generator: the MeatAxe spin-up (R. A. Parker,
Computational Group Theory, 1984).  The seeds already span that module.
The row space R of c is pi_g-invariant: pi_g of the identity around a
fundamental loop at 1 is the identity around the translated loop, the
module image of a loop at 1 and so a sum of fundamental ones.  Then
(pi_hx - 1) R is inside (pi_h - 1) R + (pi_x - 1) R, so by induction on
word length every pi_g(c) - c lies in the span of the seeds.  _delta2_rank
reduces the seeds into a running basis in reduced row echelon form and
takes its rank.  The u(w,.) blocks of every spun row sum to zero, as pi_g
permutes the blocks, so no nonzero row lies in the identity's block alone,
and dropping that block keeps the rank.
B^2 is the image of the normalized 1-cochains, whose kernel is Z^1, so
dim B^2 = (|G|-1) d - dim Z^1.

Before anything is built, the byte bound (permgroup.SYSTEM_BYTES_BOUND)
counts, at 8 bytes an entry, what the spin holds at once: the seed system,
the N x N basis (N = |G| r d), two N x N temporaries of _extend (the basis
in float64 and the product that clears new pivots), and six times the
images of one slice of |G| d rows.  H^1 is a single small system, and the
bound counts its F and rows.
"""

import time

import numpy as np

from .census import ModuleAction
from .ffield import matmul_mod, reduce_mod, row_echelon
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


def _tree_system(pair, unknowns, block):
    """Extend F along the word tree and return the constraint rows.

    F holds the d x unknowns coefficients of F(h) at every element h: F(1)
    is zero, and the step along an edge h' -> h'x_k is F(h')^x_k plus the
    unknowns of block block(i, k), i the index of h'.  F is extended one
    breadth-first level at a time, all edges of a level in one batched
    step, and then all non-tree edges (i, k, j) take one more step, in the
    order of table.right.  One row per non-tree edge and coordinate states
    that F(j) is the step from F(i) along x_k.
    """
    table, d, p = pair.group.element_table(), pair.d, pair.p
    F = np.zeros((pair.order, d, unknowns), dtype=np.int64)
    acts = pair.gens.transpose(0, 2, 1)  # (F^x)_t = sum_a x[a, t] F_a
    t = np.arange(d)

    def step(i, k):  # not yet reduced mod p; d (p-1)^2 < 2^63 (ElementTable.images)
        out = np.matmul(acts[k], F[i])
        out[np.arange(len(k))[:, None], t, block(i, k)[:, None] * d + t] += 1
        return out

    right = np.array(table.right, dtype=np.intp)
    outside = np.ones(right.shape, dtype=bool)
    for i, k, j in table.tree_levels():
        F[j] = reduce_mod(step(i, k), p)
        outside[i, k] = False
    i, k = np.nonzero(outside)
    out = step(i, k)
    np.subtract(F[right[i, k]], out, out=out)
    reduce_mod(out, p)
    return out.reshape(len(i) * d, unknowns)


def delta1_matrix(pair: GroupModulePair) -> np.ndarray:
    """Word-tree 1-cocycle system: Z^1 is its kernel on the f(x) columns.

    Column k * d + t is coordinate t of f at generator k, and F(h'x) =
    F(h')^x + f(x) along the tree.
    """
    return _tree_system(pair, len(pair.gens) * pair.d, lambda i, k: k)


def _z1_dimension(pair):
    """dim Z^1, from the rank of delta1_matrix."""
    n, d, unknowns = pair.order, pair.d, len(pair.gens) * pair.d
    check_allocation(f"the H^1 word-tree system on {unknowns} unknowns",
                     8 * d * unknowns * (n * len(pair.gens) + 1))
    return unknowns - len(row_echelon(delta1_matrix(pair), pair.p)[1])


def h1_dimension(pair: GroupModulePair) -> int:
    """dim Z^1 - dim B^1 on generator values; B^1 is spanned by x -> m - m^x."""
    principal = (np.eye(pair.d, dtype=np.int64) - pair.gens).transpose(1, 0, 2)
    return _z1_dimension(pair) - len(row_echelon(principal.reshape(pair.d, -1), pair.p)[1])


def delta2_matrix(pair: GroupModulePair) -> np.ndarray:
    """The word-tree seed system c, on the u(w, x) columns of every element w.

    Column (w * r + k) * d + t is coordinate t of u at the w-th nonidentity
    element and generator k, and the identity's block comes last.  The row
    of a non-tree edge states A(h'x) = A(h')^x + u(h', x), and the rows of
    the cocycle system for g != 1 are pi_g(c) - c with the identity's
    columns dropped.
    """
    n, r = pair.order, len(pair.gens)
    return _tree_system(pair, n * r * pair.d, lambda i, k: (i - 1) % n * r + k)


def _spin_columns(pair):
    """cols[k], the gather that takes a row of delta2_matrix to its image under pi_{x_k}."""
    table, n, r, d = pair.group.element_table(), pair.order, len(pair.gens), pair.d
    # left[k, w]: the index of x_k w, along the tree a level at a time:
    # x_k (w' x_m) = (x_k w') x_m.  Column blocks are at position index - 1 mod n
    right = np.array(table.right, dtype=np.intp)
    left = np.empty((r, n), dtype=np.intp)
    left[:, 0] = right[0]
    for i, k, j in table.tree_levels():
        left[:, j] = right[left[:, i], k]
    source = np.empty((r, n), dtype=np.intp)
    source[np.arange(r)[:, None], (left - 1) % n] = (np.arange(n) - 1) % n
    return (source[:, :, None] * (r * d) + np.arange(r * d)).reshape(r, n * r * d)


def _extend(basis, pivots, rows, p):
    """Extend the RREF basis[:len(pivots)] by the row space of rows.

    The basis is the identity on its pivot columns, so one product takes
    the span of the basis out of rows and leaves them zero on those
    columns.  Their nonzero remainder is reduced to new basis rows, and the
    new pivot columns are cleared from the old rows.
    """
    rank = len(pivots)
    rows = rows[rows.any(axis=1)]
    if rank and len(rows):
        rows = reduce_mod(rows - matmul_mod(rows[:, pivots], basis[:rank], p), p)
        rows = rows[rows.any(axis=1)]
    if not len(rows):
        return
    free = np.ones(basis.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    reduced, new = row_echelon(rows[:, free], p)
    added = np.zeros((len(new), basis.shape[1]), dtype=np.int64)
    added[:, free] = reduced[: len(new)]
    new = free[new]
    if rank:
        basis[:rank] -= matmul_mod(basis[:rank, new], added, p)
        reduce_mod(basis[:rank], p)
    basis[rank : rank + len(new)] = added
    pivots.extend(new.tolist())


def _delta2_rank(pair, progress):
    """The rank of the cocycle system: the rank of its seeds pi_x(c) - c."""
    n, r, d, p = pair.order, len(pair.gens), pair.d, pair.p
    unknowns, seed_rows = n * r * d, (n * (r - 1) + 1) * d
    step = n * d  # rows imaged at once: one generator's images are 1/r of the basis
    check_allocation(f"the H^2 word-tree system on {unknowns} unknowns",
                     8 * unknowns * (3 * unknowns + seed_rows + 6 * step))
    start = time.perf_counter()
    seed = delta2_matrix(pair)
    basis = np.empty((unknowns, unknowns), dtype=np.int64)
    pivots = []
    for x in _spin_columns(pair):
        for a in range(0, seed_rows, step):
            rows = seed[a : a + step]
            _extend(basis, pivots, reduce_mod(rows[:, x] - rows, p), p)
    if progress is not None:
        progress(f"round 1: rank {len(pivots)}, {time.perf_counter() - start:.2f} s")
    return len(pivots)


def h2_dimension(pair: GroupModulePair, progress=None) -> int:
    """dim Z^2 - dim B^2 on the word-tree unknowns.

    dim B^2 = (|G|-1) d - dim Z^1.  progress, when given, is called with a
    line of text once the seeds are reduced.
    """
    m, r, d = pair.order - 1, len(pair.gens), pair.d
    z2 = m * r * d - _delta2_rank(pair, progress)
    return z2 - (m * d - _z1_dimension(pair))


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
