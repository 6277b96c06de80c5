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

H^2 has (|G|-1)(|G|(r-1)+1)d constraint rows on its (|G|-1)rd unknowns,
far more rows than its rank.  h2_dimension never holds them all: it builds
delta2_matrix for a chunk of consecutive g at a time, as many g as fit
_CHUNK entries of F and rows (at least one), and reduces each g's rows
against a running basis in reduced row echelon form, which their
remainder extends.  What is held at once is one chunk and the basis.
Before anything is built, the byte bound (permgroup.SYSTEM_BYTES_BOUND)
counts, at 8 bytes an entry, the larger of two peaks: while a chunk is
built, its F, its rows, two temporaries the size of its rows, the basis
and four index entries per row; while one g is reduced, the chunk's rows, the basis, two
unknowns x unknowns temporaries and four the size of one g's rows.  H^1
is a single small system, and the bound counts its F and rows.
"""

import time

import numpy as np

from .census import ModuleAction
from .ffield import matmul_mod, reduce_mod, row_echelon
from .permgroup import PermGroup, check_allocation

# entries of F and constraint rows that h2_dimension builds at once
_CHUNK = 2**20


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


def _tree_system(pair, blocks, unknowns, add_units):
    """Extend F along the word tree and return the constraint rows.

    F holds, per block, the d x unknowns coefficients of F(., h) at every
    element h.  It is extended one breadth-first level at a time, all edges
    of a level in one batched step, and then all non-tree edges (i, k, j)
    take one more step, in the order of table.right.  One row per block,
    non-tree edge and coordinate states that F(j) is the step from F(i)
    along x_k; add_units(out, i, k) adds the unknowns' part of the steps
    along the edges (i[e], k[e]) to out[:, e] in place.
    """
    table, d, p = pair.group.element_table(), pair.d, pair.p
    F = np.zeros((blocks, pair.order, d, unknowns), dtype=np.int64)
    acts = pair.gens.transpose(0, 2, 1)  # (F^x)_t = sum_a x[a, t] F_a

    def step(i, k):  # not yet reduced mod p; d (p-1)^2 < 2^63 (ElementTable.images)
        out = np.matmul(acts[k], F[:, i])
        add_units(out, i, k)
        return out

    for i, k, j in table.tree_levels():
        F[:, j] = reduce_mod(step(i, k), p)
    right = np.array(table.right, dtype=np.intp)
    outside = np.ones(right.shape, dtype=bool)
    i, k, _ = np.array(table.tree, dtype=np.intp).reshape(-1, 3).T
    outside[i, k] = False
    i, k = np.nonzero(outside)
    out = step(i, k)
    np.subtract(F[:, right[i, k]], out, out=out)
    reduce_mod(out, p)
    return out.reshape(blocks * len(i) * d, unknowns)


def h1_dimension(pair: GroupModulePair) -> int:
    """dim Z^1 - dim B^1 on generator values; B^1 is spanned by x -> m - m^x."""
    n, d, p = pair.order, pair.d, pair.p
    unknowns = len(pair.gens) * d
    check_allocation(f"the H^1 word-tree system on {unknowns} unknowns",
                     8 * d * unknowns * (n * len(pair.gens) + 1))
    t = np.arange(d)

    def add_units(out, i, k):
        out[:, np.arange(len(k))[:, None], t, k[:, None] * d + t] += 1

    z1 = unknowns - len(row_echelon(_tree_system(pair, 1, unknowns, add_units), p)[1])
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


def delta2_matrix(pair: GroupModulePair, gs=None) -> np.ndarray:
    """Word-tree cocycle system: Z^2 is its kernel on the u(g, x) columns.

    Column (g * r + k) * d + t is coordinate t of u at the g-th nonidentity
    element and generator k.  The rows are the identities on the Cayley
    edges outside the tree, g-major, for each g in gs: positions among the
    nonidentity elements, all of them by default.
    """
    m, r, d = pair.order - 1, len(pair.gens), pair.d
    gs = np.arange(m) if gs is None else np.asarray(gs, dtype=np.intp)
    # g h' as a position among the nonidentity elements; the identity is at -1
    gh = pair.group.multiplication_table().mul[gs + 1].astype(np.intp) - 1
    t = np.arange(d)

    def add_units(out, i, k):
        # + u(g h', x) where g h' != 1
        b, e = np.nonzero(gh[:, i] >= 0)
        out[b[:, None], e[:, None], t, (gh[b, i[e]][:, None] * r + k[e, None]) * d + t] += 1
        # - u(h', x) where h' != 1
        e = np.flatnonzero(i)
        out[:, e[:, None], t, ((i[e, None] - 1) * r + k[e, None]) * d + t] -= 1

    return _tree_system(pair, len(gs), m * r * d, add_units)


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
    """The rank of delta2_matrix, built and reduced a chunk of g at a time."""
    n, r, d, p = pair.order, len(pair.gens), pair.d, pair.p
    m, rows = n - 1, (n * (r - 1) + 1) * d  # constraint rows per g
    unknowns = m * r * d
    chunk = max(1, min(m, _CHUNK // max(1, (n * d + rows) * unknowns)))
    # entries held while a chunk is built (with the edge index arrays of
    # add_units, about four entries per row), and while one g is reduced
    build = unknowns * (chunk * (n * d + 3 * rows) + unknowns) + 4 * chunk * rows
    reduce = unknowns * (chunk * rows + 3 * unknowns + 4 * rows)
    check_allocation(f"the H^2 word-tree system on {unknowns} unknowns", 8 * max(build, reduce))
    basis = np.empty((unknowns, unknowns), dtype=np.int64)
    pivots = []
    for a in range(0, m, chunk):
        start = time.perf_counter()
        gs = range(a, min(a + chunk, m))
        system = delta2_matrix(pair, gs)
        for b in range(0, len(system), rows):
            _extend(basis, pivots, system[b : b + rows], p)
        del system  # before the next chunk is built
        if progress is not None:
            progress(f"chunk {a // chunk + 1}/{-(-m // chunk)}: g {a + 1}-{gs.stop}, "
                     f"rank {len(pivots)}, {time.perf_counter() - start:.2f} s")
    return len(pivots)


def h2_dimension(pair: GroupModulePair, progress=None) -> int:
    """dim Z^2 - dim B^2 on the word-tree unknowns, by two GF(p) ranks.

    The rank of delta2_matrix is streamed; progress, when given, is called
    with a line of text after each chunk.
    """
    z2 = (pair.order - 1) * len(pair.gens) * pair.d - _delta2_rank(pair, progress)
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
