"""Orbit census of a dual module through a table of marks, plus its oracle.

Setting: an elementary abelian normal subgroup N = GF(q)^d with a complement
G acting by the matrices of a ModuleAction.  Counting G-orbits on the
irreducible characters of N (the dual module) only needs, for each subgroup
class U of G, the number of dual vectors fixed by U; that vector of counts
decomposes over the table of marks into orbit counts per stabilizer class.
The fixed count for U is q^dim of the common left-nullspace of the
(g^T - 1) for generators g of U, which is where the straight-line programs
stored on the table come in: they rebuild class generators inside any
matrix group with aligned generators.  The class programs run in turn
against one shared dict of products, so a product that several classes
share is computed once.  Tables built by cyclic extension give a class the
generators of a smaller class plus one more, so the fixed spaces are
reduced one generator at a time and shared by generator prefix: each
prefix that several classes share is reduced once.  Only a prefix that a
longer class extends keeps its basis; a class whose generators no other
class extends needs one rank, not a basis.  Before decomposing, the
fixed dimensions are checked against the marks, and after it every
replayed generator of a class of prime order p against M^p = 1, so
generators that do not match the table fail with the classes named.

census_brute_force is the independent oracle, with no table of marks,
nullspace or straight-line program.  It works over GF(p) on the n = k*d
coordinates of the blown-up duals.  Every dual vector becomes an integer
code and every generator a permutation of the p^n codes, built from split
tables at half the exponent: the images of the p^(n/2) low halves and of
the high halves, added in broadcast blocks.  Orbits and stabilizers are
read off the permutations.  The fixed count of a class is a meet in the
middle: the vectors x = (lo, hi) with x * (M - 1) = 0 for the dual image M
of each class generator are counted as pairs of matching low and high
rows.  It is exponential in n, so the code arrays, the split tables and a
broadcast block are checked against the byte bound before anything is
built.
"""

from dataclasses import dataclass

import numpy as np

from .cyclotomic import is_prime, power
from .ffield import FFMatrix, matmul_mod
from .permgroup import PermGroup, check_allocation, is_conjugate_subgroup, orbit_minima, subgroup_classes
from .slp import evaluate
from .tom import TableOfMarks, decompose_fixed_vector

# dual vectors per broadcast block in the brute-force route
_BLOCK = 4096


class ModuleAction:
    """Generator matrices of a group action on GF(q)^d (row vectors).

    The i-th matrix must correspond to the i-th generator of whatever group
    the action is paired with; validate_action_homomorphism checks that
    alignment when a permutation copy is available.
    """

    def __init__(self, matrices):
        mats = tuple(matrices)
        if not mats:
            raise ValueError("need at least one generator matrix")
        field = mats[0].field
        d = mats[0].rows
        for m in mats:
            if m.field != field:
                raise ValueError("generator matrices live over different fields")
            if m.rows != d or m.cols != d:
                raise ValueError("generator matrices must be square of equal size")
            if not m.is_invertible():
                raise ValueError("generator matrices must be invertible")
        self.matrices = mats
        self.field = field
        self.d = d
        self.q = field.q

    def __repr__(self):
        return f"ModuleAction({len(self.matrices)} gens on GF({self.q})^{self.d})"


@dataclass(frozen=True)
class CensusReport:
    """Orbit census of the dual of GF(q)^dim under a group action.

    fixed[i]  -- dual vectors fixed by subgroup class i+1,
    decomp[i] -- orbits whose stabilizer lies in class i+1,
    orders[i] -- the order of subgroup class i+1.

    The rest is read off these: nonzeropos (the 1-based classes with
    decomp != 0), staborders (the orders at those positions), regular_orbits
    (decomp at the trivial class) and orbits (all of them).
    """

    q: int
    dim: int
    fixed: tuple
    decomp: tuple
    orders: tuple

    def __post_init__(self):
        if not len(self.fixed) == len(self.decomp) == len(self.orders):
            raise ValueError("fixed, decomp and orders must have one entry per class")
        if self.fixed[0] != self.q**self.dim:
            raise ValueError("the trivial class must fix the whole dual space")

    @property
    def nonzeropos(self):
        return tuple(i + 1 for i, c in enumerate(self.decomp) if c)

    @property
    def staborders(self):
        return tuple(self.orders[i - 1] for i in self.nonzeropos)

    @property
    def regular_orbits(self):
        return self.decomp[0]

    @property
    def orbits(self):
        return sum(self.decomp)


def fixed_space_dim_dual(mats, bases=None) -> int:
    """dim of the common fixed space of the duals of the given matrices.

    A row vector v is fixed by the dual (inverse-transpose) action of g
    exactly when v * (g^T - 1) = 0, so the space fixed by g_1 is the left
    nullspace of g_1^T - 1.  If the rows of B (k x d) are a basis of the
    space fixed by g_1..g_(r-1), the space fixed by g_1..g_r is spanned by
    the rows of X * B, where X is the left nullspace of the k x d matrix
    B * (g_r^T - 1).

    bases, when given, is filled in and read back.  A generator tuple
    (g_1..g_r) maps to the basis of its fixed space, or to None while it is
    only announced: a caller that knows which tuples other calls will
    extend enters them as keys beforehand.  The basis is kept for every
    proper prefix, and for the whole tuple only when it is a key; otherwise
    the last step needs no basis, only the rank of B * (g_r^T - 1), and the
    dimension is k minus that rank.  A zero B * (g_r^T - 1) says that g_r
    fixes the whole space, so nothing is eliminated and B carries over.
    bases also maps each generator g to its block g^T - 1, and (field, d)
    to the identity those blocks subtract.  Calls that share one dict
    reduce a shared prefix of their generators once, form each generator's
    block once, and over GF(p^k) blow one identity up.
    """
    mats = tuple(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    field = mats[0].field
    d = mats[0].rows
    for m in mats:
        if m.rows != d or m.cols != d or m.field != field:
            raise ValueError("matrices must be square, equal-sized, same field")
    if d == 0:
        return 0
    if bases is None:
        bases = {}
    # start from the longest prefix with a basis, if any
    r = len(mats)
    while r and bases.get(mats[:r]) is None:
        r -= 1
    basis = bases[mats[:r]] if r else None
    for r in range(r + 1, len(mats) + 1):
        g = mats[r - 1]
        block = bases.get(g)
        if block is None:
            if (field, d) not in bases:
                bases[field, d] = FFMatrix.identity(field, d)
            block = bases[g] = g.transpose() - bases[field, d]
        # for one generator B is the identity, and is left out
        m = block if basis is None else basis * block
        # a zero m says that g fixes every vector of B: nothing is eliminated
        if r == len(mats) and mats not in bases:
            return m.rows - m.rank() if m.array.any() else m.rows
        if m.array.any():
            x = m.nullspace()
            basis = x if basis is None else x * basis
        basis = bases[mats[:r]] = bases[field, d] if basis is None else basis
    return basis.rows


def census_from_tom(tom: TableOfMarks, action: ModuleAction) -> CensusReport:
    """Census via the table of marks; needs the table's straight-line programs.

    A class without generators is the trivial class, which fixes the whole
    dual space.  Generators that do not match the table raise ValueError
    when a fixed dimension grows along the marks, when the decomposition
    is not integral, or when a replayed generator of a class of prime
    order p has M^p != 1.
    """
    if tom.slps is None:
        raise ValueError("table of marks carries no straight-line programs")
    mats = action.matrices
    # a program stored against a narrower generator list reads the first
    # matrices; one that reads more than there are fails in evaluate.  The
    # programs share one dict of products, dropped before the fixed spaces,
    # so each distinct product is computed once
    products = {}
    class_gens = [evaluate(prog, mats[: prog.n_inputs], products) for prog in tom.slps]
    del products
    # fixed-space bases by generator prefix, shared by all classes: the
    # proper prefixes are announced, so a class that extends no other's
    # generators takes a rank and keeps no basis
    bases = dict.fromkeys(tuple(gens[:r]) for gens in class_gens for r in range(1, len(gens)))
    dims = [fixed_space_dim_dual(gens, bases) if gens else action.d for gens in class_gens]
    _check_fixed_dims(tom, dims)
    fixed = [action.q**dim for dim in dims]
    decomp = decompose_fixed_vector(tom, fixed)
    # last, as the only check that costs products
    _check_prime_order_generators(tom, class_gens, FFMatrix.identity(action.field, action.d))
    return CensusReport(action.q, action.d, tuple(fixed), decomp, tom.orders)


def _check_fixed_dims(tom: TableOfMarks, dims) -> None:
    """Raise ValueError unless fixed dimensions shrink along the marks.

    marks[i][j] > 0 says that U_j is conjugate to a subgroup of U_i, so U_i
    fixes a space no larger than U_j does.  Generators that do not match
    the table's programs break this at once, before any decomposition.
    """
    dims = np.array(dims, dtype=np.int64)
    bad = np.argwhere(np.array(tom.marks, dtype=bool) & (dims[:, None] > dims[None, :]))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValueError(
            f"class {i + 1} contains a conjugate of class {j + 1} but fixes dimension "
            f"{dims[i]} > {dims[j]}: the generators do not match the table of marks"
        )


def _check_prime_order_generators(tom: TableOfMarks, class_gens, ident) -> None:
    """Raise ValueError unless every generator M of a class of prime order p has M^p = 1.

    ident is the identity matrix of the action.  The image of an element of
    order p has order 1 or p, whatever the action, so a generator that
    fails this was replayed from matrices that do not stand for the table's
    group generators.  Each generator costs about log2(p) products.  The
    check does not catch two group generators of equal order swapped, and
    it reads no class of composite order.
    """
    primes = {order for order in set(tom.orders) if is_prime(order)}
    for i, (order, gens) in enumerate(zip(tom.orders, class_gens)):
        if order in primes and any(power(m, order, ident) != ident for m in gens):
            raise ValueError(
                f"class {i + 1} has prime order {order} but a generator M with "
                f"M^{order} != 1: the generators do not match the table of marks"
            )


def validate_action_homomorphism(group: PermGroup, action: ModuleAction) -> None:
    """Check that generator-aligned matrices define an action of the group.

    Builds the matrix image of every group element along breadth-first words
    and verifies image(g * gen_i) == image(g) * mat_i throughout; that covers
    all defining relations, including collapses under a non-faithful action.
    """
    group.element_table().images(action.matrices)


def _classify_stabilizer(group, classes, stab):
    """Position of the class of the subgroup stab, given by its element indices.

    The indices are those of group.multiplication_table(), as in the classes;
    a class whose order ties with another is tested by is_conjugate_subgroup.
    """
    candidates = [i for i, c in enumerate(classes) if c.order == len(stab)]
    for i in candidates:
        if len(candidates) == 1 or is_conjugate_subgroup(group, stab, classes[i].elements)[0]:
            return i
    raise ValueError("stabilizer matches no subgroup class")


def census_brute_force(group: PermGroup, action: ModuleAction, classes=None) -> CensusReport:
    """Census by enumerating all q^d dual vectors; independent of any tom.

    The action runs over GF(p), on the n = k*d coordinates of the blown-up
    duals.  Every dual vector is an integer code whose n base-p digits are
    its coordinates; over GF(q) these are also the base-q digits of its
    entries.  Each dual generator becomes a permutation of the codes, built
    from two split tables: with x = lo + p^h * hi and h = n // 2, they hold
    lo * M_top and hi * M_bottom for every generator M, so a block of codes
    is a broadcast sum of the two, reduced mod p and weighted back to codes.
    Orbit minima come from orbit_minima along the permutations; a
    representative's stabilizer from its images along the element table's
    tree, classified by order and, when orders tie, by an explicit
    conjugacy search.  The fixed count of a class is the number of x with
    x * (M_g - 1) = 0 for its generators g, M_g the dual image of g from
    the element table: the pairs with lo * A_top = -hi * A_bottom, counted
    by matching sorted row keys, so a class costs O(p^(n - h)).

    Before anything is built, the byte bound counts, at 8 bytes an entry,
    the generator permutations and four more arrays of p^n codes (labels
    and their temporaries), the rows of digits and the split tables of
    each generator (p^h + p^(n-h) rows of n entries each), and one
    broadcast block of about _BLOCK rows per generator.
    """
    p, n = action.field.p, action.field.k * action.d
    gens = len(action.matrices)
    space = p**n
    h = n // 2
    lows, highs = p**h, p ** (n - h)
    per_block = max(1, _BLOCK // lows)  # values of hi in a block
    nbytes = 8 * ((gens + 4) * space + n * ((gens + 1) * (lows + highs) + gens * per_block * lows))
    check_allocation(f"the brute-force census of {space} dual vectors", nbytes)
    table = group.element_table()
    duals = table.images([m.transpose().inverse() for m in action.matrices])
    if classes is None:
        classes = subgroup_classes(group)

    # the rows of sides are the vectors (lo, 0) and then (0, hi)
    sides = np.zeros((lows + highs, n), dtype=np.int64)
    sides[:lows, :h] = _digits(p, h)
    sides[lows:, h:] = _digits(p, n - h)

    # perms[k, x] is the code of (vector x) * dual k: for x = lo + p^h * hi,
    # the sum mod p of the rows (lo, 0) * dual k and (0, hi) * dual k.  A sum
    # of two residues fits the smallest unsigned type that holds 2p - 2
    small = np.min_scalar_type(2 * p - 2)
    tables = matmul_mod(sides, duals[table.right[0]], p).astype(small)
    top, bottom = tables[:, :lows], tables[:, lows:]
    weights = p ** np.arange(n, dtype=np.int64)
    perms = np.empty((gens, space), dtype=np.int64)
    for a in range(0, highs, per_block):
        block = bottom[:, a : a + per_block, None] + top[:, None]
        block -= small.type(p) * (block >= p)
        perms[:, a * lows : (a + per_block) * lows] = (block @ weights).reshape(gens, -1)

    label = orbit_minima(space, perms)
    sizes = np.bincount(label)
    reps = np.flatnonzero(sizes)

    order = len(table.perms)
    counts = [0] * len(classes)
    class_of = {}  # stabilizer, as a mask over the elements -> its class
    # images of a block of representatives under every element, along the
    # tree a level at a time; a block holds about 2^20 images
    step = max(1, 2**20 // order)
    for a in range(0, len(reps), step):
        block = reps[a : a + step]
        images = np.empty((order, len(block)), dtype=np.int64)
        images[0] = block
        for i, k, j in table.tree_levels():
            images[j] = perms[k[:, None], images[i]]
        fixes = images == block
        if np.any(fixes.sum(axis=0) * sizes[block] != order):
            raise RuntimeError("orbit-stabilizer mismatch; the action is inconsistent")
        for column in fixes.T:
            key = column.tobytes()
            if key not in class_of:
                class_of[key] = _classify_stabilizer(group, classes, np.flatnonzero(column))
            counts[class_of[key]] += 1

    # x = (lo, hi) is fixed by g when lo * A_top = -hi * A_bottom for
    # A = M_g - 1; as hi runs over GF(p)^(n-h) so does -hi, so the fixed
    # count is the number of pairs with lo * A_top = hi * A_bottom, rows of
    # sides * A.  Each row gets an id, equal for rows equal over every
    # generator of the class so far: after each generator, id * p^n + code
    # is renumbered by sorting
    ident = np.eye(n, dtype=np.int64)
    codes = {}  # element index -> the codes of the rows of sides * A
    fixed = []
    for c in classes:
        ids = np.zeros(len(sides), dtype=np.int64)
        for g in c.generators:
            if g not in codes:
                codes[g] = matmul_mod(sides, duals[g] - ident, p) @ weights
            ids = np.unique(ids * space + codes[g], return_inverse=True)[1]
        left, right = (np.bincount(i, minlength=len(ids)) for i in np.split(ids, [lows]))
        fixed.append(int(left @ right))
    return CensusReport(action.q, action.d, tuple(fixed), tuple(counts), tuple(c.order for c in classes))


def _digits(p, width):
    """The base-p digits of 0 .. p^width - 1, a row each, least significant first."""
    return np.arange(p**width, dtype=np.int64)[:, None] // p ** np.arange(width, dtype=np.int64) % p
