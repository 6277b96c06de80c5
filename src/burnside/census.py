"""Orbit census of a dual module through a table of marks, plus its oracle.

Setting: an elementary abelian normal subgroup N = GF(q)^d with a complement
G acting by the matrices of a ModuleAction.  Counting G-orbits on the
irreducible characters of N (the dual module) only needs, for each subgroup
class U of G, the number of dual vectors fixed by U; that vector of counts
decomposes over the table of marks into orbit counts per stabilizer class.
The fixed count for U is q^dim of the common left-nullspace of the stacked
(g^T - 1) for generators g of U, which is where the straight-line programs
stored on the table come in: they rebuild class generators inside any
matrix group with aligned generators.

census_brute_force is the sanity route: enumerate the whole dual space,
walk orbits, classify each stabilizer by scanning group elements.  It is
exponential in d and only meant for desk-size checks, so it carries hard
bounds.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .ffield import FFMatrix
from .permgroup import PermGroup, is_conjugate_subgroup, subgroup_classes
from .slp import SLProgram, evaluate
from .tom import TableOfMarks, decompose_fixed_vector, orders_of

# brute-force route only; the tom route has no such limits
ORACLE_GROUP_BOUND = 10_000
ORACLE_SPACE_BOUND = 2**24


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

    fixed[i]   -- dual vectors fixed by subgroup class i+1,
    decomp[i]  -- orbits whose stabilizer lies in class i+1,
    nonzeropos -- 1-based classes with decomp != 0,
    staborders -- subgroup orders at those positions,
    regular_orbits -- decomp at the trivial class (free orbits).
    """

    q: int
    dim: int
    fixed: tuple
    decomp: tuple
    nonzeropos: tuple
    staborders: tuple
    regular_orbits: int

    def __post_init__(self):
        if len(self.fixed) != len(self.decomp):
            raise ValueError("fixed and decomp must have one entry per class")
        if self.fixed[0] != self.q**self.dim:
            raise ValueError("the trivial class must fix the whole dual space")
        nz = tuple(i + 1 for i, c in enumerate(self.decomp) if c)
        if self.nonzeropos != nz:
            raise ValueError("nonzeropos must list the nonzero decomp positions")
        if len(self.staborders) != len(self.nonzeropos):
            raise ValueError("one stabilizer order per nonzero position")
        if self.regular_orbits != self.decomp[0]:
            raise ValueError("regular_orbits must equal the trivial-class count")

    @property
    def orbits(self):
        return sum(self.decomp)


def regular_orbit_count(report: CensusReport) -> int:
    return report.regular_orbits


def fixed_space_dim_dual(mats) -> int:
    """dim of the common fixed space of the duals of the given matrices.

    A row vector v is fixed by the dual (inverse-transpose) action of g
    exactly when v * (g^T - 1) = 0, so the answer is the dimension of the
    left nullspace of the horizontally stacked blocks g^T - 1.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    field = mats[0].field
    d = mats[0].rows
    ident = FFMatrix.identity(field, d)
    for m in mats:
        if m.rows != d or m.cols != d or m.field != field:
            raise ValueError("matrices must be square, equal-sized, same field")
    if d == 0:
        return 0
    blocks = [(m.transpose() - ident).array for m in mats]
    return len(FFMatrix(field, d, d * len(blocks), np.hstack(blocks)).nullspace())


def _class_fixed_count(tom, action, i):
    prog = tom.slps[i]
    mats = list(action.matrices)
    if prog.n_inputs != len(mats):
        # programs may have been stored against a narrower generator list;
        # re-targeting fails loudly if the program reads a missing slot
        prog = SLProgram(len(mats), prog.statements, prog.returns)
    gens = evaluate(prog, mats)
    if not gens:
        return action.q**action.d
    return action.q ** fixed_space_dim_dual(gens)


def census_from_tom(tom: TableOfMarks, action: ModuleAction) -> CensusReport:
    """Census via the table of marks; needs the table's straight-line programs."""
    if tom.slps is None:
        raise ValueError("table of marks carries no straight-line programs")
    fixed = [_class_fixed_count(tom, action, i) for i in range(tom.n)]
    decomp = decompose_fixed_vector(tom, fixed)
    nonzeropos = tuple(i + 1 for i, c in enumerate(decomp) if c)
    return CensusReport(
        q=action.q,
        dim=action.d,
        fixed=tuple(fixed),
        decomp=decomp,
        nonzeropos=nonzeropos,
        staborders=tuple(orders_of(tom, nonzeropos)),
        regular_orbits=decomp[0],
    )


def validate_action_homomorphism(group: PermGroup, action: ModuleAction) -> None:
    """Check that generator-aligned matrices define an action of the group.

    Builds the matrix image of every group element along breadth-first words
    and verifies image(g * gen_i) == image(g) * mat_i throughout; that covers
    all defining relations, including collapses under a non-faithful action.
    """
    group.element_table().images(action.matrices, FFMatrix.identity(action.field, action.d))


def _gf2_apply(code, rowcodes):
    out = 0
    i = 0
    while code:
        if code & 1:
            out ^= rowcodes[i]
        code >>= 1
        i += 1
    return out


def _vec_apply(vec, rows, field):
    """vec * the square matrix with the given rows (lists of scalars) over field."""
    out = [field.zero] * len(vec)
    for vi, row in zip(vec, rows):
        if vi == field.zero:
            continue
        for j, mij in enumerate(row):
            if mij != field.zero:
                out[j] = field.add(out[j], field.mul(vi, mij))
    return tuple(out)


def _classify_stabilizer(group, classes, stab):
    """Position of the class of the subgroup stab (a frozenset of Perms)."""
    candidates = [i for i, c in enumerate(classes) if c.order == len(stab)]
    for i in candidates:
        if len(candidates) == 1 or is_conjugate_subgroup(group, stab, classes[i].elements)[0]:
            return i
    raise ValueError("stabilizer matches no subgroup class")


def census_brute_force(
    group: PermGroup,
    action: ModuleAction,
    classes=None,
    group_bound: int = ORACLE_GROUP_BOUND,
    space_bound: int = ORACLE_SPACE_BOUND,
) -> CensusReport:
    """Census by enumerating all q^d dual vectors; independent of any tom.

    Applies every group element to one vector of each orbit, which gives the
    orbit and the stabilizer at once, classifies the stabilizer among the
    subgroup classes by order and, when orders tie, by an explicit conjugacy
    search.  The per-class fixed counts come from direct counting as well,
    not from nullspaces.
    """
    order = group.order()
    if order > group_bound:
        raise ValueError(f"group order {order} exceeds the brute-force bound {group_bound}")
    space = action.q**action.d
    if space > space_bound:
        raise ValueError(f"dual space size {space} exceeds the brute-force bound {space_bound}")
    field = action.field
    d = action.d
    table = group.element_table(group_bound)
    duals = [m.transpose().inverse() for m in action.matrices]
    dual_of = table.images(duals, FFMatrix.identity(field, d))
    if classes is None:
        classes = subgroup_classes(group)

    if action.q == 2:
        # row i of each matrix as the bit code sum_j m[i, j] 2^j
        el_ops = (np.stack([m.array for m in dual_of]) @ (1 << np.arange(d))).tolist()
        points = list(range(space))
        act = _gf2_apply
    else:
        el_ops = [m.to_rows() for m in dual_of]
        points = [()]
        for _ in range(d):
            points = [v + (x,) for v in points for x in field.elements()]
        act = partial(_vec_apply, field=field)

    counts = [0] * len(classes)
    seen = set()
    for start in points:
        if start in seen:
            continue
        image = [act(start, op) for op in el_ops]
        orbit = set(image)
        seen.update(orbit)
        stab = frozenset(table.perms[i] for i, y in enumerate(image) if y == start)
        if len(orbit) * len(stab) != order:
            raise RuntimeError("orbit-stabilizer mismatch; the action is inconsistent")
        counts[_classify_stabilizer(group, classes, stab)] += 1

    fixed = []
    for c in classes:
        ops = [el_ops[i] for i in table.subset(c.subgroup.generators)]
        fixed.append(sum(1 for v in points if all(act(v, op) == v for op in ops)))

    nonzeropos = tuple(i + 1 for i, cnt in enumerate(counts) if cnt)
    return CensusReport(
        q=action.q,
        dim=d,
        fixed=tuple(fixed),
        decomp=tuple(counts),
        nonzeropos=nonzeropos,
        staborders=tuple(classes[i - 1].order for i in nonzeropos),
        regular_orbits=counts[0],
    )
