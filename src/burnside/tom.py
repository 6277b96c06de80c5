"""Tables of marks and the Burnside decomposition of fixed-point vectors.

The marks matrix is lower triangular over the ordered subgroup classes:
m[i][j] counts the cosets of U_i fixed by U_j.  Any G-set is determined by
its fixed-point vector, and back-substitution against the marks matrix
recovers the orbit counts per stabilizer class — exactly, in integers, and
over the rationals once an entry fails, so that corrupted inputs are detected
instead of rounded away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mod

import numpy as np

from .permgroup import PermGroup, check_allocation, subgroup_classes
from .slp import SLProgram


class DecompositionError(ValueError):
    """Fixed vector is not a nonnegative-integer combination of marks rows."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index  # 1-based class position


@dataclass(frozen=True)
class TableOfMarks:
    """Orders and marks of the subgroup classes, with optional programs.

    Checked on construction: one order and one row of length n per class;
    orders nondecreasing from the trivial class; every row zero above the
    diagonal; m[i][0] = |G:U_i|, the index; m[i][i] >= 1; m[i][j] = 0 unless
    |U_j| divides |U_i|; the last row all ones; one program per class when
    there are programs.  Then, as a mark counts cosets of U_i and there are
    m[i][0] of them: 0 <= m[i][j] <= m[i][0], and m[i][i] = |N(U_i):U_i|
    divides m[i][0] = |G:N(U_i)| * |N(U_i):U_i|.  A failure is a ValueError
    naming the first row that breaks a check, the earlier checks first.
    """

    n: int
    orders: tuple
    marks: tuple  # n dense rows of length n, zero above the diagonal
    slps: tuple | None = None

    def __post_init__(self):
        if self.n != len(self.orders) or self.n != len(self.marks):
            raise ValueError("size mismatch")
        if self.n == 0:
            raise ValueError("empty table")
        if self.orders[0] != 1:
            raise ValueError("first class must be the trivial subgroup")
        if any(a > b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("subgroup orders must be nondecreasing")
        coset_fault = _check_rows(self.orders, self.marks)
        if self.marks[-1].count(1) != self.n:
            raise ValueError("last row (the one-point G-set) must be all ones")
        if self.slps is not None and len(self.slps) != self.n:
            raise ValueError("need one straight-line program per class")
        if coset_fault:
            raise ValueError(coset_fault)

    @property
    def index(self):
        return tuple(self.orders[-1] // o for o in self.orders)

    def row(self, i):
        return self.marks[i]


def marks_from_triples(n, triples):
    """The n dense marks rows of sparse [i, j, m] triples, 1-based, j <= i.

    One walk in order: a ValueError at the first triple that is not three
    ints, lies outside 1..n or above the diagonal, or repeats a position.
    """
    dense = [[0] * n for _ in range(n)]
    seen = set()  # i * n + j of each placed triple
    for t in triples:
        if not (isinstance(t, list) and len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is int):
            raise ValueError(f"marks entry {t!r} is not an [i, j, m] triple")
        i, j, m = t
        if not 1 <= i <= n or not 1 <= j <= n:
            raise ValueError(f"marks position ({i},{j}) outside 1..{n}")
        if j > i:
            raise ValueError(f"mark ({i},{j}) above the diagonal")
        key = i * n + j
        if key in seen:
            raise ValueError(f"duplicate mark for ({i},{j})")
        seen.add(key)
        dense[i - 1][j - 1] = m
    for i in range(n):  # in place, so the lists and the tuples never all coexist
        dense[i] = tuple(dense[i])
    return tuple(dense)


def _check_rows(orders, marks):
    """Raise at the first row that fails a row check of TableOfMarks, the
    earlier check first; return the message of the first row outside the
    coset bounds, or None."""
    n = len(orders)
    total = orders[-1]
    coset_fault = None
    for i, row in enumerate(marks):
        k = i + 1
        if len(row) != n:
            raise ValueError("marks rows must have length n")
        if any(row[k:]):
            raise ValueError(f"marks entry above the diagonal in row {k}")
        o, index = orders[i], row[0]
        if total % o or index != total // o:
            raise ValueError(f"row {k}: first column must be the index of U_{k}")
        if row[i] < 1:
            raise ValueError(f"diagonal mark of class {k} must be positive")
        head = row[:k]
        # o modulo the order of each column with a nonzero mark
        if any(map(mod, repeat(o), compress(orders, head))):
            j = next(j for j in range(k) if head[j] and o % orders[j])
            raise ValueError(f"mark ({k},{j + 1}) nonzero but order does not divide")
        if coset_fault is None and (min(head) < 0 or max(head) > index or index % row[i]):
            j = next((j for j, v in enumerate(head) if not 0 <= v <= index), None)
            if j is None:
                coset_fault = f"row {k}: diagonal mark {row[i]} does not divide the index {index}"
            else:
                coset_fault = f"row {k}: mark {head[j]} in column {j + 1} is outside 0..{index}, the index"
    return coset_fault


def compute_tom(group: PermGroup, classes=None) -> TableOfMarks:
    """Marks by counting the conjugates of each class inside the others.

    m[i][j] = number of cosets gU_i with g^-1 U_j g inside U_i, that is the
    number of such g over |U_i|.  The g with g^-1 U_j g = V, for one
    conjugate V of U_j, form a coset of the normalizer N(U_j), so

        m[i][j] = |N(U_j)| * #{conjugates of U_j inside U_i} / |U_i|,

    with |N(U_j)| = |G| / size_j.  The conjugates come with the classes;
    they are tested against the membership rows of every class i whose
    order |U_j| divides, one class j at a time.  The n x n marks, at 8
    bytes a list slot, and the membership table count against the byte
    bound before either is built.  Each class also gets a program
    expressing its generators as words in the group generators
    (breadth-first words), so the table can replay subgroup generators on
    matrix representations.
    """
    if classes is None:
        classes = subgroup_classes(group)
    table = group.element_table()
    n = len(classes)
    size = len(table.perms)
    orders = np.array([c.order for c in classes], dtype=np.int64)
    check_allocation(f"the marks and membership table of {n} classes", held := 8 * n * n + n * size)
    # in_u[i, g]: element g lies in U_i
    in_u = np.zeros((n, size), dtype=bool)
    for i, ci in enumerate(classes):
        in_u[i, ci.elements] = True
    rows = [[0] * n for _ in range(n)]
    for j, cj in enumerate(classes):
        below = j + np.flatnonzero(orders[j:] % orders[j] == 0)
        # with what is held, the rows of in_u for below and their gather at the conjugates
        check_allocation(f"the marks of class {j + 1}", held + len(below) * (size + cj.conjugates.size))
        inside = in_u[below][:, cj.conjugates].all(axis=-1).sum(axis=-1)
        for i, mark in zip(below.tolist(), (inside * (size // cj.size) // orders[below]).tolist()):
            rows[i][j] = mark
    for i in range(n):  # in place, so the lists and the tuples never all coexist
        rows[i] = tuple(rows[i])

    words, perms = table.words, table.perms
    m = max(1, len(group.generators))
    slps = []
    for ci in classes:
        gen_words = [tuple(idx + 1 for idx in words[perms[g]]) for g in ci.generators]
        slps.append(SLProgram.from_words(m, gen_words))

    return TableOfMarks(n, tuple(c.order for c in classes), tuple(rows), tuple(slps))


def decompose_fixed_vector(tom: TableOfMarks, fixed) -> tuple:
    """Solve a * marks = fixed by back-substitution, demanding a >= 0 integral.

    The unique rational solution exists because diagonal marks are positive;
    non-integral or negative entries mean the vector does not come from a
    genuine G-set (or the table and the data are mismatched) and raise a
    DecompositionError naming the first offending class.
    """
    n = tom.n
    rest = list(fixed)
    if len(rest) != n:
        raise ValueError(f"fixed vector length {len(rest)} != {n} classes")
    # subtracting each solved row from the entries left of it; an entry
    # turns into a Fraction only where a division leaves a remainder
    a = [0] * n
    bad = None  # the lowest class whose entry is not a nonnegative integer
    for j in range(n - 1, -1, -1):
        row = tom.marks[j]
        q, r = divmod(rest[j], row[j])
        if r:
            q = Fraction(rest[j], row[j])
        if r or q < 0:
            bad = j
        if q:
            a[j] = q
            for k in range(j):
                rest[k] -= q * row[k]
    if bad is not None:
        raise DecompositionError(bad + 1, f"inconsistent fixed vector: entry {bad + 1} solves to {a[bad]}")
    return tuple(a)


def orders_of(tom: TableOfMarks, positions) -> list:
    """Subgroup orders at the given 1-based class positions."""
    out = []
    for pos in positions:
        if not 1 <= pos <= tom.n:
            raise ValueError(f"position {pos} outside 1..{tom.n}")
        out.append(tom.orders[pos - 1])
    return out
