"""Table of marks computation and Burnside decomposition.

The marks oracle below acts on literal coset sets instead of reusing the
transversal bookkeeping inside compute_tom, so the two routes only agree if
the counting is actually right.
"""

import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from burnside.formats import write_tom
from burnside import permgroup
from burnside.permgroup import ElementTable, Perm, PermGroup, mulclose, subgroup_classes
from burnside.slp import evaluate
from burnside.tom import (
    DecompositionError,
    TableOfMarks,
    compute_tom,
    decompose_fixed_vector,
    orders_of,
)
from smallgroups import all_small_groups, perms_of
from test_cohomology import elementary_abelian_2


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, cycles)


def s3():
    return PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])


def a4():
    return PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 1, 2))])


def s4():
    return PermGroup(4, [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])


def d10():
    return PermGroup(5, [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (1, 4), (2, 3))])


# ---------------------------------------------------------------------------
# oracle: count fixed cosets by acting on explicit coset sets


def fixed_cosets_oracle(group, u_elements, v_elements):
    cosets = {frozenset(g * u for u in u_elements) for g in group.elements()}
    count = 0
    for coset in cosets:
        if all(frozenset(x * c for c in coset) == coset for x in v_elements):
            count += 1
    return count


def marks_oracle(group, classes):
    rows = []
    for ci in classes:
        rows.append(
            tuple(fixed_cosets_oracle(group, perms_of(group, ci.elements), perms_of(group, cj.elements))
                  for cj in classes)
        )
    return rows


# ---------------------------------------------------------------------------


def test_trivial_group():
    g = PermGroup(1, [Perm.identity(1)])
    tom = compute_tom(g)
    assert tom.n == 1
    assert tom.marks == ((1,),)
    assert tom.orders == (1,)


def test_c2():
    g = PermGroup(2, [cyc(2, (0, 1))])
    tom = compute_tom(g)
    assert tom.orders == (1, 2)
    assert tom.marks == ((2, 0), (1, 1))


def test_s3_table_is_frozen_reference():
    tom = compute_tom(s3())
    assert tom.orders == (1, 2, 3, 6)
    assert tom.marks == (
        (6, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 0, 2, 0),
        (1, 1, 1, 1),
    )
    assert tom.index == (6, 3, 2, 1)
    assert tom.row(2) == (2, 0, 2, 0)


@pytest.mark.parametrize("make", [s3, a4, s4, d10])
def test_marks_match_coset_oracle(make):
    group = make()
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    assert tom.marks == tuple(marks_oracle(group, classes))


def marks_pairwise(group, classes):
    """Marks by one membership test per pair of classes (i, j), j <= i."""
    table = group.multiplication_table()
    conj = [table.conjugates(c.generators) for c in classes]
    rows = []
    for i, ci in enumerate(classes):
        in_u = np.zeros(len(table.perms), dtype=bool)
        in_u[ci.elements] = True
        row = [0] * len(classes)
        for j in range(i + 1):
            if ci.order % classes[j].order == 0:
                row[j] = int(in_u[conj[j]].all(axis=1).sum()) // ci.order
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("name,group", all_small_groups(), ids=[name for name, _ in all_small_groups()])
def test_marks_match_pairwise_reference(name, group):
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    assert tom.marks == marks_pairwise(group, classes)
    assert all(type(x) is int for row in tom.marks for x in row)


def test_diagonal_counts_normalizer_cosets():
    group = s4()
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    els = group.elements()
    for i, ci in enumerate(classes):
        u = perms_of(group, ci.elements)
        nrm = sum(1 for g in els if frozenset(g.inverse() * x * g for x in u) == u)
        assert tom.marks[i][i] == nrm // ci.order


def projective_line_psl2(p):
    """PSL(2,p) by x -> x + 1 and x -> -1/x on 0..p-1 and infinity (= p)."""
    shift = [(x + 1) % p for x in range(p)] + [p]
    inv = [p] + [(-pow(x, p - 2, p)) % p for x in range(1, p)] + [0]
    return PermGroup(p + 1, [Perm(shift), Perm(inv)])


# SHA-256 of write_tom(compute_tom(G)) as first computed with Perm products
# throughout; class order, class generators and straight-line programs must
# not drift.  The S6 digest is also that of perfbench/data/s6.tom.json.
GOLDEN_TOMS = [
    ("A5", lambda: PermGroup(5, [cyc(5, (0, 1, 2)), cyc(5, (0, 1, 2, 3, 4))]),
     "24b042f40c68bc5d45540c2eb9969b7ba8f358aa396720b5724277c6aea3bc10"),
    ("PSL(2,7)", lambda: projective_line_psl2(7),
     "442db53fe123dfbdccb10ed64b7836bfa2fdfd5c13e8a87f4bdec49706358276"),
    ("S5", lambda: PermGroup(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))]),
     "c99fbfbc44b56e4921cb5319b854458ba782089e1a92e4a3fc25c2ded39a023f"),
    ("S6", lambda: PermGroup(6, [cyc(6, (0, 1)), cyc(6, (0, 1, 2, 3, 4, 5))]),
     "4834146a03f48b5009aa7ba2fcb97b24eb9eb44a678f3ae44ff74c0a94f20de2"),
]


@pytest.mark.parametrize("name,make,digest", GOLDEN_TOMS, ids=[g[0] for g in GOLDEN_TOMS])
def test_written_table_is_byte_identical(name, make, digest):
    text = write_tom(compute_tom(make()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Digests recorded before subgroup_classes skipped any candidate.  A7 needs
# perfect seeds of orders 60 and 168; in S5 x S3 the perfect seeds meet
# elements with large centralizers.  S7 and M11 were recorded before the
# perfect seeds were cut to orbit minima.  The class counts of A7, S7 and
# M11 (40, 96, 39) are those of the GAP table-of-marks library.
SEARCH_TOMS = [
    ("A7", lambda: PermGroup(7, [cyc(7, (0, 1, 2)), cyc(7, (2, 3, 4, 5, 6))]), 40,
     "8994632b1abaebd8f25f8b5357f73643fd8be88e2ff963e75e9ad30165706767"),
    ("S5xS3", lambda: PermGroup(8, [cyc(8, (0, 1)), cyc(8, (0, 1, 2, 3, 4)), cyc(8, (5, 6)), cyc(8, (5, 6, 7))]),
     121, "0a5c58273700c39e9fbcf4531dfdd3f226c81a5d5a2e692d0d4eb9e16cb2dcfb"),
    ("S7", lambda: PermGroup(7, [cyc(7, (0, 1)), cyc(7, (0, 1, 2, 3, 4, 5, 6))]), 96,
     "1f149698aad4da66bd29532ed9cffd7287f02df96e535ef5622140fd7f44be94"),
    ("M11", lambda: PermGroup(11, [cyc(11, tuple(range(11))), cyc(11, (2, 6, 10, 7), (3, 9, 4, 5))]), 39,
     "4c6103e5d0ef7c51f93a92bab3cac1d4475d6bb35ef35776025a471c11241ed9"),
]


@pytest.mark.parametrize("name,make,n,digest", SEARCH_TOMS, ids=[g[0] for g in SEARCH_TOMS])
def test_search_skips_keep_the_table(name, make, n, digest):
    tom = compute_tom(make())
    assert tom.n == n
    assert hashlib.sha256(write_tom(tom).encode()).hexdigest() == digest


# closures of the search once it skips the b orbits that hold a conjugate
# of an earlier class minimum a' (without that skip: 219, 168 and 482)
@pytest.mark.parametrize("name,make,most", [
    ("S6", GOLDEN_TOMS[3][1], 105), ("A7", SEARCH_TOMS[0][1], 76), ("S5xS3", SEARCH_TOMS[1][1], 232),
], ids=["S6", "A7", "S5xS3"])
def test_perfect_seed_search_closes_no_more_subgroups(monkeypatch, name, make, most):
    calls = []
    closure = ElementTable.closure
    monkeypatch.setattr(ElementTable, "closure", lambda self, *args, **kw: calls.append(1) or closure(self, *args, **kw))
    subgroup_classes(make())
    assert len(calls) <= most


def test_marks_are_refused_before_they_are_gathered(monkeypatch):
    group = GOLDEN_TOMS[2][1]()
    classes = subgroup_classes(group)
    n, size = len(classes), 120
    # the marks (8 bytes a list slot), the membership table, its rows for the
    # classes i >= j whose order |U_j| divides, and those rows at every
    # element of every conjugate of U_j
    need = []
    for j, cj in enumerate(classes):
        below = sum(1 for ci in classes[j:] if ci.order % cj.order == 0)
        need.append(8 * n * n + (n + below) * size + below * cj.size * cj.order)
    j = int(np.argmax(need))  # the first class that needs the most
    monkeypatch.setattr(permgroup, "SYSTEM_BYTES_BOUND", need[j] - 1)
    with pytest.raises(ValueError, match=f"the marks of class {j + 1} takes {need[j]} bytes"):
        compute_tom(group, classes=classes)


def test_kept_conjugates_count_against_the_byte_bound(monkeypatch):
    group = GOLDEN_TOMS[2][1]()
    classes = subgroup_classes(group)
    # the product table is held now: asking for it again counts nothing
    table = group.multiplication_table()
    monkeypatch.setattr(group, "multiplication_table", lambda: table)
    # the working set, then per class its elements, its normalizer (of order
    # 120 / size) and per conjugate a row, a key and its entry in seen
    held = 120 * (160 + 8 * 5) + sum(
        8 * (c.order + 120 // c.size) + c.size * (4 * c.order + 160) + 1280 for c in classes
    )
    monkeypatch.setattr(permgroup, "SYSTEM_BYTES_BOUND", held - 1)
    with pytest.raises(ValueError, match=f"{len(classes)} subgroup classes with their conjugates takes {held} bytes"):
        subgroup_classes(group)


# the traced peak includes every Python object the search makes, the
# transient arrays and generators_of's closure of Perms (A7 is perfect)
@pytest.mark.parametrize("name,make", [
    ("C2^5", lambda: elementary_abelian_2(5)), ("S6", GOLDEN_TOMS[3][1]), ("A7", SEARCH_TOMS[0][1]),
], ids=["C2^5", "S6", "A7"])
def test_class_search_stays_within_its_byte_count(monkeypatch, name, make):
    group = make()
    group.multiplication_table()
    counted = []
    check = permgroup.check_allocation
    monkeypatch.setattr(permgroup, "check_allocation",
                        lambda what, nbytes: (counted.append(nbytes), check(what, nbytes)))
    tracemalloc.start()
    try:
        subgroup_classes(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted[-1], (peak, counted[-1])


def test_many_classes_are_refused_while_they_are_found():
    # C2^9, of order 512, has 8283458 subgroups, each its own class
    with pytest.raises(ValueError, match=r"^\d+ subgroup classes with their conjugates takes \d+ bytes"):
        subgroup_classes(elementary_abelian_2(9))


def test_decompose_rows_give_unit_vectors():
    for make in (s3, a4, s4):
        tom = compute_tom(make())
        for i in range(tom.n):
            expected = tuple(1 if j == i else 0 for j in range(tom.n))
            assert decompose_fixed_vector(tom, tom.row(i)) == expected


def test_decompose_known_vector():
    tom = compute_tom(s3())
    assert decompose_fixed_vector(tom, (4, 2, 1, 1)) == (0, 1, 0, 1)


def test_decompose_linearity():
    tom = compute_tom(s4())
    coeffs = tuple(range(tom.n))
    fixed = [
        sum(coeffs[i] * tom.marks[i][j] for i in range(tom.n)) for j in range(tom.n)
    ]
    assert decompose_fixed_vector(tom, fixed) == coeffs


def test_decompose_rejects_non_integral():
    tom = compute_tom(s3())
    with pytest.raises(DecompositionError) as info:
        decompose_fixed_vector(tom, (5, 2, 1, 1))
    assert info.value.index == 1
    assert "inconsistent fixed vector" in str(info.value)


def test_decompose_rejects_negative():
    tom = compute_tom(s3())
    # 2 * row4 - row3, so the class-3 coefficient solves to -1
    with pytest.raises(DecompositionError) as info:
        decompose_fixed_vector(tom, (0, 2, 0, 2))
    assert info.value.index == 3


def rational_decomposition(tom, fixed):
    """Back-substitution in Fractions: the tuple, or (index, message) of the error."""
    n = tom.n
    a = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        s = Fraction(fixed[j]) - sum(a[i] * tom.marks[i][j] for i in range(j + 1, n))
        a[j] = s / tom.marks[j][j]
    for j in range(n):
        if a[j].denominator != 1 or a[j] < 0:
            return j + 1, f"inconsistent fixed vector: entry {j + 1} solves to {a[j]}"
    return tuple(int(x) for x in a)


@pytest.mark.parametrize("make", [s4, lambda: PermGroup(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))])],
                         ids=["S4", "S5"])
def test_decompose_matches_rational_reference(make):
    tom = compute_tom(make())
    rng = random.Random(11)
    failures = 0
    for trial in range(300):
        coeffs = [rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(tom.n)]
        fixed = [sum(coeffs[i] * tom.marks[i][j] for i in range(tom.n)) for j in range(tom.n)]
        if trial % 2:
            # a valid vector with one entry nudged, or a row taken away
            if trial % 4 == 1:
                fixed[rng.randrange(tom.n)] += rng.choice((-2, -1, 1, 3))
            else:
                row = tom.marks[rng.randrange(tom.n)]
                fixed = [f - m for f, m in zip(fixed, row)]
        expected = rational_decomposition(tom, fixed)
        if isinstance(expected[1], str):
            failures += 1
            with pytest.raises(DecompositionError) as info:
                decompose_fixed_vector(tom, fixed)
            assert (info.value.index, str(info.value)) == expected
        else:
            assert decompose_fixed_vector(tom, fixed) == expected
    assert 50 < failures < 150


def test_decompose_length_check():
    tom = compute_tom(s3())
    with pytest.raises(ValueError):
        decompose_fixed_vector(tom, (6, 3))


def test_orders_of():
    tom = compute_tom(s4())
    assert orders_of(tom, [1, tom.n]) == [1, 24]
    assert orders_of(tom, []) == []
    with pytest.raises(ValueError):
        orders_of(tom, [0])
    with pytest.raises(ValueError):
        orders_of(tom, [tom.n + 1])


def test_slps_replay_subgroup_generators():
    group = s4()
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    assert tom.slps is not None and len(tom.slps) == tom.n
    for ci, prog in zip(classes, tom.slps):
        images = evaluate(prog, list(group.generators))
        closure = mulclose(images + [Perm.identity(group.degree)], group.degree)
        assert frozenset(closure) == perms_of(group, ci.elements)


def test_table_validation():
    with pytest.raises(ValueError):
        TableOfMarks(2, (1, 2), ((2, 1), (1, 1)))  # nonzero above diagonal
    with pytest.raises(ValueError):
        TableOfMarks(2, (2, 2), ((1, 0), (1, 1)))  # first class not trivial
    with pytest.raises(ValueError):
        TableOfMarks(2, (1, 2), ((3, 0), (1, 1)))  # wrong index column
    with pytest.raises(ValueError):
        TableOfMarks(2, (1, 2), ((2, 0), (1, 0)))  # zero diagonal
    with pytest.raises(ValueError):
        TableOfMarks(2, (1, 3), ((3, 0), (1, 2)))  # last row not all ones
    with pytest.raises(ValueError):
        TableOfMarks(3, (1, 2, 4), ((4, 0, 0), (2, 2, 0), (1, 1, 1)), slps=((),))
