import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from burnside import cohomology
from burnside.census import ModuleAction
from burnside.cohomology import (
    GroupModulePair,
    delta1_matrix,
    delta2_matrix,
    h1_dimension,
    h2_dimension,
    splits_implies,
)
from burnside.corpus import pair_a4, pair_c2, pair_d8, pair_s3, pair_v4
from burnside.ffield import ExtField, FFMatrix, PrimeField, row_echelon
from burnside.permgroup import Perm, PermGroup
from smallgroups import all_small_groups, iso_invariant

ZOO = all_small_groups()


def trivial_pair(group, p, d=1):
    f = PrimeField(p)
    return GroupModulePair(group, [FFMatrix.identity(f, d) for _ in group.generators])


# ---------------------------------------------------------------- oracle --
# Second route for H^2: unnormalized cochains over the full element list,
# assembled and reduced with code that shares nothing with the library
# builders (identity rows included, right-to-left Gauss-Jordan rank).


def oracle_images(group, matrices, p):
    gens = list(group.generators)
    np_gens = [np.array(m.to_rows(), dtype=np.int64) % p for m in matrices]
    d = np_gens[0].shape[0]
    ident = Perm.identity(group.degree)
    images = {ident: np.eye(d, dtype=np.int64)}
    frontier = [ident]
    while frontier:
        new = []
        for el in frontier:
            for g, mg in zip(gens, np_gens):
                nxt = el * g
                if nxt not in images:
                    images[nxt] = (images[el] @ mg) % p
                    new.append(nxt)
        frontier = new
    return images


def oracle_rank(a, p):
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    rank = 0
    free = list(range(nrows))
    for col in range(ncols - 1, -1, -1):
        hit = None
        for r in reversed(free):
            if a[r, col] % p:
                hit = r
                break
        if hit is None:
            continue
        free.remove(hit)
        rank += 1
        inv = pow(int(a[hit, col]), p - 2, p)
        a[hit] = (a[hit] * inv) % p
        for r in range(nrows):
            if r != hit and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[hit]) % p
    return rank


def oracle_h2(group, matrices, p):
    images = oracle_images(group, matrices, p)
    els = sorted(images)
    n = len(els)
    d = images[els[0]].shape[0]
    pos = {e: i for i, e in enumerate(els)}

    def u(i, j, a):
        return (i * n + j) * d + a

    rows = []
    for g in els:
        for h in els:
            gh = pos[g * h]
            for k in els:
                hk = pos[h * k]
                act = images[k]
                for t in range(d):
                    row = [0] * (n * n * d)
                    for a in range(d):
                        row[u(pos[g], pos[h], a)] += int(act[a, t])
                    row[u(gh, pos[k], t)] += 1
                    row[u(pos[h], pos[k], t)] -= 1
                    row[u(pos[g], hk, t)] -= 1
                    rows.append(row)
    rank2 = oracle_rank(np.array(rows, dtype=np.int64), p)

    rows = []
    for i, g in enumerate(els):
        for a in range(d):
            row = [0] * (n * n * d)
            for x, gg in enumerate(els):
                for y, hh in enumerate(els):
                    base = (x * n + y) * d
                    if x == i:
                        act = images[hh]
                        for t in range(d):
                            row[base + t] += int(act[a, t])
                    if pos[gg * hh] == i:
                        row[base + a] -= 1
                    if y == i:
                        row[base + a] += 1
            rows.append(row)
    rank1 = oracle_rank(np.array(rows, dtype=np.int64), p)
    return (n * n * d - rank2) - rank1


# ------------------------------------------------------------------ zoo --


def test_zoo_is_a_complete_transversal():
    assert len(ZOO) == 42
    invariants = [iso_invariant(g) for _, g in ZOO]
    assert len(set(invariants)) == 42
    per_order = Counter(g.order() for _, g in ZOO)
    assert dict(per_order) == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
        9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
    }


# --------------------------------------------------------- fixed values --


def test_h1_known_values():
    assert h1_dimension(trivial_pair(ZOO[0][1], 2)) == 0  # trivial group
    c2 = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    assert h1_dimension(trivial_pair(c2, 2)) == 1
    s3 = PermGroup(3, [Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])
    assert h1_dimension(trivial_pair(s3, 3)) == 0


def test_h2_known_values():
    assert h2_dimension(trivial_pair(ZOO[0][1], 2)) == 0
    c2 = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    assert h2_dimension(trivial_pair(c2, 2)) == 1
    v4 = PermGroup(4, [Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])])
    assert h2_dimension(trivial_pair(v4, 2)) == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_prime_trivial_module(p):
    g = PermGroup(p, [Perm.from_cycles(p, [tuple(range(p))])])
    assert h2_dimension(trivial_pair(g, p)) == 1


def test_h1_trivial_module_is_hom_rank():
    # dim Hom(G, C_p) read off the abelianization in iso_invariant
    for name, group in ZOO:
        _, _, _, _, ab = iso_invariant(group)
        for p in (2, 3):
            expected = round(math.log(sum(1 for k in ab if k in (1, p)), p))
            assert h1_dimension(trivial_pair(group, p)) == expected, (name, p)


@pytest.mark.parametrize("p", [2, 3])
def test_coprime_order_has_no_cohomology(p):
    for name, group in ZOO:
        if group.order() % p == 0:
            continue
        pair = trivial_pair(group, p)
        assert h1_dimension(pair) == 0, name
        assert h2_dimension(pair) == 0, name


# ------------------------------------------------------- oracle matches --

SMALL_ZOO = [(name, g) for name, g in ZOO if g.order() <= 10]


@pytest.mark.parametrize("p", [2, 3])
def test_h2_matches_oracle_on_trivial_modules(p):
    f = PrimeField(p)
    for name, group in SMALL_ZOO:
        mats = [FFMatrix.identity(f, 1) for _ in group.generators]
        got = h2_dimension(GroupModulePair(group, mats))
        want = oracle_h2(group, mats, p)
        assert got == want, (name, p, got, want)


NATURAL = [
    ("C2 sign", pair_c2),
    ("V4 natural", pair_v4),
    ("S3 natural", pair_s3),
    ("D8 natural", pair_d8),
    ("A4 natural", pair_a4),
]


@pytest.mark.parametrize("label,factory", NATURAL, ids=[n for n, _ in NATURAL])
def test_h2_matches_oracle_on_natural_modules(label, factory):
    group, action = factory()
    pair = GroupModulePair(group, action.matrices)
    assert h2_dimension(pair) == oracle_h2(group, list(action.matrices), pair.p)


@pytest.mark.parametrize("label,factory", NATURAL, ids=[n for n, _ in NATURAL])
def test_complex_identity(label, factory):
    group, action = factory()
    pair = GroupModulePair(group, action.matrices)
    comp = (delta2_matrix(pair) @ delta1_matrix(pair).T) % pair.p
    assert not comp.any()


def test_complex_identity_trivial_modules():
    for name, group in SMALL_ZOO:
        pair = trivial_pair(group, 2)
        comp = (delta2_matrix(pair) @ delta1_matrix(pair).T) % 2
        assert not comp.any(), name


# ------------------------------------------------------------ invariance --


def test_conjugate_representation_same_dimensions():
    rng = random.Random(4099)
    for factory in (pair_s3, pair_d8):
        group, action = factory()
        field = action.field
        d = action.d
        while True:
            x = FFMatrix(field, d, d, [rng.randrange(field.q) for _ in range(d * d)])
            if x.is_invertible():
                break
        xi = x.inverse()
        base = GroupModulePair(group, action.matrices)
        conj = GroupModulePair(group, [xi * m * x for m in action.matrices])
        assert h1_dimension(base) == h1_dimension(conj)
        assert h2_dimension(base) == h2_dimension(conj)


# ------------------------------------------------------------ validation --


def test_rejects_misaligned_generators():
    f = PrimeField(2)
    c2 = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    order3 = FFMatrix.from_rows(f, [[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        GroupModulePair(c2, [order3])


def test_rejects_bad_modules():
    c2 = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    with pytest.raises(ValueError, match="generators"):
        GroupModulePair(c2, [])
    f4 = ExtField(2, 2)
    with pytest.raises(ValueError, match="prime field"):
        GroupModulePair(c2, [FFMatrix.identity(f4, 1)])
    f = PrimeField(2)
    with pytest.raises(ValueError, match="invertible"):
        GroupModulePair(c2, [FFMatrix.zero(f, 1, 1)])


_F2, _F3 = PrimeField(2), PrimeField(3)


@pytest.mark.parametrize("mats", [
    [FFMatrix.zero(_F2, 2, 3), FFMatrix.identity(_F2, 2)],
    [FFMatrix.identity(_F2, 2), FFMatrix.identity(_F2, 3)],
    [FFMatrix.identity(_F2, 2), FFMatrix.identity(_F3, 2)],
    [FFMatrix.identity(_F2, 2), FFMatrix.zero(_F2, 2, 2)],
], ids=["non-square", "unequal sizes", "mixed fields", "singular"])
@pytest.mark.parametrize("build", [
    ModuleAction,
    lambda mats: GroupModulePair(PermGroup(4, [Perm.from_cycles(4, [(0, 1)]),
                                               Perm.from_cycles(4, [(2, 3)])]), mats),
], ids=["ModuleAction", "GroupModulePair"])
def test_generator_matrix_validators(build, mats):
    with pytest.raises(ValueError, match="square|fields|invertible"):
        build(mats)


def elementary_abelian_2(rank):
    """C2^rank as disjoint transpositions on 2*rank points."""
    n = 2 * rank
    return PermGroup(n, [Perm.from_cycles(n, [(2 * i, 2 * i + 1)]) for i in range(rank)])


def test_oversized_systems_fail_before_they_are_built(monkeypatch):
    def never(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(cohomology, "delta2_matrix", never)
    monkeypatch.setattr(cohomology, "delta1_matrix", never)
    monkeypatch.setattr(cohomology, "_tree_system", never)
    # C2^7 on GF(2)^7: 127 * 7 * 7 = 6223 unknowns and 769 * 7 = 5383
    # constraint rows per g, one g a chunk.  Reducing one g holds its chunk's
    # rows, the basis, two unknowns x unknowns temporaries and four more
    # rows of one g, 8 bytes an entry: 8 * 6223 * (5383 + 3 * 6223 + 4 * 5383)
    with pytest.raises(ValueError, match="2269353856 bytes"):
        h2_dimension(trivial_pair(elementary_abelian_2(7), 2, d=7))
    # C2^8 on GF(2)^46: 8 * 46 = 368 unknowns; 1793 * 46 constraint rows
    # and a 256 * 46-row F: 277483776 bytes
    with pytest.raises(ValueError, match="277483776 bytes"):
        h1_dimension(trivial_pair(elementary_abelian_2(8), 2, d=46))


# ------------------------------------------------------------- streaming --

STREAM_ZOO = [(name, g) for name, g in ZOO if g.order() in (6, 8, 12, 16)][::3]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_delta2_rows_of_each_g_stack_to_the_whole_matrix(p, d):
    for name, group in STREAM_ZOO:
        pair = trivial_pair(group, p, d)
        whole = delta2_matrix(pair)
        m = group.order() - 1
        for cuts in ([m], [1, m], [2, 5, m], list(range(1, m + 1))):
            parts = [delta2_matrix(pair, range(a, b)) for a, b in zip([0] + cuts, cuts)]
            stacked = np.vstack(parts)
            assert stacked.dtype == whole.dtype and stacked.tobytes() == whole.tobytes(), (name, cuts)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("budget", [1, cohomology._CHUNK])
def test_streamed_rank_is_the_rank_of_the_whole_matrix(monkeypatch, p, d, budget):
    monkeypatch.setattr(cohomology, "_CHUNK", budget)  # 1: one g a chunk
    for name, group in STREAM_ZOO:
        pair = trivial_pair(group, p, d)
        whole = len(row_echelon(delta2_matrix(pair), p)[1])
        assert cohomology._delta2_rank(pair, None) == whole, (name, p, d)


@pytest.mark.parametrize("label,factory", NATURAL, ids=[n for n, _ in NATURAL])
def test_streamed_rank_on_natural_modules(monkeypatch, label, factory):
    monkeypatch.setattr(cohomology, "_CHUNK", 1)
    group, action = factory()
    pair = GroupModulePair(group, action.matrices)
    assert cohomology._delta2_rank(pair, None) == len(row_echelon(delta2_matrix(pair), pair.p)[1])


def test_progress_reports_every_chunk(monkeypatch):
    monkeypatch.setattr(cohomology, "_CHUNK", 1)
    lines = []
    pair = trivial_pair(elementary_abelian_2(3), 2)
    assert h2_dimension(pair, lines.append) == 6
    assert [line.split(",")[0] for line in lines] == [f"chunk {g}/7: g {g}-{g}" for g in range(1, 8)]
    assert lines[-1].split(", ")[1] == f"rank {len(row_echelon(delta2_matrix(pair), 2)[1])}"


# the count is of the large arrays only, so the systems here are large
# enough (0.9 to 4.9 MB counted) that small Python objects do not matter
@pytest.mark.parametrize("name,p,d", [
    ("C2^4", 2, 1), ("C2^4", 3, 2), ("SD16", 2, 3), ("A4", 3, 4), ("D12", 5, 3),
])
def test_streamed_rank_stays_within_its_byte_count(monkeypatch, name, p, d):
    group = dict(ZOO)[name]
    counted = []
    check = cohomology.check_allocation
    monkeypatch.setattr(cohomology, "check_allocation",
                        lambda what, nbytes: (counted.append(nbytes), check(what, nbytes)))
    pair = trivial_pair(group, p, d)
    tracemalloc.start()
    try:
        cohomology._delta2_rank(pair, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted[0], (peak, counted)


def test_h2_over_a_prime_near_2_to_31():
    # (p-1)^2 > 2^53, so the products of the streamed rank run in int64,
    # and three products already pass 2^63: a rank of 3 needs the runs
    p = 2**31 - 1
    pair = trivial_pair(elementary_abelian_2(2), p)
    assert cohomology._delta2_rank(pair, None) == len(row_echelon(delta2_matrix(pair), p)[1]) == 3
    assert h2_dimension(pair) == 0


@pytest.mark.parametrize("k", [5, 6])
def test_elementary_abelian_closed_forms(k):
    pair = trivial_pair(elementary_abelian_2(k), 2)
    assert h1_dimension(pair) == k
    assert h2_dimension(pair) == k * (k + 1) // 2


@pytest.mark.parametrize("n,p,want", [(64, 2, 1), (27, 3, 1), (64, 3, 0), (27, 2, 0), (25, 3, 0)])
def test_large_cyclic_closed_forms(n, p, want):
    pair = trivial_pair(PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])]), p)
    assert h1_dimension(pair) == want
    assert h2_dimension(pair) == want


# --------------------------------------------------------------- report --


def test_splits_report_wording():
    c2 = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    pair = trivial_pair(c2, 2)
    split = splits_implies(pair, 0)
    assert "every extension of G by M splits" in split
    assert "semidirect product is the unique extension" in split
    assert "2 equivalence classes of extensions" in splits_implies(pair, 1)
    assert "8 equivalence classes" in splits_implies(pair, 3)
    p3 = trivial_pair(PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])]), 3)
    assert "9 equivalence classes" in splits_implies(p3, 2)
