import hashlib
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
    delta2_matrix,
    h1_dimension,
    h2_dimension,
    splits_implies,
)
from burnside.corpus import pair_a4, pair_c2, pair_d8, pair_s3, pair_v4
from burnside.ffield import ExtField, FFMatrix, PrimeField
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
    free = np.ones(len(a), dtype=bool)
    rank = 0
    for col in range(a.shape[1] - 1, -1, -1):
        hits = np.flatnonzero(free & (a[:, col] != 0))
        if not hits.size:
            continue
        hit = hits[-1]
        free[hit] = False
        rank += 1
        a[hit] = a[hit] * pow(int(a[hit, col]), p - 2, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != hit]
        a[others] = (a[others] - a[others, col, None] * a[hit]) % p
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


# ------------------------------------------------- the cocycle system --
# The rows for each g != 1, pi_g(c) - c, stacked from the seed system c =
# delta2_matrix, and the coboundaries they must annihilate, both assembled
# here from Perm products.


def left_images(pair, c):
    """pi_g(c) for every element g: the coefficient of u(w, x) moved to u(gw, x)."""
    n = pair.order
    blocks = c.reshape(len(c), n, -1)  # block b holds the element of index (b + 1) % n
    els = pair.group.elements()
    pos = {e: i for i, e in enumerate(els)}
    images = np.empty((n,) + blocks.shape, dtype=blocks.dtype)
    for g in range(n):
        images[g][:, [(pos[els[g] * w] - 1) % n for w in els]] = blocks[:, (np.arange(n) - 1) % n]
    return images.reshape((n,) + c.shape)


def stacked_cocycle_rows(pair):
    """pi_g(c) - c for g = 1..n-1, g-major, without the identity's columns."""
    c = delta2_matrix(pair)
    rows = (left_images(pair, c)[1:] - c).reshape(-1, c.shape[1])
    return rows[:, : c.shape[1] - len(pair.gens) * pair.d] % pair.p


def coboundary_rows(pair):
    """delta e(g, x) = e(g)^x + e(x) - e(gx) on the stacked columns (g, x, t).

    One row per normalized 1-cochain e = e_a at w != 1, row (w, a).
    """
    els = pair.group.elements()
    pos = {e: i for i, e in enumerate(els)}
    n, r, d = pair.order, len(pair.gens), pair.d
    t = np.arange(d)
    out = np.zeros((n, d, n, r, d), dtype=np.int64)  # rows (w, a), columns (g, k, t)
    for g in range(n):
        for k, x in enumerate(pair.group.generators):
            out[g, :, g, k, :] += pair.gens[k]  # (e_a)^x = row a of x
            out[pos[x], t, g, k, t] += 1
            out[pos[els[g] * x], t, g, k, t] -= 1
    return out[1:, :, 1:].reshape((n - 1) * d, (n - 1) * r * d) % pair.p


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
    comp = (stacked_cocycle_rows(pair) @ coboundary_rows(pair).T) % pair.p
    assert not comp.any()


def test_complex_identity_trivial_modules():
    for name, group in SMALL_ZOO:
        pair = trivial_pair(group, 2)
        comp = (stacked_cocycle_rows(pair) @ coboundary_rows(pair).T) % 2
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
    # C2^7 on GF(2)^7: 128 * 7 * 7 = 6272 unknowns, whose basis alone takes
    # 8 * 6272^2 = 314703872 bytes.  The spin also holds 769 * 7 = 5383 seed
    # rows, two more unknowns x unknowns temporaries and six times the
    # images of 128 * 7 rows, 8 bytes an entry:
    # 8 * 6272 * (3 * 6272 + 5383 + 6 * 896)
    with pytest.raises(ValueError, match="1483955200 bytes"):
        h2_dimension(trivial_pair(elementary_abelian_2(7), 2, d=7))
    # C2^8 on GF(2)^46: 8 * 46 = 368 unknowns; 1793 * 46 constraint rows
    # and a 256 * 46-row F: 277483776 bytes
    with pytest.raises(ValueError, match="277483776 bytes"):
        h1_dimension(trivial_pair(elementary_abelian_2(8), 2, d=46))


# ------------------------------------------------------------------ spin --

STREAM_ZOO = [(name, g) for name, g in ZOO if g.order() in (6, 8, 12, 16)][::3]


# the whole word-tree cocycle system as it was built for each g in turn
# (g-major, non-tree edges in table.right order, mod p), pinned by the
# SHA-256 of its int64 bytes over the pairs of each test in zoo order
STACKED_DIGESTS = {
    (2, 1): "e06f390d3bd11914cfcaee41f0c1bfe7adaa02f2de613da8d3e7215bccc65e67",
    (2, 2): "a6c5fc8470a1f849b5d04d815169cbf4f11abe47709e488b0687688ba87328eb",
    (3, 1): "3e115a88cf465c1be5564f08cae9ccb6696536f7227a4e3f068590d8d2ef0ce6",
    (3, 2): "d49e16ad4cd11e24c2c9ec69cdee607c53d2ea572a2984aca81682815972a5cd",
    "natural": "0d6d54f783bc42400950a79e7625f2483d8b096632986fa9fc153beebf714446",
}


def stacked_digest(pairs):
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(np.ascontiguousarray(stacked_cocycle_rows(pair), dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_delta2_rows_of_each_g_stack_to_the_whole_matrix(p, d):
    assert stacked_digest(trivial_pair(g, p, d) for _, g in ZOO) == STACKED_DIGESTS[p, d]


def test_delta2_rows_of_each_g_stack_to_the_whole_matrix_on_natural_modules():
    pairs = (GroupModulePair(g, a.matrices) for g, a in (f() for _, f in NATURAL))
    assert stacked_digest(pairs) == STACKED_DIGESTS["natural"]


def test_spin_columns_relabel_by_left_multiplication():
    for name, group in STREAM_ZOO:
        pair = trivial_pair(group, 3, 2)
        c = delta2_matrix(pair)
        images = left_images(pair, c)
        for x, cols in zip(group.generators, cohomology._spin_columns(pair)):
            assert np.array_equal(c[:, cols], images[group.elements().index(x)]), name


# each seed lists the generators in another order, so the word tree and the
# spin differ while the rank must not; the seeds 1 and 2**20 keep the case
# ids of the chunk sizes the streamed rank was once checked at
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", [1, 2**20])
def test_streamed_rank_is_the_rank_of_the_whole_matrix(seed, p, d):
    rng = random.Random(seed)
    for name, group in STREAM_ZOO:
        group = PermGroup(group.degree, rng.sample(group.generators, len(group.generators)))
        pair = trivial_pair(group, p, d)
        assert cohomology._delta2_rank(pair, None) == oracle_rank(stacked_cocycle_rows(pair), p), name


@pytest.mark.parametrize("label,factory", NATURAL, ids=[n for n, _ in NATURAL])
def test_streamed_rank_on_natural_modules(label, factory):
    group, action = factory()
    pair = GroupModulePair(group, action.matrices)
    assert cohomology._delta2_rank(pair, None) == oracle_rank(stacked_cocycle_rows(pair), pair.p)


def test_progress_reports_every_round():
    lines = []
    pair = trivial_pair(elementary_abelian_2(3), 2)
    assert h2_dimension(pair, lines.append) == 6
    # the seeds span the spun module, so there is one round, and it ends
    # at the rank of the rows of every g
    assert len(lines) == 1
    assert lines[0].split(", ")[0] == f"round 1: rank {oracle_rank(stacked_cocycle_rows(pair), 2)}"


# the count is of the large arrays only, so the systems here are large
# enough (0.17 to 5.7 MB counted) that small Python objects do not matter
@pytest.mark.parametrize("name,p,d", [
    ("C2^4", 2, 1), ("C2^4", 3, 2), ("SD16", 2, 3), ("A4", 3, 4), ("D12", 5, 3), ("C2^6", 2, 1),
])
def test_streamed_rank_stays_within_its_byte_count(monkeypatch, name, p, d):
    group = elementary_abelian_2(6) if name == "C2^6" else dict(ZOO)[name]
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
    # (p-1)^2 > 2^53, so the products of the spin run in int64, and three
    # products already pass 2^63: a rank of 3 needs the runs
    p = 2**31 - 1
    pair = trivial_pair(elementary_abelian_2(2), p)
    assert cohomology._delta2_rank(pair, None) == oracle_rank(stacked_cocycle_rows(pair), p) == 3
    assert h2_dimension(pair) == 0


# H^2(G, F_p) = Hom(M(G), F_p) + Ext(G_ab, F_p) by the universal coefficient
# theorem: the Schur multipliers are C6 for A6 and C2 for S6, and S6_ab = C2
@pytest.mark.parametrize("name,p,want", [("A6", 2, 1), ("A6", 3, 1), ("S6", 2, 2)])
def test_h2_of_a6_and_s6_on_trivial_modules(name, p, want):
    a6 = [Perm.from_cycles(6, [(0, 1, 2, 3, 4)]), Perm.from_cycles(6, [(3, 4, 5)])]
    s6 = [Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]), Perm.from_cycles(6, [(0, 1)])]
    group = PermGroup(6, a6 if name == "A6" else s6)
    assert group.order() == (360 if name == "A6" else 720)
    assert h2_dimension(trivial_pair(group, p)) == want


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
