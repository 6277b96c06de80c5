"""Permutation-group engine vs. a brute-force subgroup-lattice oracle.

The oracle enumerates *every* subgroup by closing each known subgroup with
each outside element, then partitions by conjugation.  It is deliberately
independent of the cyclic-extension code under test.
"""

import random
import tracemalloc

import numpy as np
import pytest

from burnside.census import ModuleAction, census_brute_force, validate_action_homomorphism
from burnside.cohomology import GroupModulePair, _spin_columns
from burnside.corpus import census_corpus
from burnside.ffield import ExtField, FFMatrix, PrimeField, blow_up
from burnside.permgroup import (
    ElementTable,
    Perm,
    _class_minima,
    _coset_minima,
    _generators_within,
    PermGroup,
    is_conjugate_subgroup,
    minimal_generators,
    mulclose,
    orbit_minima,
    subgroup_classes,
)
from smallgroups import all_small_groups, perms_of
from test_census import psl2_9_sym2, sl2_on_projective_line
from test_ffield import random_matrix
from test_tom import projective_line_psl2


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, cycles)


def s3():
    return PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])


def a4():
    return PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 1, 2))])


def s4():
    return PermGroup(4, [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])


def a5():
    return PermGroup(5, [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (2, 3, 4))])


def d12():
    return PermGroup(6, [cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (1, 5), (2, 4))])


# ---------------------------------------------------------------------------
# oracle


def lattice_oracle(group):
    """All subgroups as frozensets, by exhaustive closure extension."""
    ident = Perm.identity(group.degree)
    els = group.elements()
    trivial = frozenset([ident])
    gens_of = {trivial: []}
    worklist = [trivial]
    while worklist:
        h = worklist.pop()
        hgens = gens_of[h]
        for g in els:
            if g in h:
                continue
            k = frozenset(mulclose(hgens + [g], group.degree))
            if k not in gens_of:
                gens_of[k] = hgens + [g]
                worklist.append(k)
    return set(gens_of)


def conjugacy_partition_oracle(group, subgroups):
    els = group.elements()
    canon = {}
    for h in subgroups:
        key = min(tuple(sorted(frozenset(g.inverse() * x * g for x in h))) for g in els)
        canon.setdefault(key, []).append(h)
    return list(canon.values())


# ---------------------------------------------------------------------------
# permutations


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_perm_compose_left_to_right():
    a = cyc(3, (0, 1, 2))
    b = cyc(3, (0, 1))
    assert (a * b)((0)) == b(a(0))
    assert (a * b).images == (0, 2, 1)


def test_perm_inverse_and_power():
    a = cyc(5, (0, 1, 2, 3, 4))
    assert (a * a.inverse()).is_identity()
    assert a**5 == Perm.identity(5)
    assert a**-2 == a**3
    assert a.order() == 5


# ---------------------------------------------------------------------------
# orbits, order, membership


def orbit(degree, gens, point):
    """Breadth-first orbit of a point plus its Schreier transversal: transversal[x](point) = x.

    The reference for the stabilizer chain (perm_chain below), on Perm objects.
    """
    orb, transversal = [point], {point: Perm.identity(degree)}
    for x in orb:  # the loop extends the list it walks
        for g in gens:
            y = g(x)
            if y not in transversal:
                transversal[y] = transversal[x] * g
                orb.append(y)
    return orb, transversal


def test_orbit_trivial_group():
    orb, trans = orbit(4, [], 2)
    assert orb == [2]
    assert trans[2].is_identity()
    # no generator moves a point: an empty chain, and the order is 1
    assert PermGroup(4, []).base() == ()


def test_orbit_three_cycle():
    orb, _ = orbit(3, [cyc(3, (0, 1, 2))], 0)
    assert sorted(orb) == [0, 1, 2]
    # the chain's first level is the orbit of its base, 0
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    assert g.base() == (0,) and g.order() == 3


def test_orbit_transversal_reconstructs_points():
    g = s3()
    orb, trans = orbit(3, g.generators, 1)
    assert len(orb) == 3
    for point, t in trans.items():
        assert t(1) == point
        assert t in g


def test_group_order_examples():
    assert PermGroup(3, []).order() == 1
    assert s3().order() == 6
    assert a5().order() == 60
    assert len(a5().elements()) == 60


def test_order_invariant_under_generator_changes():
    g1 = s4()
    g2 = PermGroup(4, list(reversed(g1.generators)))
    rng = random.Random(4)
    els = g1.elements()
    words = [els[rng.randrange(len(els))] for _ in range(4)]
    while PermGroup(4, words).order() != 24:
        words = [els[rng.randrange(len(els))] for _ in range(4)]
    assert g2.order() == 24
    assert PermGroup(4, words).order() == 24


def test_membership():
    g = a4()
    assert cyc(4, (0, 1), (2, 3)) in g
    assert cyc(4, (0, 1)) not in g


def test_orbit_stabilizer():
    for g in (s3(), a4(), s4(), d12()):
        n = g.order()
        for point in range(g.degree):
            orb, _ = orbit(g.degree, g.generators, point)
            stab = sum(1 for x in g.element_words() if x(point) == point)
            assert len(orb) * stab == n
        # the chain's first level holds one inverse per point of the first base point's orbit
        assert sorted(g._stabilizer_chain()[0][1]) == sorted(orbit(g.degree, g.generators, g.base()[0])[0])


def perm_chain(gens):
    """(base, transversal) a level: the stabilizer chain as built on Perm objects, for reference."""
    if not gens:
        return []
    base = min(min(i for i, x in enumerate(g.images) if x != i) for g in gens)
    points, transversal = orbit(gens[0].degree, gens, base)
    stab, seen = [], set()
    for x in points:
        for g in gens:
            sg = transversal[x] * g * transversal[g(x)].inverse()
            if not sg.is_identity() and sg not in seen:
                seen.add(sg)
                stab.append(sg)
    return [(base, transversal)] + perm_chain(stab)


def in_perm_chain(chain, perm):
    for base, transversal in chain:
        t = transversal.get(perm(base))
        if t is None:
            return False
        perm = perm * t.inverse()
    return perm.is_identity()


def m11():
    return PermGroup(11, [cyc(11, tuple(range(11))), cyc(11, (2, 6, 10, 7), (3, 9, 4, 5))])


def m12():
    return PermGroup(12, [cyc(12, tuple(range(11))), cyc(12, (2, 6, 10, 7), (3, 9, 4, 5)),
                          cyc(12, (0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9))])


def a8():
    return PermGroup(8, [cyc(8, (0, 1, 2)), cyc(8, (1, 2, 3, 4, 5, 6, 7))])


CHAIN_GROUPS = all_small_groups() + [("M11", m11()), ("M12", m12()), ("A8", a8())]


@pytest.mark.parametrize("name,group", CHAIN_GROUPS, ids=[name for name, _ in CHAIN_GROUPS])
def test_tuple_chain_matches_the_perm_chain(name, group):
    reference = perm_chain([g for g in group.generators if not g.is_identity()])
    chain = group._stabilizer_chain()
    assert group.base() == tuple(base for base, _ in reference)
    assert [len(t) for _, t in chain] == [len(t) for _, t in reference]
    expected = {"M11": 7920, "M12": 95040, "A8": 20160}
    assert group.order() == expected.get(name, group.order())
    for (_, inverses), (_, ref) in zip(chain, reference):
        # the inverses of the same transversal, found in the same order
        assert [(x, tuple(t)) for x, t in inverses.items()] == [(x, t.inverse().images) for x, t in ref.items()]
    # members: words in the generators; mostly not: random permutations, and
    # members times a transposition
    rng = random.Random(len(name))
    gens, degree = group.generators, group.degree
    candidates = []
    for _ in range(40):
        x = Perm.identity(degree)
        for _ in range(rng.randrange(12)):
            x = x * rng.choice(gens)
        candidates.append(x)
        candidates.append(Perm(rng.sample(range(degree), degree)))
        if degree > 1:
            a, b = rng.sample(range(degree), 2)
            candidates.append(x * Perm.from_cycles(degree, [(a, b)]))
    answers = [x in group for x in candidates]
    assert answers == [in_perm_chain(reference, x) for x in candidates]
    assert all(answers[::3 if degree > 1 else 2])
    assert Perm.identity(degree + 1) not in group


TREE_GROUPS = all_small_groups() + [("S6", PermGroup(6, [cyc(6, (0, 1)), cyc(6, (0, 1, 2, 3, 4, 5))])),
                                    ("M11", m11())]


@pytest.mark.parametrize("name,group", TREE_GROUPS, ids=[name for name, _ in TREE_GROUPS])
def test_tree_levels_split_the_tree_by_word_length(name, group):
    table = group.element_table()
    levels = table.tree_levels()
    assert table.tree_levels() is levels  # built once
    depth = [len(table.words[x]) for x in table.perms]
    assert len(levels) == max(depth)
    for d, level in enumerate(levels, 1):
        assert level.shape[0] == 3
        assert list(zip(*level.tolist())) == [edge for edge in table.tree if depth[edge[2]] == d]


@pytest.mark.parametrize("name,group", TREE_GROUPS, ids=[name for name, _ in TREE_GROUPS])
def test_inverses_and_left_products_match_perm_products(name, group):
    table = group.multiplication_table()
    perms, index = table.perms, table.index
    assert table.inv.tolist() == [index[x.inverse()] for x in perms]
    # _spin_columns' gather, from left products by the generators taken on Perm objects
    one = FFMatrix.from_rows(PrimeField(2), [[1]])
    pair = GroupModulePair(group, [one] * len(group.generators))
    n, r = len(perms), len(group.generators)
    left = np.array([[index[x * w] for w in perms] for x in group.generators]).reshape(r, n)
    source = np.empty((r, n), dtype=np.intp)
    source[np.arange(r)[:, None], (left - 1) % n] = (np.arange(n) - 1) % n
    expected = (source[:, :, None] * r + np.arange(r)).reshape(r, n * r)
    assert np.array_equal(_spin_columns(pair), expected)


# ---------------------------------------------------------------------------
# subgroup classes


def test_subgroup_classes_c2():
    g = PermGroup(2, [cyc(2, (0, 1))])
    cl = subgroup_classes(g)
    assert [c.order for c in cl] == [1, 2]
    assert [c.size for c in cl] == [1, 1]


def test_subgroup_classes_s3():
    cl = subgroup_classes(s3())
    assert [c.order for c in cl] == [1, 2, 3, 6]
    assert [c.size for c in cl] == [1, 3, 1, 1]


def test_subgroup_classes_a4():
    cl = subgroup_classes(a4())
    assert [c.order for c in cl] == [1, 2, 3, 4, 12]


def test_subgroup_classes_match_lattice_oracle():
    for make in (s3, a4, s4, a5, d12):
        g = make()
        subs = lattice_oracle(g)
        parts = conjugacy_partition_oracle(g, subs)
        cl = subgroup_classes(g)
        assert sum(c.size for c in cl) == len(subs)
        assert len(cl) == len(parts)
        assert sorted(c.order for c in cl) == sorted(len(p[0]) for p in parts)
        for c in cl:
            u = perms_of(g, c.elements)
            assert u in subs
            assert c.size == next(len(p) for p in parts if u in p)


def test_subgroup_classes_include_perfect_subgroup_of_s5():
    g = PermGroup(5, [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
    cl = subgroup_classes(g)
    sixty = [c for c in cl if c.order == 60]
    assert len(sixty) == 1
    assert cl[0].order == 1
    assert cl[-1].order == 120
    # every subgroup representative really is a subgroup
    for c in cl:
        assert len(mulclose(perms_of(g, c.generators), 5)) == c.order


def test_oversized_product_table_fails_before_enumeration(monkeypatch):
    def never(*args):
        raise AssertionError("the elements were enumerated")

    monkeypatch.setattr(ElementTable, "__init__", never)
    # A8 has order 20160; its table of 2-byte indices takes 20160^2 * 2 bytes
    a8 = PermGroup(8, [cyc(8, (0, 1, 2)), cyc(8, (1, 2, 3, 4, 5, 6, 7))])
    for use in (lambda: subgroup_classes(a8), lambda: is_conjugate_subgroup(a8, [0], [0]),
                a8.element_words, a8.elements, a8.element_table, a8.multiplication_table):
        with pytest.raises(ValueError, match="the 20160 x 20160 product table takes 812851200 bytes"):
            use()


def test_element_images_need_no_product_table(monkeypatch):
    def never(self):
        raise AssertionError("the product table was built")

    monkeypatch.setattr(PermGroup, "multiplication_table", never)
    # S7, order 5040, acting on GF(3)^1 by the sign
    s7 = PermGroup(7, [cyc(7, (0, 1)), cyc(7, (0, 1, 2, 3, 4, 5, 6))])
    f = PrimeField(3)
    action = ModuleAction([FFMatrix.from_rows(f, [[2]]), FFMatrix.from_rows(f, [[1]])])
    validate_action_homomorphism(s7, action)
    wrong = ModuleAction([FFMatrix.from_rows(f, [[1]]), FFMatrix.from_rows(f, [[2]])])
    with pytest.raises(ValueError, match="not aligned"):
        validate_action_homomorphism(s7, wrong)
    with pytest.raises(ValueError, match="not aligned"):
        GroupModulePair(s7, wrong.matrices)
    # the dual images are checked before any subgroup is enumerated
    with pytest.raises(ValueError, match="not aligned"):
        census_brute_force(s7, wrong)


def image_pairs():
    """(name, group, generator matrices): the corpus and two GF(p^k) pairs."""
    pairs = [(name, group, action.matrices) for name, group, action in census_corpus()]
    pairs.append(("SL(2,4) on GF(4)^2", *sl2_on_projective_line(ExtField(2, 2))))
    group, action = psl2_9_sym2()
    pairs.append(("PSL(2,9) on GF(9)^3", group, action.matrices))
    return pairs


IMAGE_PAIRS = image_pairs()


@pytest.mark.parametrize("name,group,mats", IMAGE_PAIRS, ids=[n for n, _, _ in IMAGE_PAIRS])
def test_batched_images_match_sequential_products(name, group, mats):
    table = group.element_table()
    images = table.images(mats)
    assert images.shape == (len(table.perms), *blow_up(mats[0]).array.shape)
    for x, word in table.words.items():
        m = FFMatrix.identity(mats[0].field, mats[0].rows)
        for k in word:
            m = m * mats[k]
        assert np.array_equal(images[table.index[x]], blow_up(m).array)


def misaligned(group, mats, rng):
    """The matrices plus a 3-dimensional summand on which generator 0 acts by
    some x with x^m != 1, m the order of generator 0, and the others act
    trivially: the relation g_0^m = 1 fails, so they define no action."""
    f, d = mats[0].field, mats[0].rows
    m = group.generators[0].order()
    x = random_matrix(f, 3, 3, rng)
    while not x.is_invertible() or (x**m).is_identity():
        x = random_matrix(f, 3, 3, rng)
    out = []
    for k, mat in enumerate(mats):
        a = np.eye(d + 3, dtype=np.int64)
        a[:d, :d] = mat.array
        if k == 0:
            a[d:, d:] = x.array
        out.append(FFMatrix(f, d + 3, d + 3, a))
    return out


@pytest.mark.parametrize("name,group,mats", IMAGE_PAIRS, ids=[n for n, _, _ in IMAGE_PAIRS])
def test_misaligned_generators_are_not_aligned(name, group, mats):
    wrong = misaligned(group, mats, random.Random(name))
    with pytest.raises(ValueError, match="not aligned"):
        group.element_table().images(wrong)
    with pytest.raises(ValueError, match="not aligned"):
        validate_action_homomorphism(group, ModuleAction(wrong))
    with pytest.raises(ValueError, match="not aligned"):
        census_brute_force(group, ModuleAction(wrong))
    if wrong[0].field.k == 1:
        with pytest.raises(ValueError, match="not aligned"):
            GroupModulePair(group, wrong)


def test_class_elements_are_subgroups_and_sizes_divide():
    g = s4()
    cl = subgroup_classes(g)
    n = g.order()
    for c in cl:
        assert n % c.order == 0
        u = perms_of(g, c.elements)
        assert frozenset(mulclose(minimal_generators(u), 4)) == u


def a7():
    return PermGroup(7, [cyc(7, (0, 1, 2)), cyc(7, (2, 3, 4, 5, 6))])


@pytest.mark.parametrize("make", [lambda: PermGroup(6, [cyc(6, (0, 1)), cyc(6, (0, 1, 2, 3, 4, 5))]), a7],
                         ids=["S6", "A7"])
def test_closure_matches_mulclose(make):
    group = make()
    table = group.multiplication_table()
    rng = random.Random(8)
    for _ in range(25):
        gens = rng.sample(range(len(table.perms)), rng.randint(1, 3))
        expected = mulclose([table.perms[i] for i in gens], group.degree)
        assert table.closure(gens).tolist() == sorted(table.index[x] for x in expected)


def test_closure_of_no_generators_is_the_identity():
    table = s4().multiplication_table()
    assert table.closure(()).tolist() == [0]


def test_closure_cap_is_inclusive():
    table = s4().multiplication_table()
    gens = [table.index[cyc(4, (0, 1, 2))], table.index[cyc(4, (0, 1), (2, 3))]]  # A4
    a4_els = table.closure(gens)
    assert len(a4_els) == 12
    assert table.closure(gens, cap=12).tolist() == a4_els.tolist()
    assert table.closure(gens, cap=11) is None


def s6():
    return PermGroup(6, [cyc(6, (0, 1)), cyc(6, (0, 1, 2, 3, 4, 5))])


@pytest.mark.parametrize("make", [lambda: PermGroup(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))]), s6, a7,
                                  lambda: projective_line_psl2(7)], ids=["S5", "S6", "A7", "PSL(2,7)"])
def test_generators_within_match_minimal_generators(make):
    # the greedy scan over sorted indices picks the generators that
    # minimal_generators picks over sorted permutations, class by class
    group = make()
    table = group.multiplication_table()
    for c in subgroup_classes(group):
        expected = [table.index[x] for x in minimal_generators([table.perms[i] for i in c.elements])]
        assert _generators_within(table, c.elements) == expected


def element_table_by_search(degree, generators):
    """perms, words, right and tree of an ElementTable, by a breadth-first search on Perm products."""
    ident = Perm.identity(degree)
    words, found, tree = {ident: ()}, [ident], []
    for x in found:  # the loop extends the list it walks
        for k, g in enumerate(generators):
            y = x * g
            if y not in words:
                words[y] = words[x] + (k,)
                found.append(y)
                tree.append((x, k, y))
    perms = sorted(found)
    index = {x: i for i, x in enumerate(perms)}
    right = [[index[x * g] for g in generators] for x in perms]
    return perms, words, right, [(index[x], k, index[y]) for x, k, y in tree]


@pytest.mark.parametrize("degree,generators", [
    (1, [Perm.identity(1)]),
    (1, []),
    (4, [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1)), cyc(4, (0, 1, 2, 3))]),
    (5, [Perm.identity(5), cyc(5, (0, 1, 2)), cyc(5, (2, 3, 4))]),
    (6, list(s6().generators)),
], ids=["C1", "no generators", "repeated generator", "identity generator", "S6"])
def test_element_table_matches_a_perm_search(degree, generators):
    table = ElementTable(degree, generators)
    perms, words, right, tree = element_table_by_search(degree, generators)
    assert list(table.perms) == perms
    assert all(type(x.images) is tuple for x in table.perms)
    assert table.index == {x: i for i, x in enumerate(perms)}
    assert list(table.words.items()) == list(words.items())  # insertion order too
    assert table.right == right
    assert table.tree == tree


@pytest.mark.parametrize("name,group", all_small_groups() + [("S6", s6())],
                         ids=[name for name, _ in all_small_groups()] + ["S6"])
def test_product_table_and_inverses_match_perm_products(name, group):
    table = group.multiplication_table()
    perms, index = table.perms, table.index
    assert table.mul.tolist() == [[index[x * y] for y in perms] for x in perms]
    assert table.inv.tolist() == [index[x.inverse()] for x in perms]
    assert table.inv[table.inv].tolist() == list(range(len(perms)))


def test_product_table_builds_no_square_temporary():
    # the table's 2 n^2 bytes are charged with the elements; filling it and
    # finding the inverses must not add an n x n array beside it
    group = a7()
    group.element_table()
    n = group.order()
    tracemalloc.start()
    try:
        table = group.multiplication_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.mul.nbytes == 2 * n * n
    assert table.mul.nbytes <= peak < table.mul.nbytes + n * n // 4


@pytest.mark.parametrize("make", [lambda: PermGroup(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))]), s6, a7,
                                  lambda: projective_line_psl2(7)], ids=["S5", "S6", "A7", "PSL(2,7)"])
def test_coset_minima_match_a_search(make):
    # both branches, on each class representative U and its normalizer N(U):
    # the least of the products x g over x in U, for every g, one per coset
    group = make()
    table = group.multiplication_table()
    n = len(table.perms)
    gathered = set()
    for c in subgroup_classes(group):
        in_u = np.zeros(n, dtype=bool)
        in_u[c.elements] = True
        normalizer = np.flatnonzero(in_u[table.conjugates(c.elements)].all(axis=1))
        gathered.add(len(normalizer) ** 2 < 512)
        for h in (c.elements, normalizer):
            expected = sorted({min(row) for row in table.mul[h].T.tolist()})
            assert len(expected) == n // len(h)
            assert _coset_minima(table.mul, h, True) == expected
            assert _coset_minima(table.mul, h, False) == expected
    if n == 2520:  # A7: subgroup_classes gathers the cosets of some normalizers and loops over the rest
        assert gathered == {True, False}


@pytest.mark.parametrize("make", [s4, s6], ids=["S4", "S6"])
def test_least_conjugates_match_a_search(make):
    table = make().multiplication_table()
    minima, least = _class_minima(table)
    expected = [min(table.index[g.inverse() * x * g] for g in table.perms) for x in table.perms]
    assert least.tolist() == expected
    # the least element of each class, ascending
    assert minima == sorted(set(expected))


# ---------------------------------------------------------------------------
# conjugacy of subgroups


def indices(group, perms):
    table = group.multiplication_table()
    return sorted(table.index[x] for x in perms)


def test_conjugate_self_identity_witness():
    g = s3()
    u = indices(g, [Perm.identity(3), cyc(3, (0, 1))])
    assert is_conjugate_subgroup(g, u, u) == (True, 0)


def test_point_stabilizers_conjugate_in_s3():
    g = s3()
    u = [Perm.identity(3), cyc(3, (1, 2))]  # stabilizer of 0
    v = [Perm.identity(3), cyc(3, (0, 2))]  # stabilizer of 1
    ok, w = is_conjugate_subgroup(g, indices(g, u), indices(g, v))
    assert ok
    w = g.multiplication_table().perms[w]
    assert {w.inverse() * x * w for x in u} == set(v)


def test_nonconjugate_order2_subgroups_in_s4():
    g = s4()
    u = [Perm.identity(4), cyc(4, (0, 1), (2, 3))]
    v = [Perm.identity(4), cyc(4, (0, 1))]
    assert is_conjugate_subgroup(g, indices(g, u), indices(g, v)) == (False, None)


def test_conjugacy_tells_apart_the_classes_of_s4_by_least_witness():
    g = s4()
    table = g.multiplication_table()
    cl = subgroup_classes(g)
    assert [c.order for c in cl if c.order in (2, 4)] == [2, 2, 4, 4, 4]
    for a in cl:
        u = perms_of(g, a.elements)
        for b in cl:
            for v in np.sort(table.conjugates(b.elements), axis=1):  # every conjugate of b
                found, w = is_conjugate_subgroup(g, a.elements, v)
                assert found == (a is b)
                if found:
                    target = perms_of(g, v)
                    assert w == min(i for i, x in enumerate(table.perms)
                                    if frozenset(x.inverse() * y * x for y in u) == target)
                else:
                    assert w is None


@pytest.mark.parametrize("name,group", all_small_groups(), ids=[name for name, _ in all_small_groups()])
def test_class_indices_are_consistent(name, group):
    table = group.multiplication_table()
    for c in subgroup_classes(group):
        assert table.closure(c.generators).tolist() == c.elements.tolist()
        assert len(c.elements) == c.order
        conjugates = np.sort(table.conjugates(c.elements), axis=1)
        assert len(np.unique(conjugates, axis=0)) == c.size
        # the kept conjugates are the distinct ones, each once, sorted
        assert c.conjugates.shape == (c.size, c.order)
        kept = c.conjugates.astype(np.int64)
        assert np.array_equal(np.unique(kept, axis=0), np.unique(conjugates, axis=0))
        assert np.array_equal(np.sort(kept, axis=1), kept)


def orbits_by_search(n, maps):
    """The least point of each point's orbit, by a breadth-first search from every point."""
    least = [None] * n
    for x in range(n):
        if least[x] is None:
            orbit = [x]
            for y in orbit:  # the loop extends the list it walks
                for m in maps:
                    if int(m[y]) not in orbit:
                        orbit.append(int(m[y]))
            for y in orbit:
                least[y] = min(orbit)
    return least


@pytest.mark.parametrize("seed", range(8))
def test_orbit_minima_match_a_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    # bijections that keep a hidden partition into blocks, so that there
    # are several orbits, some of them unions of cycles of different maps
    blocks = rng.integers(0, int(rng.integers(1, 12)), n)
    maps = []
    for _ in range(int(rng.integers(1, 5))):
        m = np.arange(n)
        for b in np.unique(blocks):
            inside = np.flatnonzero(blocks == b)
            m[inside] = inside[rng.permutation(len(inside))] if rng.random() < 0.7 else inside
        maps.append(m)
    assert orbit_minima(n, maps).tolist() == orbits_by_search(n, maps)
