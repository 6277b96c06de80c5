import dataclasses
import itertools
import random

import numpy as np
import pytest

from burnside import census, ffield
from burnside.census import (
    CensusReport,
    ModuleAction,
    census_brute_force,
    census_from_tom,
    fixed_space_dim_dual,
    validate_action_homomorphism,
)
from burnside.cli import main
from burnside.corpus import (
    _nonzero_vectors,
    _projective_line,
    _projective_perm,
    census_corpus,
    pair_c3,
    pair_d8,
    pair_s3,
    perm_from_matrix,
)
from burnside.ffield import ExtField, FFMatrix, PrimeField, blow_up
from burnside.formats import write_meataxe, write_tom
from burnside.permgroup import Perm, PermGroup, subgroup_classes
from burnside.slp import MUL, POW, evaluate
from burnside.tom import TableOfMarks, compute_tom, decompose_fixed_vector
from test_ffield import random_matrix
from test_tom import projective_line_psl2

CORPUS = census_corpus()
IDS = [name for name, _, _ in CORPUS]


def burnside_lemma_orbits(group, action):
    """Third route: average number of fixed dual vectors over all elements."""
    field = action.field
    duals = [m.transpose().inverse() for m in action.matrices]
    dual_of = {}
    for el, word in zip(group.elements(), group.element_words()):
        m = FFMatrix.identity(field, action.d)
        for idx in word:
            m = m * duals[idx]
        dual_of[el] = m
    points = [()]
    for _ in range(action.d):
        points = [v + (x,) for v in points for x in field.elements()]

    def image(v, m):
        return tuple(
            _dot(field, v, tuple(m[(i, j)] for i in range(action.d))) for j in range(action.d)
        )

    total = 0
    for m in dual_of.values():
        total += sum(1 for v in points if image(v, m) == v)
    order = group.order()
    assert total % order == 0
    return total // order


def _dot(field, u, col):
    s = field.zero
    for a, b in zip(u, col):
        s = field.add(s, field.mul(a, b))
    return s


@pytest.mark.parametrize("name,group,action", CORPUS, ids=IDS)
def test_corpus_pairs_are_homomorphisms(name, group, action):
    validate_action_homomorphism(group, action)


@pytest.mark.parametrize("name,group,action", CORPUS, ids=IDS)
def test_tom_route_matches_brute_force(name, group, action):
    tom = compute_tom(group)
    via_tom = census_from_tom(tom, action)
    via_brute = census_brute_force(group, action)
    assert via_tom.fixed == via_brute.fixed
    assert via_tom.decomp == via_brute.decomp
    assert via_tom.nonzeropos == via_brute.nonzeropos
    assert via_tom.staborders == via_brute.staborders
    assert via_tom.regular_orbits == via_brute.regular_orbits
    assert via_tom == via_brute


def _projective_line_group(field, mats):
    points = _projective_line(field)
    return PermGroup(len(points), [_projective_perm(field, m, points) for m in mats])


def sl2_on_projective_line(field):
    """SL(2,q) generators, and their permutations of the projective line."""
    # a primitive element: GF(9)'s modulus root has order 4, not 8
    z = next(a for a in field.elements() if len({field.pow(a, e) for e in range(field.q - 1)}) == field.q - 1)
    mats = [
        FFMatrix.from_rows(field, m)
        for m in ([[1, 1], [0, 1]], [[z, 0], [0, field.inv(z)]], [[0, 1], [field.neg(1), 0]])
    ]
    return _projective_line_group(field, mats), mats


def psl2_8():
    """PSL(2,8) = SL(2,8) on the 9 points of the projective line."""
    return sl2_on_projective_line(ExtField(2, 3))[0]


def s6():
    return PermGroup(6, [Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])


def _perm_matrix(field, g):
    n = g.degree
    return FFMatrix.from_rows(field, [[int(g(i) == j) for j in range(n)] for i in range(n)])


def permutation_module(group):
    """The GF(2) permutation module of a permutation group."""
    return ModuleAction([_perm_matrix(PrimeField(2), g) for g in group.generators])


def with_permutation_module(group):
    return group, permutation_module(group)


def _direct_sum(blocks, trivial):
    """Block-diagonal sum of square matrices plus `trivial` one-dimensional trivial summands."""
    n = sum(b.rows for b in blocks) + trivial
    a = np.eye(n, dtype=np.int64)
    at = 0
    for b in blocks:
        a[at : at + b.rows, at : at + b.rows] = b.array
        at += b.rows
    return FFMatrix(blocks[0].field, n, n, a)


def gl32_on_gf2_15():
    """GL(3,2) on its 7 points; module natural + dual + permutation + 2 trivial."""
    f = PrimeField(2)
    mats = [
        FFMatrix.from_rows(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        FFMatrix.from_rows(f, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]),
    ]
    perms = [perm_from_matrix(m, _nonzero_vectors(f, 3)) for m in mats]
    module = [_direct_sum([m, m.transpose().inverse(), _perm_matrix(f, g)], 2) for m, g in zip(mats, perms)]
    return PermGroup(7, perms), ModuleAction(module)


def s5_on_gf3_8():
    """S5 on 5 points; module permutation + sign + 2 trivial over GF(3)."""
    f = PrimeField(3)
    perms = [Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]
    signs = [(-1) ** sum(len(c) - 1 for c in g.cycles()) % 3 for g in perms]
    module = [_direct_sum([_perm_matrix(f, g), FFMatrix.from_rows(f, [[s]])], 2) for g, s in zip(perms, signs)]
    return PermGroup(5, perms), ModuleAction(module)


# PSL(2,11) contains A5, so its classes need the perfect seeds; the GL(3,2)
# and S5 modules add natural, dual, sign and trivial summands
@pytest.mark.parametrize("make,order", [
    (lambda: with_permutation_module(psl2_8()), 504),
    (lambda: with_permutation_module(projective_line_psl2(11)), 660),
    (lambda: with_permutation_module(s6()), 720),
    (gl32_on_gf2_15, 168),
    (s5_on_gf3_8, 120),
], ids=["PSL(2,8)", "PSL(2,11)", "S6", "GL(3,2) on GF(2)^15", "S5 on GF(3)^8"])
def test_tom_route_matches_brute_force_on_permutation_modules(make, order):
    group, action = make()
    assert group.order() == order
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    assert census_from_tom(tom, action) == census_brute_force(group, action, classes=classes)


def pgl2_13_sign():
    """PGL(2,13) = <x+1, 2x, -1/x> on 14 points, on GF(3) by the sign of PGL/PSL."""
    p = 13
    shift = Perm([(x + 1) % p for x in range(p)] + [p])
    double = Perm([2 * x % p for x in range(p)] + [p])
    inv = Perm([p] + [-pow(x, p - 2, p) % p for x in range(1, p)] + [0])
    f = PrimeField(3)
    return PermGroup(p + 1, [shift, double, inv]), ModuleAction(
        [FFMatrix.from_rows(f, [[s]]) for s in (1, 2, 1)]
    )


def test_census_of_a_group_with_a_perfect_subgroup_of_order_1092():
    # PSL(2,13) has order 1092, a multiple of neither 60 nor 168; its class is
    # the stabilizer of the nonzero dual vectors
    group, action = pgl2_13_sign()
    classes = subgroup_classes(group)
    assert group.order() == 2184 and len(classes) == 30
    tom = compute_tom(group, classes=classes)
    report = census_from_tom(tom, action)
    assert report == census_brute_force(group, action, classes=classes)
    assert report.staborders == (1092, 2184)


def per_class_report(tom, action):
    """The census with each class program evaluated on its own."""
    fixed = []
    for prog in tom.slps:
        gens = evaluate(prog, action.matrices)
        fixed.append(action.q ** (fixed_space_dim_dual(gens) if gens else action.d))
    decomp = decompose_fixed_vector(tom, fixed)
    return CensusReport(action.q, action.d, tuple(fixed), decomp, tom.orders)


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def distinct_operations(programs):
    """The number of distinct operations of programs run on the same inputs.

    Each slot holds the term that computes it, so operations equal as terms
    are counted once, whichever program and slot they come from.
    """
    terms = set()
    for prog in programs:
        slot = {i: i for i in range(1, prog.n_inputs + 1)}
        for target, op, i, x in prog.statements:
            term = (op, slot[i], slot[x] if op == MUL else x)
            terms.add(term)
            slot[target] = term
    return len(terms)


def test_census_computes_each_distinct_product_once(monkeypatch):
    group, action = s5_on_gf3_8()
    tom = compute_tom(group)
    expected = per_class_report(tom, action)
    distinct = distinct_operations(tom.slps)
    assert distinct < sum(len(prog.statements) for prog in tom.slps)
    products = counting(monkeypatch, FFMatrix, "__mul__")
    # the fixed spaces multiply bases too; count the programs' products only
    during_evaluate = []
    counted_evaluate = census.evaluate

    def evaluate_counting_products(*args):
        before = len(products)
        out = counted_evaluate(*args)
        during_evaluate.append(len(products) - before)
        return out

    monkeypatch.setattr(census, "evaluate", evaluate_counting_products)
    assert census_from_tom(tom, action) == expected
    assert len(during_evaluate) == tom.n
    # the stored programs are words: every statement is one product
    assert sum(during_evaluate) == distinct


@pytest.mark.parametrize("name,group,action", CORPUS, ids=IDS)
def test_census_bookkeeping(name, group, action):
    tom = compute_tom(group)
    rep = census_from_tom(tom, action)
    assert rep.q == action.q and rep.dim == action.d
    assert rep.fixed[0] == action.q**action.d
    # every fixed count is a power of q
    for f in rep.fixed:
        while f % action.q == 0:
            f //= action.q
        assert f == 1
    # orbit sizes weighted by multiplicity fill the dual space
    assert sum(c * ix for c, ix in zip(rep.decomp, tom.index)) == action.q**action.d
    assert rep.orbits == burnside_lemma_orbits(group, action)


@pytest.mark.parametrize("name,group,action", CORPUS, ids=IDS)
def test_fixed_monotone_under_containment(name, group, action):
    # marks[i][j] > 0 certifies a conjugate containment U_j <= U_i
    tom = compute_tom(group)
    rep = census_from_tom(tom, action)
    for i in range(tom.n):
        for j in range(i + 1):
            if tom.marks[i][j]:
                assert rep.fixed[j] >= rep.fixed[i]


def test_s3_frozen_report():
    group, action = pair_s3()
    rep = census_from_tom(compute_tom(group), action)
    assert rep.fixed == (4, 2, 1, 1)
    assert rep.decomp == (0, 1, 0, 1)
    assert rep.nonzeropos == (2, 4)
    assert rep.staborders == (2, 6)
    assert rep.regular_orbits == 0


def test_c3_frozen_report():
    # zero vector is fixed; the other three dual vectors form one free orbit
    group, action = pair_c3()
    rep = census_from_tom(compute_tom(group), action)
    assert rep.fixed == (4, 1)
    assert rep.decomp == (1, 1)
    assert rep.regular_orbits == 1


def test_trivial_module_single_orbit():
    group, _ = pair_s3()
    f = PrimeField(2)
    action = ModuleAction([FFMatrix(f, 0, 0, []), FFMatrix(f, 0, 0, [])])
    tom = compute_tom(group)
    for rep in (census_from_tom(tom, action), census_brute_force(group, action)):
        assert rep.fixed == (1, 1, 1, 1)
        assert rep.decomp == (0, 0, 0, 1)
        assert rep.staborders == (6,)


def test_fixed_space_dim_basics():
    f = PrimeField(2)
    transvection = FFMatrix.from_rows(f, [[1, 1], [0, 1]])
    assert fixed_space_dim_dual([transvection]) == 1
    assert fixed_space_dim_dual([FFMatrix.identity(f, 3)]) == 3
    assert fixed_space_dim_dual([transvection, transvection.transpose()]) == 0
    empty = FFMatrix(ExtField(2, 2), 0, 0, [])
    assert fixed_space_dim_dual([empty]) == fixed_space_dim_dual([empty, empty], {(empty,): None}) == 0
    with pytest.raises(ValueError):
        fixed_space_dim_dual([])
    with pytest.raises(ValueError):
        fixed_space_dim_dual([transvection, FFMatrix.identity(f, 3)])


def test_a_generator_fixing_the_space_so_far_is_not_eliminated(monkeypatch):
    f = PrimeField(3)
    g = FFMatrix.from_rows(f, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])  # its dual fixes e1 and e3
    h = FFMatrix.from_rows(f, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])  # fixes e1 and e3 too
    k = FFMatrix.from_rows(f, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])  # fixes e2 and e3
    one = FFMatrix.identity(f, 3)
    calls = counting(monkeypatch, census, "row_echelon")
    # (generators, announced tuples, fixed dimension, kernel passes)
    for mats, announced, dim, eliminations in [
        ((one,), (), 3, 0),
        ((one, one), (), 3, 0),
        ((g, h), (), 2, 1),
        ((g, h), ((g, h),), 2, 1),
        ((one, g), (), 2, 1),
        ((one, g, h, k), ((one, g, h, k),), 1, 2),
    ]:
        assert stacked_fixed_dim(mats) == dim
        bases = dict.fromkeys(announced)
        del calls[:]
        assert fixed_space_dim_dual(mats, bases) == dim
        assert len(calls) == eliminations
    # the basis carries over: the one before it, or for the first generator the identity
    assert bases[one, g, h] is bases[one, g]
    assert np.array_equal(bases[one,], np.eye(3))


def stacked_fixed_dim(mats):
    """The dual fixed dimension as one left nullspace of all blocks g^T - 1 side by side."""
    field, d = mats[0].field, mats[0].rows
    ident = FFMatrix.identity(field, d)
    blocks = [(m.transpose() - ident).array for m in mats]
    return FFMatrix(field, d, d * len(mats), np.hstack(blocks)).nullspace().rows


def near_identity(a, rng):
    """An invertible 1 + a * b for a random 2 x d matrix b, a being d x 2.

    Its dual fixes at least d - 2 dimensions.  Two of these with the same a
    generically fix d - 4 dual dimensions together, but d - 2 (the v with
    v * a = 0) as matrices, so a transpose left out changes the answer.
    """
    field, d = a.field, a.rows
    while True:
        g = FFMatrix.identity(field, d) + a * random_matrix(field, 2, d, rng)
        if g.is_invertible():
            return g


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), ExtField(2, 2), ExtField(3, 2)],
    ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)"],
)
def test_shared_bases_match_unshared_fixed_dims(field):
    rng = random.Random(field.q)
    d = 6
    while True:
        dense = random_matrix(field, d, d, rng)
        if dense.is_invertible():
            break
    a = random_matrix(field, d, 2, rng)
    pool = [FFMatrix.identity(field, d), near_identity(a, rng), near_identity(a, rng), dense]
    # every tuple of up to three pool matrices, in an order that reaches some
    # tuples before their prefixes and some after
    tuples = [t for r in (1, 2, 3) for t in itertools.product(pool, repeat=r)]
    rng.shuffle(tuples)
    bases = {}
    zero_early = 0
    for mats in tuples:
        expected = stacked_fixed_dim(mats)
        assert fixed_space_dim_dual(mats, bases) == fixed_space_dim_dual(mats) == expected
        zero_early += any(stacked_fixed_dim(mats[:r]) == 0 for r in range(1, len(mats)))
    assert zero_early
    assert len({fixed_space_dim_dual(mats, bases) for mats in tuples}) > 2


def test_census_reduces_each_generator_prefix_once(monkeypatch):
    group, action = s5_on_gf3_8()
    tom = compute_tom(group)
    gens = [tuple(evaluate(prog, action.matrices)) for prog in tom.slps]
    prefixes = [g[:r] for g in gens for r in range(1, len(g))]
    assert len(set(prefixes)) < len(prefixes)
    # a class that no other class extends takes one rank and keeps no basis
    leaves = [g for g in gens if g and g not in set(prefixes)]
    assert leaves
    # a step whose generator fixes the whole space so far eliminates nothing
    steps = set(prefixes) | set(leaves)
    dim_before = {g: stacked_fixed_dim(g[:-1]) if len(g) > 1 else action.d for g in steps}
    reduced = {g for g in steps if stacked_fixed_dim(g) < dim_before[g]}
    assert len(reduced) < len(steps)
    expected = per_class_report(tom, action)
    passes = counting(monkeypatch, census, "row_echelon")
    blocks = counting(monkeypatch, census, "blow_up")
    assert census_from_tom(tom, action) == expected
    # a prefix eliminates [m | B], a leaf m alone, both over the d columns of m
    assert all(limit == action.d for _, _, limit in passes)
    widths = [a.shape[1] for a, _, _ in passes]
    assert widths.count(2 * action.d) == len(set(prefixes) & reduced)
    assert widths.count(action.d) == len(set(leaves) & reduced)
    assert len(passes) == len(set(prefixes) & reduced) + len(set(leaves) & reduced)
    assert len(blocks) == len({m for g in gens for m in g})


@pytest.mark.parametrize("pair", [pair_s3, pair_d8, pair_c3])
def test_fixed_dim_equal_for_inverses(pair):
    _, action = pair()
    for m in action.matrices:
        assert fixed_space_dim_dual([m]) == fixed_space_dim_dual([m.inverse()])


@pytest.mark.parametrize("name,group,action", CORPUS[:6], ids=IDS[:6])
def test_conjugate_action_same_report(name, group, action):
    import random

    rng = random.Random(20260825)
    field = action.field
    d = action.d
    while True:
        x = FFMatrix(field, d, d, [rng.randrange(field.q) for _ in range(d * d)])
        if x.is_invertible():
            break
    xi = x.inverse()
    conj = ModuleAction([xi * m * x for m in action.matrices])
    tom = compute_tom(group)
    assert census_from_tom(tom, conj) == census_from_tom(tom, action)


def test_tom_without_slps_fails_fast():
    group, action = pair_s3()
    tom = dataclasses.replace(compute_tom(group), slps=None)
    with pytest.raises(ValueError, match="straight-line"):
        census_from_tom(tom, action)


def test_programs_read_the_first_of_more_matrices():
    # the table of C3 has one-input programs; a second matrix is not read
    group, action = pair_c3()
    tom = compute_tom(group)
    (m,) = action.matrices
    wider = ModuleAction([m, FFMatrix.from_rows(m.field, [[1, 1], [0, 1]])])
    assert all(prog.n_inputs == 1 for prog in tom.slps)
    assert census_from_tom(tom, wider) == census_from_tom(tom, action)


def test_program_requiring_missing_generator_fails():
    # a two-generator table replayed against a single-matrix action
    group, _ = pair_s3()
    tom = compute_tom(group)
    _, action = pair_c3()
    with pytest.raises(ValueError):
        census_from_tom(tom, action)


def test_brute_force_byte_bound(monkeypatch, tmp_path, capsys):
    # five int64 arrays of 2^24 codes (the generator's permutation and four
    # more), then rows of 24 entries at 8 bytes: the split tables of the
    # generator and of the digits (2 x 2^12 rows each) and a block of 2^12
    # rows, 671088640 + 3932160 bytes
    group = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    matrix = FFMatrix.identity(PrimeField(2), 24)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("group elements enumerated before the byte bound was checked")

    monkeypatch.setattr(PermGroup, "element_table", no_enumeration)
    with pytest.raises(ValueError, match="675020800 bytes"):
        census_brute_force(group, ModuleAction([matrix]))
    perm = tmp_path / "c2.perm"
    perm.write_text(write_meataxe(list(group.generators)))
    gen = tmp_path / "id24.mtx"
    gen.write_text(write_meataxe(matrix))
    code = main(["census", "brute", "--perm", str(perm), "--gens", str(gen), "--q", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "675020800 bytes" in captured.err


def test_brute_force_generator_count_mismatch():
    group, _ = pair_s3()
    _, action = pair_c3()
    with pytest.raises(ValueError, match="generators"):
        census_brute_force(group, action)


def test_inconsistent_action_detected():
    # order-3 matrix attached to an order-2 permutation; the brute-force
    # route builds its dual images with the same edge check
    f = PrimeField(2)
    group = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    action = ModuleAction([FFMatrix.from_rows(f, [[0, 1], [1, 1]])])
    with pytest.raises(ValueError):
        validate_action_homomorphism(group, action)
    with pytest.raises(ValueError, match="not aligned"):
        census_brute_force(group, action)


def test_module_action_validation():
    f2, f3 = PrimeField(2), PrimeField(3)
    with pytest.raises(ValueError):
        ModuleAction([])
    with pytest.raises(ValueError, match="different fields"):
        ModuleAction([FFMatrix.identity(f2, 2), FFMatrix.identity(f3, 2)])
    with pytest.raises(ValueError, match="square"):
        ModuleAction([FFMatrix.zero(f2, 2, 3)])
    with pytest.raises(ValueError, match="invertible"):
        ModuleAction([FFMatrix.zero(f2, 2, 2)])
    act = ModuleAction([FFMatrix.identity(f3, 2)])
    assert act.q == 3 and act.d == 2


def test_report_invariants_enforced():
    good = dict(q=2, dim=1, fixed=(2, 1), decomp=(0, 1), orders=(1, 2))
    report = CensusReport(**good)
    assert (report.nonzeropos, report.staborders, report.regular_orbits, report.orbits) == ((2,), (2,), 0, 1)
    # a report stores what the census counted; the rest is derived
    assert [f.name for f in dataclasses.fields(CensusReport)] == ["q", "dim", "fixed", "decomp", "orders"]
    assert not hasattr(CensusReport, "from_counts")
    for key, bad in [
        ("fixed", (4, 1)),
        ("fixed", (2, 1, 1)),
        ("decomp", (1, 1, 1)),
        ("orders", (1,)),
    ]:
        with pytest.raises(ValueError):
            CensusReport(**{**good, key: bad})


def test_validate_rejects_gen_count_mismatch():
    group, _ = pair_s3()
    _, action = pair_c3()
    with pytest.raises(ValueError, match="generators"):
        validate_action_homomorphism(group, action)


# ---------------------------------------------------------------------------
# GF(p^k) censuses against their blow-ups


def sym2(field, m):
    """The action of a 2 x 2 matrix on quadratic forms, basis x^2, xy, y^2 (rows act)."""
    (a, b), (c, d) = m.to_rows()
    mul, add = field.mul, field.add
    return FFMatrix.from_rows(field, [
        [mul(a, a), mul(2 % field.p, mul(a, b)), mul(b, b)],
        [mul(a, c), add(mul(a, d), mul(b, c)), mul(b, d)],
        [mul(c, c), mul(2 % field.p, mul(c, d)), mul(d, d)],
    ])


def psl2_8_natural():
    """SL(2,8) = PSL(2,8) on GF(8)^2 plus a trivial summand."""
    group, mats = sl2_on_projective_line(ExtField(2, 3))
    return group, ModuleAction([_direct_sum([m], 1) for m in mats])


def psl2_9_sym2():
    """PSL(2,9) on the quadratic forms GF(9)^3, where -1 acts trivially."""
    f = ExtField(3, 2)
    group, mats = sl2_on_projective_line(f)
    return group, ModuleAction([sym2(f, m) for m in mats])


@pytest.mark.parametrize("make,order", [(psl2_8_natural, 504), (psl2_9_sym2, 360)],
                         ids=["PSL(2,8) on GF(8)^3", "PSL(2,9) on GF(9)^3"])
def test_ext_census_matches_its_blow_up_and_brute_force(make, order):
    group, action = make()
    assert group.order() == order
    validate_action_homomorphism(group, action)
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    report = census_from_tom(tom, action)
    k = action.field.k
    blown = ModuleAction([blow_up(m) for m in action.matrices])
    assert census_from_tom(tom, blown) == dataclasses.replace(report, q=action.field.p, dim=k * action.d)
    assert report == census_brute_force(group, action, classes=classes)
    assert len(report.nonzeropos) > 1


def test_gf4_census_blows_each_matrix_up_once(monkeypatch):
    group, mats = sl2_on_projective_line(ExtField(2, 2))
    action = ModuleAction([_direct_sum([m, m.transpose().inverse()], 1) for m in mats])
    validate_action_homomorphism(group, action)
    tom = compute_tom(group)
    expected = census_from_tom(tom, ModuleAction([blow_up(m) for m in action.matrices]))
    action = ModuleAction([FFMatrix(m.field, m.rows, m.cols, m.array) for m in action.matrices])
    for m in action.matrices:  # blown up by ModuleAction's checks
        m._blown = None
    computed = []  # every matrix whose blow-up was computed, not read back
    inside = []  # GF(4) products and blow-downs made inside fixed_space_dim_dual
    original, fixed_dim = ffield.blow_up, census.fixed_space_dim_dual
    mul, blow_down = FFMatrix.__mul__, ffield._blow_down

    def spy(m):
        if m.field.k > 1 and m._blown is None:
            computed.append(m)
        return original(m)

    def spy_mul(a, b):
        if inside and a.field.k > 1:
            inside.append("product")
        return mul(a, b)

    def spy_blow_down(field, m):
        if inside:
            inside.append("blow-down")
        return blow_down(field, m)

    def per_call(*args):
        inside.append("call")
        try:
            return fixed_dim(*args)
        finally:
            inside.remove("call")

    monkeypatch.setattr(ffield, "blow_up", spy)
    monkeypatch.setattr(census, "blow_up", spy)
    monkeypatch.setattr(FFMatrix, "__mul__", spy_mul)
    monkeypatch.setattr(ffield, "_blow_down", spy_blow_down)
    monkeypatch.setattr(census, "fixed_space_dim_dual", per_call)
    report = census_from_tom(tom, action)
    assert dataclasses.replace(report, q=2, dim=2 * action.d) == expected
    assert len({id(m) for m in computed}) == len(computed)  # no GF(4) matrix is blown up twice
    assert [sum(x is m for x in computed) for m in action.matrices] == [1] * len(action.matrices)
    assert inside == []
    # one call that forms a block for each fresh generator, and blows each up once
    fresh = [FFMatrix(m.field, m.rows, m.cols, m.array) for m in action.matrices]
    del computed[:]
    assert 4 ** census.fixed_space_dim_dual(fresh) == report.fixed[-1]
    assert len(computed) == len(fresh) and inside == []


def test_swapped_generators_break_the_fixed_dim_invariant(tmp_path, capsys):
    # A5 on its GF(3) permutation module: with the generator files swapped the
    # 3-cycle stands for the 5-cycle, and class 7 fixes more than class 2
    group = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])])
    tom = compute_tom(group)
    f = PrimeField(3)
    mats = [_perm_matrix(f, g) for g in group.generators]
    tom_file = tmp_path / "a5.tom.json"
    tom_file.write_text(write_tom(tom))
    files = []
    for i, m in enumerate(mats, 1):
        files.append(tmp_path / f"g{i}.mtx")
        files[-1].write_text(write_meataxe(m))
    assert census_from_tom(tom, ModuleAction(mats)).staborders == (2, 3, 6, 12, 60)
    with pytest.raises(ValueError, match="class 7 contains a conjugate of class 2 but fixes dimension 2 > 1"):
        census_from_tom(tom, ModuleAction(mats[::-1]))
    gens = ",".join(str(x) for x in files[::-1])
    code = main(["census", "tom", "--tom", str(tom_file), "--gens", gens, "--q", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "class 7 contains a conjugate of class 2" in captured.err


def test_a_miscounted_top_class_fails_the_top_class_check(monkeypatch, tmp_path, capsys):
    # A5 on its GF(3) permutation module fixes the line of the all-ones
    # vector; one dimension short for the whole group still shrinks along
    # the marks, and only the top-class check sees it
    group = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])])
    tom = compute_tom(group)
    mats = [_perm_matrix(PrimeField(3), g) for g in group.generators]
    top = tuple(evaluate(tom.slps[-1], mats))
    original = census.fixed_space_dim_dual

    def miscount(gens, bases=None):
        dim = original(gens, bases)
        return dim - 1 if tuple(gens) == top else dim

    monkeypatch.setattr(census, "fixed_space_dim_dual", miscount)
    message = "class 9, the whole group, fixes dimension 0 but the module generators its program reads fix dimension 1"
    with pytest.raises(ValueError, match=message):
        census_from_tom(tom, ModuleAction(mats))
    tom_file = tmp_path / "a5.tom.json"
    tom_file.write_text(write_tom(tom))
    files = []
    for i, m in enumerate(mats, 1):
        files.append(tmp_path / f"g{i}.mtx")
        files[-1].write_text(write_meataxe(m))
    code = main(["census", "tom", "--tom", str(tom_file), "--gens", ",".join(map(str, files)), "--q", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


def test_the_top_class_check_reads_only_the_matrices_the_programs_read():
    # C3 on GF(2)^2 + GF(2), and a matrix no program reads that moves the
    # trivial summand's dual: with it the stacked fixed space shrinks
    group, action = pair_c3()
    tom = compute_tom(group)
    assert [prog.n_inputs for prog in tom.slps] == [1, 1]
    g = _direct_sum(action.matrices, 1)
    extra = FFMatrix.from_rows(PrimeField(2), [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert stacked_fixed_dim([g, extra]) == 0 < stacked_fixed_dim([g]) == 1
    narrow = census_from_tom(tom, ModuleAction([g]))
    assert narrow.fixed == (8, 2)
    assert census_from_tom(tom, ModuleAction([g, extra])) == narrow


def test_swapped_generators_fail_the_prime_order_check(tmp_path, capsys):
    # S4 on its GF(3) permutation module: with the generator files swapped
    # every fixed dimension still shrinks along the marks, and the census
    # would read (2, 0, 0, 3, 0, 1, 0, 0, 0, 0, 3) instead of the one below;
    # the replayed generator of class 2 (order 2) has order 4
    group = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])])
    tom = compute_tom(group)
    mats = [_perm_matrix(PrimeField(3), g) for g in group.generators]
    assert census_from_tom(tom, ModuleAction(mats)).decomp == (0, 3, 0, 0, 3, 0, 0, 6, 0, 0, 3)
    with pytest.raises(ValueError, match=r"^class 2 has prime order 2 but a generator M with M\^2 != 1"):
        census_from_tom(tom, ModuleAction(mats[::-1]))
    tom_file = tmp_path / "s4.tom.json"
    tom_file.write_text(write_tom(tom))
    files = []
    for i, m in enumerate(mats, 1):
        files.append(tmp_path / f"g{i}.mtx")
        files[-1].write_text(write_meataxe(m))
    gens = ",".join(str(x) for x in files[::-1])
    code = main(["census", "tom", "--tom", str(tom_file), "--gens", gens, "--q", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "class 2 has prime order 2" in captured.err


# ---------------------------------------------------------------------------
# the split-table oracle against composing code permutations along words


def word_fixed_counts(group, action, classes):
    """Per-class fixed counts by composing generator permutations along words.

    Every dual vector is its base-q code, each dual generator a permutation
    of the q^d codes, and an element's permutation the composite along its
    word; a class fixes the codes that all its generators fix.
    """
    q, d = action.q, action.d
    weights = q ** np.arange(d, dtype=np.int64)
    codes = np.arange(q**d, dtype=np.int64)
    vectors = FFMatrix(action.field, q**d, d, codes[:, None] // weights % q)
    perms = [(vectors * m.transpose().inverse()).array @ weights for m in action.matrices]
    words = group.element_words()
    counts = []
    for c in classes:
        fixed = np.ones(q**d, dtype=bool)
        for g in c.generators:
            image = codes
            for k in words[g]:
                image = perms[k][image]
            fixed &= image == codes
        counts.append(int(fixed.sum()))
    return counts


def s3_on(field, d):
    """S3 on GF(q)^d: the sign on the first coordinate, trivial on the rest."""
    group, _ = pair_s3()
    signs = [(-1) ** sum(len(c) - 1 for c in g.cycles()) for g in group.generators]
    mats = []
    for s in signs:
        a = np.eye(d, dtype=np.int64)
        if d:
            a[0, 0] = s % field.p
        mats.append(FFMatrix(field, d, d, a))
    return group, ModuleAction(mats)


def a4_on_gf3_3():
    """A4 on its GF(3)^3 permutation module, less the trivial summand (d = 3)."""
    group = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(0, 1), (2, 3)])])
    f = PrimeField(3)
    # the permutation module on the sum-zero vectors e_i - e_3, i < 3
    mats = []
    for g in group.generators:
        rows = []
        for i in range(3):
            image = [0] * 4
            image[g(i)] += 1
            image[g(3)] -= 1
            rows.append([x % 3 for x in image[:3]])  # e_a - e_b = b_a - b_b, b_3 = 0
        mats.append(FFMatrix.from_rows(f, rows))
    return group, ModuleAction(mats)


SMALL_D = {
    "S3 on GF(3)^0": lambda: s3_on(PrimeField(3), 0),
    "S3 on GF(5)^1": lambda: s3_on(PrimeField(5), 1),
    "S3 on GF(2)^5": lambda: s3_on(PrimeField(2), 5),
    "S3 on GF(8)^1": lambda: s3_on(ExtField(2, 3), 1),
    "A4 on GF(3)^3": a4_on_gf3_3,
}
ORACLE_PAIRS = {name: (lambda g=group, a=action: (g, a)) for name, group, action in CORPUS}
ORACLE_PAIRS.update({"PSL(2,8) on GF(8)^3": psl2_8_natural, "PSL(2,9) on GF(9)^3": psl2_9_sym2,
                     "GL(3,2) on GF(2)^15": gl32_on_gf2_15, **SMALL_D})


@pytest.mark.parametrize("make", ORACLE_PAIRS.values(), ids=ORACLE_PAIRS.keys())
def test_split_table_fixed_counts_match_word_composition(make):
    group, action = make()
    classes = subgroup_classes(group)
    report = census_brute_force(group, action, classes=classes)
    assert list(report.fixed) == word_fixed_counts(group, action, classes)


@pytest.mark.parametrize("make", SMALL_D.values(), ids=SMALL_D.keys())
def test_split_table_census_matches_the_tom_route_for_small_d(make):
    group, action = make()
    classes = subgroup_classes(group)
    tom = compute_tom(group, classes=classes)
    assert census_brute_force(group, action, classes=classes) == census_from_tom(tom, action)
    assert census_brute_force(group, action).orbits == burnside_lemma_orbits(group, action)
