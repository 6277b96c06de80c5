"""Straight-line program construction and evaluation."""

import random
import tracemalloc
import weakref

import pytest

from burnside import slp
from burnside.ffield import ExtField, FFMatrix, PrimeField
from burnside.permgroup import Perm
from burnside.slp import MUL, POW, SLProgram, evaluate

GF3 = PrimeField(3)


def random_invertible(field, n, rng):
    while True:
        m = FFMatrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if m.is_invertible():
            return m


def test_identity_program():
    prog = SLProgram(1, (), (1,))
    a = FFMatrix.from_rows(GF3, [[1, 2], [0, 1]])
    assert evaluate(prog, [a]) == [a]


def test_product_program_on_perms():
    prog = SLProgram(2, ((3, MUL, 1, 2),), (3,))
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(1, 2)])
    assert evaluate(prog, [a, b]) == [a * b]


def test_inverse_then_product_program():
    prog = SLProgram(2, ((3, POW, 1, -1), (4, MUL, 3, 2)), (4,))
    rng = random.Random(0)
    a = random_invertible(GF3, 2, rng)
    b = random_invertible(GF3, 2, rng)
    assert evaluate(prog, [a, b]) == [a.inverse() * b]


def test_pow_zero_gives_identity():
    prog = SLProgram(1, ((2, POW, 1, 0),), (2,))
    a = random_invertible(GF3, 3, random.Random(1))
    assert evaluate(prog, [a]) == [FFMatrix.identity(GF3, 3)]
    p = Perm.from_cycles(4, [(0, 1, 2, 3)])
    assert evaluate(prog, [p]) == [Perm.identity(4)]


def test_pow_matches_repeated_mul_and_inverse():
    rng = random.Random(2)
    a = random_invertible(GF3, 2, rng)
    acc = FFMatrix.identity(GF3, 2)
    for e in range(9):
        prog = SLProgram(1, ((2, POW, 1, e),), (2,))
        assert evaluate(prog, [a]) == [acc]
        neg = SLProgram(1, ((2, POW, 1, -e),), (2,))
        assert evaluate(neg, [a]) == [acc.inverse()]
        acc = acc * a


def test_empty_returns_encode_trivial_subgroup():
    prog = SLProgram(2, (), ())
    assert evaluate(prog, [Perm.identity(2), Perm.identity(2)]) == []


def test_evaluate_distributes_over_conjugation():
    rng = random.Random(3)
    prog = SLProgram(
        2,
        ((3, MUL, 1, 2), (4, POW, 2, -1), (5, MUL, 4, 3), (6, POW, 5, 3)),
        (3, 6),
    )
    for _ in range(10):
        x1 = random_invertible(GF3, 3, rng)
        x2 = random_invertible(GF3, 3, rng)
        g = random_invertible(GF3, 3, rng)
        ginv = g.inverse()
        base = evaluate(prog, [x1, x2])
        conj = evaluate(prog, [ginv * x1 * g, ginv * x2 * g])
        assert conj == [ginv * r * g for r in base]


def test_validation_errors():
    with pytest.raises(ValueError):
        SLProgram(1, ((3, MUL, 1, 2),), (3,))  # r2 never defined
    with pytest.raises(ValueError):
        SLProgram(1, (), (2,))  # returned slot undefined
    with pytest.raises(ValueError):
        SLProgram(1, ((10_001, POW, 1, -1),), (1,))  # slot cap
    with pytest.raises(ValueError):
        SLProgram(0, (), ())
    with pytest.raises(ValueError):
        SLProgram(1, ((2, "NOP", 1),), (1,))
    with pytest.raises(ValueError):  # a product needs two operands
        SLProgram(2, ((3, MUL, 1),), (3,))
    with pytest.raises(ValueError):  # a power needs its exponent, an inverse too
        SLProgram(1, ((2, POW, 1),), (2,))
    with pytest.raises(ValueError, match="unknown opcode 'INV'"):  # an inverse is POW -1
        SLProgram(1, ((2, "INV", 1),), (2,))


def test_inputs_past_max_slots_are_refused_before_the_slot_set():
    # inputs occupy r1..rM, so a program reads at most MAX_SLOTS of them;
    # the refusal comes before a set of 10^8 slots is built
    SLProgram(slp.MAX_SLOTS, (), (slp.MAX_SLOTS,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^input slot r100000000 outside 1\.\.10000$"):
            SLProgram(100_000_000, (), ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("statement,slot", [
    ((3, MUL, 4, 1), 4), ((3, MUL, 1, 4), 4), ((3, MUL, 5, 4), 5), ((3, POW, 4, -1), 4), ((3, POW, 4, 2), 4),
])
def test_validation_names_the_first_undefined_operand(statement, slot):
    with pytest.raises(ValueError, match=f"^slot r{slot} used before definition$"):
        SLProgram(2, (statement,), (3,))


def test_overwriting_slots_is_allowed():
    prog = SLProgram(2, ((1, MUL, 1, 2), (1, MUL, 1, 2)), (1,))
    a = Perm.from_cycles(3, [(0, 1, 2)])
    b = Perm.from_cycles(3, [(0, 1)])
    assert evaluate(prog, [a, b]) == [a * b * b]


def test_evaluate_without_products_keeps_only_the_live_slots():
    # r3 = r1 * r2, then r3 = r3 * r1 a thousand times: without a dict each
    # overwritten slot frees its matrix, so the peak is a few matrices
    rng = random.Random(47)
    a, b = (random_invertible(GF3, 32, rng) for _ in range(2))
    prog = SLProgram(2, ((3, MUL, 1, 2),) + ((3, MUL, 3, 1),) * 1000, (3,))
    tracemalloc.start()
    try:
        one = a * b
        size = tracemalloc.get_traced_memory()[0]
        del one
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        evaluate(prog, [a, b])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * size


def test_carrier_mismatch():
    prog = SLProgram(2, ((3, MUL, 1, 2),), (3,))
    with pytest.raises(ValueError):
        evaluate(prog, [Perm.identity(3), FFMatrix.identity(GF3, 3)])
    with pytest.raises(ValueError):
        evaluate(prog, [Perm.identity(3), Perm.identity(4)])
    with pytest.raises(ValueError):
        evaluate(prog, [FFMatrix.identity(GF3, 2), FFMatrix.identity(GF3, 3)])
    with pytest.raises(ValueError):
        evaluate(prog, [FFMatrix.identity(GF3, 2), FFMatrix.identity(PrimeField(2), 2)])
    with pytest.raises(ValueError):
        evaluate(prog, [Perm.identity(3)])


def test_from_words():
    prog = SLProgram.from_words(2, [(1, 2, 1), (2,)])
    a = Perm.from_cycles(3, [(0, 1, 2)])
    b = Perm.from_cycles(3, [(0, 1)])
    assert evaluate(prog, [a, b]) == [a * b * a, b]
    trivial = SLProgram.from_words(2, [])
    assert trivial.returns == ()


# ---------------------------------------------------------- shared products


# the first two programs share r1*r2 and its inverse; the third overwrites
# input slot r1 with r1*r2 and then overwrites that slot again
SHARED_CASES = (
    SLProgram(2, ((3, MUL, 1, 2), (4, POW, 3, -1), (5, POW, 4, 3)), (5, 3)),
    SLProgram(2, ((3, MUL, 1, 2), (4, POW, 3, -1), (5, MUL, 4, 1)), (5,)),
    SLProgram(2, ((1, MUL, 1, 2), (1, POW, 1, -2), (3, MUL, 2, 1)), (3, 1, 2)),
    SLProgram(2, (), ()),
    SLProgram(2, ((3, POW, 2, 0),), (3, 3)),
)


def shared_carriers():
    rng = random.Random(41)
    yield [Perm.from_cycles(5, [(0, 1, 2, 3, 4)]), Perm.from_cycles(5, [(0, 1)])]
    for f in (PrimeField(2), GF3, ExtField(2, 2)):
        yield [random_invertible(f, 3, rng) for _ in range(2)]


@pytest.mark.parametrize("inputs", list(shared_carriers()), ids=["perm", "gf2", "gf3", "gf4"])
def test_shared_products_give_each_programs_returns(inputs):
    alone = [evaluate(p, inputs) for p in SHARED_CASES]
    products = {}
    assert [evaluate(p, inputs, products) for p in SHARED_CASES] == alone
    # r1*r2, its inverse, the cube and the product with r1 of that inverse,
    # (r1*r2)^-2 and r2 times it, and r2^0
    assert len(products) == 7
    assert alone[3] == []


def test_shared_products_compute_a_shared_product_once(monkeypatch):
    rng = random.Random(43)
    a, b = (random_invertible(GF3, 3, rng) for _ in range(2))
    expected = [[a * b * a], [a * b * b, a * b]]
    words = SLProgram.from_words(2, [(1, 2, 1)]), SLProgram.from_words(2, [(1, 2, 2), (1, 2)])
    calls = []
    mul = FFMatrix.__mul__
    monkeypatch.setattr(FFMatrix, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    products = {}
    assert [evaluate(p, [a, b], products) for p in words] == expected
    # r1*r2 once, then *r1 and *r2
    assert len(calls) == 3
    again = [evaluate(p, [a, b], products) for p in words]
    assert len(calls) == 3
    assert again == expected


def test_an_inverse_and_the_power_minus_one_are_one_product():
    # an inverse is the power -1, so two inverses of one slot share a product
    prog = SLProgram(1, ((2, POW, 1, -1), (3, POW, 1, -1)), (2, 3))
    a = random_invertible(GF3, 3, random.Random(53))
    products = {}
    out = evaluate(prog, [a], products)
    assert out == [a.inverse(), a.inverse()]
    assert out[0] is out[1] and len(products) == 1


class Mod7:
    """Units mod 7: a carrier that can be weakly referenced."""

    __slots__ = ("v", "__weakref__")

    def __init__(self, v):
        self.v = v % 7

    def __mul__(self, other):
        return Mod7(self.v * other.v)

    def __pow__(self, e):
        return Mod7(pow(self.v, e, 7))

    def __eq__(self, other):
        return self.v == other.v


def test_shared_products_hold_their_operands():
    # a key holds operand ids, which a freed object gives back for reuse:
    # the dict keeps every operand alive for as long as it lives
    prog = SLProgram(2, ((3, MUL, 1, 2), (4, POW, 3, -1)), (3, 4))
    products = {}
    a, b = Mod7(2), Mod7(3)
    assert evaluate(prog, [a, b], products) == [Mod7(6), Mod7(6)]
    refs = [weakref.ref(a), weakref.ref(b)]
    del a, b
    assert all(ref() is not None for ref in refs)
    del products
    assert all(ref() is None for ref in refs)
