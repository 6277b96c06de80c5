"""Cyclotomic arithmetic against hand values and a complex-float oracle.

The float oracle evaluates each value at the literal root of unity
exp(2*pi*i/n), a route with no shared code whatsoever.
"""

import cmath
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from burnside import cyclotomic
from burnside.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    galois,
    is_prime,
    is_rational,
    is_rational_integer,
    multiplicative_order,
    power,
    prime_factors,
    zeta,
)
from burnside.ffield import ExtField, FFMatrix, PrimeField
from burnside.formats import parse_cyclotomic
from burnside.permgroup import Perm


def as_complex(x: Cyclotomic) -> complex:
    root = cmath.exp(2j * cmath.pi / x.level)
    return sum(float(c) * root**e for e, c in enumerate(x.coeffs))


def random_value(rng, max_level=12):
    n = rng.randrange(1, max_level + 1)
    v = Cyclotomic.from_rational(rng.randrange(-3, 4))
    for _ in range(rng.randrange(0, 3)):
        v = v + rng.randrange(-2, 3) * zeta(n, rng.randrange(n))
    return v


def test_euler_phi_and_divisors():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 9) == 6
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_is_prime_agrees_with_trial_division():
    n = 10**5
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if prime_factors(k) == [k]]


def test_is_prime_near_int64():
    assert is_prime(2**61 - 1)
    assert is_prime(2**63 - 25)  # the largest prime below 2^63
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_product_of_all_cyclotomics_is_x_n_minus_one():
    for n in (6, 8, 9, 10, 12, 15):
        prod = [1]
        for d in divisors(n):
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_roots_of_unity_identities():
    assert zeta(4) ** 2 == -1
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert sum((zeta(5, e) for e in range(1, 5)), Cyclotomic()) == -1
    assert zeta(3) + zeta(3, 2) == -1
    assert (zeta(5) + zeta(5, 4)) * (zeta(5, 2) + zeta(5, 3)) == -1


def test_conductor_minimization():
    assert zeta(8, 2).level == 4
    assert zeta(12, 3).level == 4
    assert zeta(6).level == 3
    assert zeta(9, 3).level == 3
    assert (zeta(9) + zeta(9, 2) - zeta(9) + 1 - zeta(9, 2)).level == 1
    sqrt2 = zeta(8) - zeta(8, 3)
    assert sqrt2.level == 8
    assert sqrt2 * sqrt2 == 2
    b5 = zeta(5) + zeta(5, 4)
    assert (2 * b5 + 1) ** 2 == 5


def _int_reduce(n, coeffs):
    # integer coefficients by exponent folded modulo Phi_n, which is monic
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cs = list(coeffs) + [0] * max(0, deg - len(coeffs))
    for e in range(len(cs) - 1, deg - 1, -1):
        c, cs[e] = cs[e], 0
        for j in range(deg):
            cs[e - deg + j] -= c * phi[j]
    return cs[:deg]


def reference_conductor(n, coeffs):
    """The least f | n such that every unit k = 1 (mod f) fixes the value: zeta_n^e -> zeta_n^(ek)."""
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    for f in divisors(n):
        fixed = True
        for k in units:
            if k % f != 1 % f:
                continue
            image = [0] * n
            for e, c in enumerate(coeffs):
                image[e * k % n] += c
            if _int_reduce(n, image) != coeffs:
                fixed = False
                break
        if fixed:
            return f


def test_minimize_matches_the_fixed_field_rule(monkeypatch):
    # random integer values placed in a random subfield Q(zeta_f) of each level
    # n; the descent must find the reference conductor, and its coefficients
    # lifted back to level n must give the value again
    descents = set()
    descend = cyclotomic._descend

    def spy(level, coeffs, p):
        down = descend(level, coeffs, p)
        if down is not None:
            descents.add("p^2 | n" if level % (p * p) == 0 else "p || n")
        return down

    monkeypatch.setattr(cyclotomic, "_descend", spy)
    rng = random.Random(12)
    for n in range(1, 201):
        for _ in range(2):
            f = rng.choice(divisors(n))
            raw = [0] * n
            for _ in range(rng.randrange(1, 5)):
                raw[n // f * rng.randrange(f)] += rng.randrange(-3, 4)
            coeffs = _int_reduce(n, raw)
            level, reduced = cyclotomic._minimize(n, tuple(Fraction(c) for c in coeffs))
            assert level == reference_conductor(n, coeffs), (n, raw)
            assert len(reduced) == euler_phi(level)
            lifted = [0] * n
            for e, c in enumerate(reduced):
                lifted[n // level * e] = c
            assert _int_reduce(n, lifted) == coeffs, (n, raw)
    assert descents == {"p^2 | n", "p || n"}


def test_level_bound_covers_sums_and_products():
    assert (zeta(8) * zeta(125)).level == 1000 == cyclotomic.MAX_LEVEL
    assert (zeta(8) + zeta(125)).level == 1000
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(ValueError, match="level 1147 must be at most 1000"):
            op(zeta(31), zeta(37))
    for bad in (0, 1001):
        with pytest.raises(ValueError, match="level"):
            Cyclotomic(bad, [0, 1])
        with pytest.raises(ValueError, match=f"E\\({bad}\\): level"):
            zeta(bad)


def test_many_divisor_level_is_fast():
    # 840 = 2^3*3*5*7 has 32 divisors, each of which a unit scan would try
    start = time.perf_counter()
    x = parse_cyclotomic("E(840)^-1")
    assert time.perf_counter() - start < 1.0
    assert x.level == 840 and x == zeta(840, 839)


def _fraction_reduce(level, coeffs):
    # the fold on Fractions, one exponent at a time, that _reduce replaced
    phi_poly = cyclotomic_polynomial(level)
    deg = len(phi_poly) - 1
    cs = [Fraction(c) for c in coeffs]
    if len(cs) < deg:
        cs.extend(Fraction(0) for _ in range(deg - len(cs)))
    for e in range(len(cs) - 1, deg - 1, -1):
        c = cs[e]
        cs[e] = Fraction(0)
        if c:
            for j in range(deg):
                cs[e - deg + j] -= c * phi_poly[j]
    return tuple(cs[:deg])


def test_reduce_folds_integers_to_the_fraction_fold():
    # lists from empty to longer than n, of ints and Fractions with mixed
    # denominators
    rng = random.Random(27)
    for n in [*range(1, 201), 935]:
        coeffs = [
            rng.choice([0, rng.randrange(-9, 10), Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))])
            for _ in range(rng.randrange(0, n + 3))
        ]
        got = cyclotomic._reduce(n, coeffs)
        assert got == _fraction_reduce(n, coeffs), n
        assert all(type(c) is Fraction for c in got)
    assert zeta(935, -1) == Cyclotomic(935, _fraction_reduce(935, [0] * 934 + [1]))


def test_rational_predicates():
    three_halves = Cyclotomic.from_rational(Fraction(3, 2))
    assert is_rational(three_halves) and not is_rational_integer(three_halves)
    assert not is_rational(zeta(7) + zeta(7, 6))
    assert is_rational(zeta(3) + zeta(3, 2))
    assert is_rational_integer(Cyclotomic.from_rational(-4))
    assert three_halves.rational_value == Fraction(3, 2)
    with pytest.raises(ValueError):
        zeta(5).rational_value


def test_galois_on_seventh_root_sums():
    a = zeta(7, 2) + zeta(7, 3) + zeta(7, 4) + zeta(7, 5)
    c = zeta(7, 1) + zeta(7, 3) + zeta(7, 4) + zeta(7, 6)
    b = zeta(7, 1) + zeta(7, 2) + zeta(7, 5) + zeta(7, 6)
    assert galois(a, 2) == c
    assert galois(c, 2) == b
    assert galois(b, 2) == a
    fixed = zeta(7) + zeta(7, 2) + zeta(7, 4)
    assert galois(fixed, 2) == fixed
    with pytest.raises(ValueError):
        galois(zeta(6), 3)
    assert galois(Cyclotomic.from_rational(5), 9) == 5


def test_galois_fixed_by_all_iff_rational():
    rng = random.Random(11)
    for _ in range(25):
        x = random_value(rng)
        units = [k for k in range(1, x.level + 1) if math.gcd(k, x.level) == 1]
        all_fixed = all(galois(x, k) == x for k in units)
        assert all_fixed == is_rational(x)


def test_ring_laws_random():
    rng = random.Random(5)
    for _ in range(40):
        x, y, z = (random_value(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0


def test_galois_is_ring_homomorphism():
    rng = random.Random(6)
    for _ in range(20):
        x = random_value(rng, 9)
        y = random_value(rng, 9)
        lift = math.lcm(x.level, y.level)
        k = rng.choice([k for k in range(1, lift + 1) if math.gcd(k, lift) == 1])
        sx = galois(x, k % x.level if x.level > 1 else 1)
        sy = galois(y, k % y.level if y.level > 1 else 1)
        s_sum = x + y
        s_prod = x * y
        assert galois(s_sum, k % s_sum.level if s_sum.level > 1 else 1) == sx + sy
        assert galois(s_prod, k % s_prod.level if s_prod.level > 1 else 1) == sx * sy


def test_float_oracle():
    rng = random.Random(7)
    for _ in range(30):
        x = random_value(rng)
        y = random_value(rng)
        assert abs(as_complex(x + y) - (as_complex(x) + as_complex(y))) < 1e-9
        assert abs(as_complex(x * y) - as_complex(x) * as_complex(y)) < 1e-9
    assert abs(as_complex(zeta(9)) - cmath.exp(2j * cmath.pi / 9)) < 1e-12


def test_inverse_and_division():
    rng = random.Random(8)
    seen = 0
    while seen < 15:
        x = random_value(rng)
        if not x:
            continue
        seen += 1
        assert x * x.inverse() == 1
        assert (x / x) == 1
    assert zeta(5) ** -1 == zeta(5, 4)
    assert 1 / zeta(8) == zeta(8, 7)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic().inverse()


def test_canonicalization_idempotent():
    rng = random.Random(9)
    for _ in range(25):
        x = random_value(rng)
        again = Cyclotomic(x.level, x.coeffs)
        assert again.level == x.level and again.coeffs == x.coeffs


def test_equality_and_hash_with_rationals():
    assert Cyclotomic.from_rational(3) == 3
    assert hash(Cyclotomic.from_rational(3)) == hash(3)
    assert zeta(3) != zeta(9)
    d = {zeta(3) + zeta(3, 2): "minus one"}
    assert d[Cyclotomic.from_rational(-1)] == "minus one"


def test_immutability():
    x = zeta(5)
    with pytest.raises(AttributeError):
        x.level = 7


def test_string_forms():
    assert str(zeta(9)) == "E(9)"
    assert str(zeta(9, 2)) == "E(9)^2"
    assert str(-zeta(9)) == "-E(9)"
    assert str(zeta(3) + zeta(3, 2)) == "-1"
    assert str(Cyclotomic.from_rational(Fraction(3, 2))) == "3/2"
    assert str(Fraction(1, 2) * zeta(5, 2)) == "1/2*E(5)^2"
    assert str(1 + zeta(7) - zeta(7, 3)) == "1+E(7)-E(7)^3"


def test_power_is_repeated_multiplication():
    # power behind Perm, FFMatrix and Cyclotomic ** and ExtField.pow, e in -20..20
    f9 = ExtField(3, 2)
    perm = Perm.from_cycles(7, [(0, 1, 2), (3, 4, 5, 6)])
    mat = FFMatrix.from_rows(PrimeField(3), [[1, 1, 0], [0, 1, 2], [2, 0, 1]])
    cyc = zeta(5) + 2
    cases = [
        (perm, perm.inverse(), Perm.identity(7), operator.mul, operator.pow),
        (mat, mat.inverse(), FFMatrix.identity(mat.field, 3), operator.mul, operator.pow),
        (cyc, cyc.inverse(), Cyclotomic.from_rational(1), operator.mul, operator.pow),
        (5, f9.inv(5), 1, f9.mul, f9.pow),
    ]
    for x, x_inv, one, mul, pw in cases:
        for base, sign in ((x, 1), (x_inv, -1)):
            acc = one
            for e in range(21):
                assert power(base, e, one, mul) == acc
                assert pw(x, sign * e) == acc
                acc = mul(acc, base)
