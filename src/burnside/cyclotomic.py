"""Exact cyclotomic-field arithmetic with canonical conductors.

A value lives in Q(zeta_n) as a rational coefficient vector on the power
basis {zeta_n^i : 0 <= i < phi(n)}, reduced modulo the n-th cyclotomic
polynomial, and every constructor lowers n to the conductor (rationals sit
at level 1), so equality of values is equality of stored data.  The level
descends one prime p of n = p*m at a time.  If p^2 | n, Phi_n(x) = Phi_m(x^p)
and the value lies in Q(zeta_m) when its coefficients vanish off the
exponents divisible by p.  If p || n, zeta_n^e = zeta_m^(e*u) * zeta_p^(e*v)
with u = 1/p mod m and v = 1/m mod p writes it as sum_j y_j zeta_p^j with y_j
in Q(zeta_m); it lies in Q(zeta_m) when y_1 = ... = y_(p-1), and is then
y_0 - y_1.  No level, of a sum or a product either, passes MAX_LEVEL.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "galois",
    "is_rational",
    "is_rational_integer",
    "multiplicative_order",
    "power",
    "zeta",
]

_ZERO = Fraction(0)

# a value of level n folds a list of length n; the bundled character tables
# use levels up to 13
MAX_LEVEL = 1000


def power(x, e, one, mul=operator.mul):
    """x^e for e >= 0 by square-and-multiply from x, so x^1 takes no product; one is x^0."""
    out = one if e == 0 else None
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with these bases is exact below _WITNESS_BOUND (Sorenson and
# Webster, Math. Comp. 86 (2017)), which covers every int64 field size
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n from _WITNESS_BOUND up.

    Past the bound the witnesses prove nothing, and trial division would not
    finish, so a ValueError is raised instead.
    """
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < _WITNESSES[-1] ** 2:
        return True
    if n >= _WITNESS_BOUND:
        raise ValueError(f"{n} is too large to test for primality")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def divisors(n: int) -> list:
    # linear in n, as multiplicative_order is; levels are at most MAX_LEVEL
    return [d for d in range(1, n + 1) if n % d == 0]


def multiplicative_order(a: int, n: int) -> int:
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    x = a % n
    order = 1
    while x != 1 % n:
        x = x * a % n
        order += 1
    return order


def _int_poly_div_exact(num, den):
    # den is monic; quotient is known to be exact and integral
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("level must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce(level, coeffs):
    """Fold a coefficient-by-exponent list into the power basis of level.

    The fold runs on integers over the common denominator of the list.
    """
    phi_poly = cyclotomic_polynomial(level)
    deg = len(phi_poly) - 1
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    ns = [c.numerator * (den // c.denominator) for c in cs] + [0] * (deg - len(cs))
    terms = [(j, a) for j, a in enumerate(phi_poly[:deg]) if a]
    for e in range(len(ns) - 1, deg - 1, -1):
        if c := ns[e]:
            for j, a in terms:
                ns[e - deg + j] -= c * a
    return tuple(Fraction(n, den) for n in ns[:deg])


def _apply_sigma(level, coeffs, k):
    full = [_ZERO] * level
    for e, c in enumerate(coeffs):
        if c:
            full[e * k % level] += c
    return _reduce(level, full)


def _solve_columns(cols, target):
    """Unique rational solution of sum_j x_j * cols[j] = target."""
    m = len(cols)
    d = len(target)
    aug = [[cols[j][i] for j in range(m)] + [Fraction(target[i])] for i in range(d)]
    where = [-1] * m
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, d) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(d):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        where[c] = r
        r += 1
    if any(row[m] for row in aug[r:]):
        raise ArithmeticError("inconsistent linear system")
    return [aug[where[c]][m] if where[c] >= 0 else _ZERO for c in range(m)]


def _descend(level, coeffs, p):
    """The coefficients at level/p of a value that lies in Q(zeta_(level/p)), else None."""
    m = level // p
    if m % p == 0:
        if any(c for e, c in enumerate(coeffs) if e % p):
            return None
        return coeffs[::p]
    u, v = pow(p, -1, m), pow(m, -1, p)
    parts = [[_ZERO] * m for _ in range(p)]
    for e, c in enumerate(coeffs):
        if c:
            parts[e * v % p][e * u % m] += c
    y1 = _reduce(m, parts[1])
    if any(_reduce(m, part) != y1 for part in parts[2:]):
        return None
    return tuple(a - b for a, b in zip(_reduce(m, parts[0]), y1))


def _minimize(level, coeffs):
    # a prime that cannot descend cannot after other primes have, so each is tried once
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    for p in prime_factors(level):
        while level % p == 0 and (down := _descend(level, coeffs, p)) is not None:
            level, coeffs = level // p, down
    return level, coeffs


def _check_level(level, name=None):
    """level, refused outside 1..MAX_LEVEL before a list of its length is built."""
    if not 1 <= level <= MAX_LEVEL:
        bound = "positive" if level < 1 else f"at most {MAX_LEVEL}"
        raise ValueError(f"{name or f'level {level}'} must be {bound}")
    return level


class Cyclotomic:
    """Element of a cyclotomic field in canonical (conductor-minimal) form.

    Cyclotomic(9, [0, 1]) is zeta_9; coefficients are indexed by exponent
    and may have any length, they are folded into the basis on the way in.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level=1, coeffs=(0,)):
        self._set(*_minimize(_check_level(level), _reduce(level, coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def _set(self, level, coeffs):
        # data already in canonical form, as for the images under -x and galois
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zeta(cls, n, e=1):
        _check_level(n, f"E({n}): level")
        e %= n
        vec = [0] * (e + 1)
        vec[e] = 1
        return cls(n, vec)

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, (Fraction(q),))

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    @property
    def rational_value(self) -> Fraction:
        if self.level != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
        return None

    def _lift(self, lv):
        step = lv // self.level
        full = [_ZERO] * lv
        for e, c in enumerate(self.coeffs):
            full[e * step] = c
        return full

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lv = _check_level(math.lcm(self.level, other.level))
        a = self._lift(lv)
        for e, c in enumerate(other._lift(lv)):
            a[e] += c
        return Cyclotomic(lv, a)

    __radd__ = __add__

    def __neg__(self):
        return object.__new__(Cyclotomic)._set(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lv = _check_level(math.lcm(self.level, other.level))
        s1 = lv // self.level
        s2 = lv // other.level
        full = [_ZERO] * lv
        for e1, c1 in enumerate(self.coeffs):
            if not c1:
                continue
            x1 = e1 * s1
            for e2, c2 in enumerate(other.coeffs):
                if c2:
                    full[(x1 + e2 * s2) % lv] += c1 * c2
        return Cyclotomic(lv, full)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        lv = self.level
        phi = len(self.coeffs)
        cols = []
        for j in range(phi):
            shifted = [_ZERO] * (lv + phi)
            for e, c in enumerate(self.coeffs):
                shifted[e + j] = c
            cols.append(_reduce(lv, shifted))
        target = [Fraction(1)] + [_ZERO] * (phi - 1)
        return Cyclotomic(lv, _solve_columns(cols, target))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, Cyclotomic.from_rational(1))

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        if self.level == 1:
            return hash(self.coeffs[0])
        return hash((self.level, self.coeffs))

    # -- display ------------------------------------------------------

    def __str__(self):
        if self.level == 1:
            return str(self.coeffs[0])
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
                continue
            base = f"E({self.level})" if e == 1 else f"E({self.level})^{e}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append("-" + base)
            else:
                parts.append(f"{c}*{base}")
        return parts[0] + "".join(t if t.startswith("-") else "+" + t for t in parts[1:])

    __repr__ = __str__


def zeta(n: int, e: int = 1) -> Cyclotomic:
    return Cyclotomic.zeta(n, e)


def galois(x: Cyclotomic, k: int) -> Cyclotomic:
    """Image of x under zeta -> zeta^k, for k coprime to the conductor.

    The image has the conductor of x, and _apply_sigma reduces its data.
    """
    if x.level == 1:
        return x
    if math.gcd(k, x.level) != 1:
        raise ValueError(f"{k} is not coprime to the conductor {x.level}")
    return object.__new__(Cyclotomic)._set(x.level, _apply_sigma(x.level, x.coeffs, k % x.level))


def is_rational(x: Cyclotomic) -> bool:
    return x.level == 1


def is_rational_integer(x: Cyclotomic) -> bool:
    return x.level == 1 and x.coeffs[0].denominator == 1
