"""Field and matrix arithmetic against independent oracles.

The multiply oracle below is a deliberately naive triple loop over field ops,
kept separate from the production paths (numpy arrays for prime fields, and
the blow-up to GF(p) for extension fields) so the two never share code.
"""

import itertools
import random
import time
from importlib.resources import files

import numpy as np
import pytest

from burnside import ffield
from burnside.cli import main
from burnside.ffield import (
    ExtField,
    FFMatrix,
    PrimeField,
    _blow_down,
    blow_up,
    default_modulus,
    matmul_mod,
    norm,
    row_echelon,
)
from burnside.formats import parse_meataxe, write_ext_matrix, write_meataxe

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF4 = ExtField(2, 2)
GF7 = PrimeField(7)
GF8 = ExtField(2, 3)
GF9 = ExtField(3, 2)
GF2_16 = ExtField(2, 16)
GF3_7 = ExtField(3, 7)


def mul_oracle(a, b):
    """Reference product: plain scalar loops, no packing, no numpy."""
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero
            for t in range(a.cols):
                acc = f.add(acc, f.mul(a[i, t], b[t, j]))
            out.append(acc)
    return FFMatrix(f, a.rows, b.cols, out)


def det(m):
    """Determinant by scalar Gaussian elimination, with no blow-up."""
    f = m.field
    n = m.rows
    rows = m.to_rows()
    out = f.one
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != f.zero), None)
        if piv is None:
            return f.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = f.neg(out)
        pval = rows[col][col]
        out = f.mul(out, pval)
        pinv = f.inv(pval)
        for i in range(col + 1, n):
            factor = rows[i][col]
            if factor != f.zero:
                scale = f.mul(factor, pinv)
                rows[i] = [f.sub(x, f.mul(scale, y)) for x, y in zip(rows[i], rows[col])]
    return out


def random_matrix(field, rows, cols, rng):
    return FFMatrix(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def gf2_stack(rng):
    """[g1 | g2 | g3] at GF(2)^28 with each g of rank <= 3: a wide 28 x 84
    matrix whose left nullspace has dimension at least 19, the common left
    nullspace of three blocks of low rank."""
    blocks = [mul_oracle(random_matrix(GF2, 28, 3, rng), random_matrix(GF2, 3, 28, rng))
              for _ in range(3)]
    return FFMatrix.from_rows(GF2, [sum((b.to_rows()[i] for b in blocks), []) for i in range(28)])


# ---------------------------------------------------------------------------
# fields


def test_prime_field_rejects_composites():
    for n in (0, 1, 4, 9, 12):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_ops():
    f = GF5
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2
    assert f.pow(2, -1) == 3


def test_default_modulus_small_fields():
    assert default_modulus(2, 2) == (1, 1, 1)  # x^2+x+1
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2+1
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)


def test_fields_are_equal_by_p_k_and_modulus():
    # PrimeField(p) is the degree-1 field
    for p in (2, 3, 5, 7, 2**61 - 1):
        f, g = PrimeField(p), ExtField(p, 1)
        assert f == g and g == f and hash(f) == hash(g)
        assert repr(f) == f"GF({p})"
    assert PrimeField(3) != ExtField(3, 2) and PrimeField(3) != PrimeField(5)
    # another modulus encodes the scalars another way, except at degree 1,
    # where the modulus x + c changes only the root gen
    assert ExtField(2, 3) == ExtField(2, 3, (1, 1, 0, 1)) != ExtField(2, 3, (1, 0, 1, 1))
    for c in range(3):
        f = ExtField(3, 1, (c, 1))
        assert f == PrimeField(3) and hash(f) == hash(PrimeField(3)) and f.gen == -c % 3


def test_encode_is_from_coeffs_of_each_list():
    rng = random.Random(41)
    for f in (GF2, GF4, GF9, GF3_7, ExtField(2**31 - 1, 2)):
        entries = [[rng.randrange(-(2**70), 2**70) for _ in range(rng.randrange(f.k + 1))] for _ in range(30)]
        assert f.encode(entries).tolist() == [f.from_coeffs(c) for c in entries]
        assert f.encode([[]] * 3).tolist() == [0, 0, 0] and f.encode([]).tolist() == []
        with pytest.raises(ValueError, match="too many coefficients"):
            f.encode([[1]] * 2 + [[0] * (f.k + 1)])


def poly_mul(a, b, p):
    """Product over GF(p) of two polynomials given as ascending coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def monic(p, k):
    """Every monic polynomial of degree k over GF(p)."""
    return [c + (1,) for c in itertools.product(range(p), repeat=k)]


def mobius(n):
    """The Moebius function mu(n), by trial division."""
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


SMALL_PRIMES = [n for n in range(2, 626) if all(n % d for d in range(2, int(n**0.5) + 1))]
SMALL_FIELDS = [(p, k) for p in SMALL_PRIMES for k in range(1, 10) if p**k <= 625]


@pytest.mark.parametrize("p,k", SMALL_FIELDS, ids=[f"{p}^{k}" for p, k in SMALL_FIELDS])
def test_companion_matrix_test_accepts_exactly_the_irreducibles(p, k):
    # the oracles: every product of two monic polynomials of lower degree,
    # and Gauss's count (1/k) * sum over d | k of mu(d) p^(k/d)
    reducible = {poly_mul(a, b, p) for d in range(1, k // 2 + 1) for a in monic(p, d) for b in monic(p, k - d)}
    accepted = []
    for f in monic(p, k):
        try:
            ExtField(p, k, f)
        except ValueError as exc:
            assert "reducible" in str(exc)
        else:
            accepted.append(f)
    assert set(accepted) == set(monic(p, k)) - reducible
    assert k * len(accepted) == sum(mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert default_modulus(p, k) == min(accepted, key=lambda f: sum(c * p**i for i, c in enumerate(f)))


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        ExtField(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        ExtField(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        ExtField(2, 17)


def test_ext_field_axioms_exhaustive():
    for f in (GF4, GF8, ExtField(3, 2), ExtField(5, 2)):
        els = list(f.elements())
        for a in els:
            assert f.add(a, f.zero) == a
            assert f.mul(a, f.one) == a
            assert f.add(a, f.neg(a)) == f.zero
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
        rng = random.Random(1)
        for _ in range(200):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_gf4_multiplication_table():
    # z = 2, z+1 = 3 with z^2 = z+1 from x^2+x+1
    z = GF4.gen
    assert z == 2
    assert GF4.mul(z, z) == 3
    assert GF4.mul(z, 3) == 1  # z*(z+1) = z^2+z = 1
    assert GF4.add(z, GF4.one) == 3


def test_frobenius_trivial_cases():
    assert GF4.frobenius(0) == 0
    assert GF4.frobenius(1) == 1


def test_frobenius_gf4_generator():
    # z^2 = z+1 from the modulus
    assert GF4.frobenius(GF4.gen) == 3


def test_frobenius_order_k():
    for f in (GF4, GF8, ExtField(3, 3)):
        for a in f.elements():
            x = a
            for _ in range(f.k):
                x = f.frobenius(x)
            assert x == a


def test_frobenius_is_additive_and_multiplicative():
    f = GF8
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


# ---------------------------------------------------------------------------
# matrix representation


def test_public_representation_contract():
    m = FFMatrix.from_rows(GF5, [[1, 4], [0, 2]])
    for x in (m[0, 1], *m.row(1), *m.to_rows()[0], *m.entries):
        assert type(x) is int
    assert m.entries == (1, 4, 0, 2)
    assert repr(m) == "FFMatrix(GF(5), [[1, 4], [0, 2]])"
    with pytest.raises(ValueError):
        m.array[0, 0] = 3
    with pytest.raises(ValueError):
        m.transpose().array[0, 0] = 3
    # equal matrices from different routes collapse in one set
    swap = FFMatrix.from_rows(GF3, [[0, 1], [1, 0]])
    same = [
        FFMatrix.from_rows(GF3, [[1, 0], [0, 1]]),
        swap * swap,
        FFMatrix.identity(GF3, 2),
        parse_meataxe("1 3 2 2\n10\n01\n"),
    ]
    z = GF9.gen
    a = FFMatrix.from_rows(GF9, [[z, 1], [0, 2]])
    same_ext = [
        a,
        _blow_down(GF9, blow_up(a)),
        FFMatrix.from_rows(GF9, [[1, 2], [0, 1]]) * FFMatrix.from_rows(GF9, [[z, 0], [0, 2]]),
    ]
    for group in (same, same_ext):
        assert len(set(group)) == 1
        assert len({hash(x) for x in group}) == 1
    assert same[0] != FFMatrix.from_rows(GF5, [[1, 0], [0, 1]])


def test_unrepresentable_fields_are_refused_at_construction():
    # q >= 2^63 does not fit int64; refused before the primality and Rabin tests
    with pytest.raises(ValueError, match=r"GF\(4294967311\^2\) is too large: its scalars do not fit int64"):
        ExtField(4294967311, 2)
    huge = (2**61 - 1) ** 2  # past the exact range of is_prime
    with pytest.raises(ValueError, match=rf"GF\({huge}\) is too large"):
        PrimeField(huge)


# ---------------------------------------------------------------------------
# matrix product


def test_identity_times_matrix():
    rng = random.Random(7)
    for f in (GF2, GF3, GF4):
        m = random_matrix(f, 3, 3, rng)
        eye = FFMatrix.identity(f, 3)
        assert eye * m == m
        assert m * eye == m


def test_gf2_hand_product():
    a = FFMatrix.from_rows(GF2, [[1, 1], [0, 1]])
    b = FFMatrix.from_rows(GF2, [[1, 0], [1, 1]])
    assert a * b == FFMatrix.from_rows(GF2, [[0, 1], [1, 1]])


def test_product_matches_scalar_oracle():
    rng = random.Random(11)
    cases = [(f, 4, 3, 5, 25) for f in (GF2, GF3, GF5, GF7, GF4, GF8, GF9)] + [(GF4, 14, 14, 14, 3)]
    for f, r, t, c, count in cases:
        for _ in range(count):
            a = random_matrix(f, r, t, rng)
            b = random_matrix(f, t, c, rng)
            assert a * b == mul_oracle(a, b)


def test_associativity_random_gf3():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(GF3, 5, 5, rng)
        b = random_matrix(GF3, 5, 5, rng)
        c = random_matrix(GF3, 5, 5, rng)
        lhs = mul_oracle(mul_oracle(a, b), c)
        assert (a * b) * c == lhs
        assert a * (b * c) == lhs


def test_fields_of_primes_near_int64_construct_at_once():
    start = time.monotonic()
    assert PrimeField(2**63 - 25).q == 2**63 - 25
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3825123056546413051)
    assert time.monotonic() - start < 1.0


def test_large_primes_are_refused_not_wrapped():
    p = 4294967311  # (p-1)^2 overflows int64
    m = FFMatrix.from_rows(PrimeField(p), [[p - 1, 2], [3, p - 2]])
    for op in (lambda: m * m, m.nullspace, m.inverse, m.rank):
        with pytest.raises(ValueError, match="too large"):
            op()


def int_product_oracle(a, b):
    """a @ b by Python-int sums over nested lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# (p, inner) on both sides of inner * (p-1)^2 = 2^53, where matmul_mod leaves
# float64 for int64; 33554393 is the largest prime below 2^25.  Past 2^53
# float64 would round the largest sums, so an exact answer shows the int64
# side; with p = 2^31 - 1 three products already pass 2^63, so inner 3 and
# 40 are added over runs of the inner axis.
@pytest.mark.parametrize("p,inner", [
    (2, 1), (2, 29), (3, 200), (5, 7), (33554393, 8), (33554393, 9), (33554393, 40),
    (2**31 - 1, 1), (2**31 - 1, 2), (2**31 - 1, 3), (2**31 - 1, 40),
])
def test_exact_product_matches_python_ints(p, inner):
    rng = random.Random(p * 1000 + inner)
    # entries run from -(p-1) to p-1, the extremes included, as census
    # passes a difference of two residue matrices
    pick = lambda: rng.choice([-(p - 1), p - 1, 0, 1, -1, rng.randrange(-(p - 1), p)])
    for rows, cols in ((1, 1), (3, 5), (6, 2)):
        a = [[pick() for _ in range(inner)] for _ in range(rows)]
        b = [[pick() for _ in range(cols)] for _ in range(inner)]
        a[0] = [p - 1] * inner  # the largest sum, where float64 would round past 2^53
        b = [[p - 1] + row[1:] for row in b]
        want = int_product_oracle(a, b)
        x, y = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert matmul_mod(x, y, p).tolist() == [[v % p for v in row] for row in want]


def test_exact_product_broadcasts_and_refuses_int64_overflow():
    rng = np.random.default_rng(7)
    a, b = rng.integers(-4, 5, (3, 4, 5)), rng.integers(-4, 5, (5, 2))
    assert (matmul_mod(a, b, 5) == np.stack([(m @ b) % 5 for m in a])).all()
    p = 2**31 - 1
    a, b = rng.integers(-(p - 1), p, (3, 4, 7)), rng.integers(-(p - 1), p, (7, 2))
    want = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in m] for m in a]
    assert matmul_mod(a, b, p).tolist() == want
    p = 4294967311  # (p-1)^2 >= 2^63: not even one product fits int64
    x = np.full((1, 1), p - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="too large"):
        matmul_mod(x, x, p)


def test_product_shape_and_field_errors():
    a = FFMatrix.identity(GF2, 2)
    b = FFMatrix.identity(GF2, 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a * FFMatrix.identity(GF3, 2)


# ---------------------------------------------------------------------------
# nullspace / rank / inverse


def basis_rows(basis):
    """The rows of a nullspace matrix as tuples of ints."""
    return [basis.row(i) for i in range(basis.rows)]


def test_nullspace_zero_matrix():
    for f in (GF2, GF3, GF4, GF9):
        assert FFMatrix.zero(f, 3, 2).nullspace() == FFMatrix.identity(f, 3)


def test_nullspace_invertible_matrix_empty():
    z4, z9 = GF4.gen, GF9.gen
    cases = [
        FFMatrix.from_rows(GF3, [[1, 2], [0, 1]]),
        FFMatrix.from_rows(GF4, [[z4, 1], [0, z4]]),
        FFMatrix.from_rows(GF9, [[z9, 1, 0], [0, z9, 2], [1, 0, 1]]),
    ]
    assert all(m.is_invertible() for m in cases)
    cases += [FFMatrix.zero(f, 0, c) for f in (GF2, GF4, GF9) for c in (0, 3)]
    for m in cases:
        assert m.nullspace() == FFMatrix.zero(m.field, 0, m.rows)


def test_nullspace_gf2_ones_matrix():
    # frozen from enumerating all 4 row vectors v with v*m = 0
    m = FFMatrix.from_rows(GF2, [[1, 1], [1, 1]])
    assert m.nullspace() == FFMatrix.from_rows(GF2, [[1, 1]])


def nullspace_oracle(m):
    """Enumerate every row vector over small fields and test v*m = 0."""
    f = m.field
    vecs = []
    for code in range(f.q**m.rows):
        v = []
        x = code
        for _ in range(m.rows):
            v.append(x % f.q)
            x //= f.q
        prod = [f.zero] * m.cols
        for i, vi in enumerate(v):
            for j in range(m.cols):
                prod[j] = f.add(prod[j], f.mul(vi, m[i, j]))
        if all(x == f.zero for x in prod):
            vecs.append(tuple(v))
    return vecs


def test_nullspace_members_and_dimension_match_enumeration():
    rng = random.Random(23)
    for f in (GF2, GF3, GF7, GF4, GF9):
        for _ in range(12):
            m = random_matrix(f, 3, 3, rng)
            basis = m.nullspace()
            all_null = set(nullspace_oracle(m))
            assert f.q**basis.rows == len(all_null)
            assert set(basis_rows(basis)) <= all_null


def is_rref(basis, field):
    """Leading entries 1, strictly moving right, alone in their columns."""
    leads = []
    for v in basis:
        lead = next((j for j, x in enumerate(v) if x != field.zero), None)
        if lead is None or v[lead] != field.one:
            return False
        leads.append(lead)
    if leads != sorted(set(leads)):
        return False
    return all(w[lead] == field.zero for lead, v in zip(leads, basis) for w in basis if w is not v)


def test_nullspace_basis_is_rref():
    rng = random.Random(31)
    cases = []
    for f in (GF2, GF3, GF7, GF4, GF8, GF9):
        for _ in range(20):
            r, c = rng.randrange(1, 7), rng.randrange(1, 5)
            # a product of thin factors has a large nullspace
            t = rng.randrange(1, 3)
            cases.append((mul_oracle(random_matrix(f, r, t, rng), random_matrix(f, t, c, rng)), t))
    cases.append((gf2_stack(rng), 9))
    for m, t in cases:
        basis = m.nullspace()
        assert basis.rows >= m.rows - t
        assert is_rref(basis_rows(basis), m.field)
        assert mul_oracle(basis, m) == FFMatrix.zero(m.field, basis.rows, m.cols)


def test_nullspace_tall_and_very_wide_match_enumeration():
    rng = random.Random(37)
    for f in (GF2, GF3, GF7, GF4, GF9):
        # tall: more rows than columns; very wide: at least 4 columns per row
        rows = 4 if f.q < 9 else 3
        for r, c in ((rows, 2), (rows, 1), (2, 8), (3, 12), (1, 5)):
            for thin in (False, True):
                if thin:
                    m = mul_oracle(random_matrix(f, r, 1, rng), random_matrix(f, 1, c, rng))
                else:
                    m = random_matrix(f, r, c, rng)
                basis = basis_rows(m.nullspace())
                all_null = set(nullspace_oracle(m))
                assert f.q ** len(basis) == len(all_null)
                assert set(basis) <= all_null
                assert is_rref(basis, f)


def test_row_echelon_is_one_pass_rref():
    rng = random.Random(43)
    for f in (GF2, GF3, GF5, GF7):
        p = f.p
        cases = [FFMatrix.zero(f, 4, 6), FFMatrix.identity(f, 5)]
        for r, c in ((12, 3), (3, 12), (6, 6), (1, 7), (7, 1)):
            cases.append(random_matrix(f, r, c, rng))
            cases.append(mul_oracle(random_matrix(f, r, 2, rng), random_matrix(f, 2, c, rng)))
        while len(cases) < 16:  # full rank
            m = random_matrix(f, 4, 4, rng)
            if m.is_invertible():
                cases.append(m)
        for m in cases:
            a = m.array.copy()
            e, pivots = row_echelon(a, p)
            assert (a == m.array).all()  # the input is not touched
            rank = len(pivots)
            rows = [tuple(row) for row in e.tolist()]
            assert is_rref(rows[:rank], f)
            assert not any(any(row) for row in rows[rank:])
            assert pivots == [next(j for j, x in enumerate(row) if x) for row in rows[:rank]]
            # same row space: m and e stacked have the rank of e
            stacked = FFMatrix(f, 2 * m.rows, m.cols, list(m.entries) + [x for row in rows for x in row])
            assert len(row_echelon(stacked.array, p)[1]) == rank


def gauss_jordan(a, p):
    """Reference RREF over GF(p): lists of residues, the textbook column loop."""
    rows = [[x % p for x in row] for row in a.tolist()]
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        s = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if s is None:
            continue
        rows[r], rows[s] = rows[s], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                t = rows[i][c]
                rows[i] = [(x - t * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def assert_matches_gauss_jordan(m, p):
    m = m.astype(np.int64)
    before = m.copy()
    e, pivots = row_echelon(m, p)
    assert (m == before).all()
    rows, ref = gauss_jordan(m, p)
    assert pivots == ref
    assert e.dtype == np.int64 and e.shape == m.shape
    assert e.tolist() == rows
    return len(pivots)


def test_gf2_packed_rows_match_gauss_jordan():
    # widths inside one byte, at and past byte, 62-column chunk and 64-bit
    # word edges, and over two chunks, some of them not a whole number of
    # bytes when unpacked; entries are any ints of the right parity
    rng = np.random.default_rng(27)
    cases = [np.zeros((0, 5), np.int64), np.zeros((5, 0), np.int64), np.zeros((0, 0), np.int64),
             np.array([[1]]), np.array([[-2]]), np.array([[-3]])]
    for w in (1, 7, 8, 9, 61, 62, 63, 64, 65, 66, 84, 124, 125, 130):
        for rows in (1, w // 3 + 1, w, w + 5):  # wide, square and tall
            cases.append(rng.integers(0, 2, (rows, w)))
            for t in (1, w // 4 + 1):  # rank at most t
                cases.append(rng.integers(0, 2, (rows, t)) @ rng.integers(0, 2, (t, w)))
        full = rng.integers(0, 2, (w, w))
        while len(gauss_jordan(full, 2)[1]) < w:
            full = rng.integers(0, 2, (w, w))
        cases += [full, np.eye(w, dtype=np.int64)[::-1]]
    ranks = set()
    for a in cases:
        for m in (a, a + 2 * rng.integers(-4, 4, a.shape)):  # outside 0..1, negatives included
            ranks.add(assert_matches_gauss_jordan(m, 2))
    assert ranks >= {0, 1, 62, 64, 125, 130}


def slot_room(p):
    """Pivots between reductions of the odd-prime packed rows: a slot of w
    bytes, w in (1, 2, 4, 8), starts below p and gains at most (p-1)^2 per pivot."""
    w = min(w for w in (1, 2, 4, 8) if (p - 1) + (p - 1) ** 2 < 256**w)
    return (256**w - 1 - (p - 1)) // (p - 1) ** 2


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 257, 65537, 2**31 - 1, 3037000493]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_odd_packed_rows_match_gauss_jordan(p):
    # entries anywhere in int64, or p-multiples away from small products
    rng = np.random.default_rng(p % 1000)

    def dense(shape):
        return rng.integers(-(2**62), 2**62, shape)

    def shifted(m):  # the same residues, outside 0..p-1, negatives included
        return m + p * rng.integers(-3, 3, m.shape)

    cases = [np.zeros((0, 5), np.int64), np.zeros((5, 0), np.int64), np.zeros((0, 0), np.int64),
             np.array([[p]]), np.array([[-1]]), np.array([[1 - p]]), np.zeros((4, 6), np.int64)]
    for w in (1, 7, 8, 9, 31, 32, 33, 65):
        for rows in (1, w // 3 + 1, w + 5):  # wide and tall
            cases.append(dense((rows, w)))
            t = w // 4 + 1  # rank at most t
            cases.append(shifted(rng.integers(0, 3, (rows, t)) @ rng.integers(0, 3, (t, w))))
        full = shifted(rng.integers(0, min(p, 100), (w, w)))
        while len(gauss_jordan(full, p)[1]) < w:
            full = shifted(rng.integers(0, min(p, 100), (w, w)))
        cases += [full, dense((w, w)), np.eye(w, dtype=np.int64)[::-1] * (p - 1)]
    ranks = {assert_matches_gauss_jordan(m, p) for m in cases}
    assert ranks >= {0, 1, 8, 65}


def slot_room(p):
    """Pivots between reductions of odd-prime packed rows: a slot of w bytes,
    w in (1, 2, 4, 8), starts below p and gains at most (p-1)^2 per pivot."""
    w = min(w for w in (1, 2, 4, 8) if (p - 1) + (p - 1) ** 2 < 256**w)
    return (256**w - 1 - (p - 1)) // (p - 1) ** 2


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES if slot_room(p) < 300])
def test_odd_packed_rows_reduce_in_mid_elimination(p):
    # a unit lower times a unit upper triangular matrix has determinant 1,
    # so its reduced form is the identity; it takes room + 2 pivots, so the
    # rows are reduced in mid-elimination.  Over GF(257) and GF(65537) a
    # slot has room for 65535 and 2^32 pivots, past any size tested here.
    rng = np.random.default_rng(p % 1000)
    n = slot_room(p) + 2
    low = np.tril(rng.integers(0, min(p, 50), (n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(0, min(p, 50), (n, n)), 1) + np.eye(n, dtype=np.int64)
    m = low @ up - p * rng.integers(0, 3, (n, n))
    before = m.copy()
    e, pivots = row_echelon(m, p)
    assert (m == before).all()
    assert pivots == list(range(n)) and (e == np.eye(n, dtype=np.int64)).all()


def rref_rows(a, p):
    """The nonzero rows of the reduced row echelon form of a, as lists."""
    e, pivots = row_echelon(a, p)
    return e[: len(pivots)].tolist()


def assert_column_limited_pass(m, b):
    """One pass over the columns of m of [m | b]: the pivots of m, and rows
    spanning the x * b with x * m = 0, a basis when b's rows are independent."""
    p = m.field.p
    a = np.hstack([m.array, b.array])
    before = a.copy()
    e, pivots = row_echelon(a, p, m.cols)
    assert (a == before).all()
    assert pivots == row_echelon(m.array, p)[1] and len(pivots) == m.rank()
    assert e.dtype == np.int64 and e.shape[1] == b.cols and ((e >= 0) & (e < p)).all()
    assert e.any(axis=1).all()  # no zero rows
    assert rref_rows(e, p) == rref_rows((m.nullspace() * b).array, p)
    if b.rank() == b.rows:
        assert len(e) == m.rows - len(pivots)
    return len(pivots)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 127, 3037000493])
def test_column_limited_pass_gives_rank_and_left_kernel_image(p):
    f = PrimeField(p)
    rng = random.Random(p % 1000)

    def low_rank(rows, cols, t):
        return random_matrix(f, rows, t, rng) * random_matrix(f, t, cols, rng)

    # (m, b): no rows, a zero m, a b of width 0, and random and low-rank m
    # beside square, wide and narrow b; 24 pivots pass the room of the packed
    # slots over GF(5), GF(7), GF(127) and GF(3037000493)
    cases = [(FFMatrix.zero(f, 0, 5), FFMatrix.zero(f, 0, 3)),
             (FFMatrix.zero(f, 4, 6), random_matrix(f, 4, 4, rng)),
             (random_matrix(f, 5, 4, rng), FFMatrix.zero(f, 5, 0)),
             (random_matrix(f, 3, 3, rng), FFMatrix.identity(f, 3))]
    for k, c, w in ((3, 12, 12), (12, 3, 5), (6, 6, 6), (1, 7, 2), (7, 1, 7), (24, 26, 24), (30, 24, 4)):
        cases.append((random_matrix(f, k, c, rng), random_matrix(f, k, w, rng)))
        cases.append((low_rank(k, c, min(k, c) // 2 + 1), random_matrix(f, k, w, rng)))
    cases.append((low_rank(9, 9, 4), FFMatrix.identity(f, 9)))
    if p == 2:
        # total widths of 61, 62, 63 and 130 meet and cross the 62-bit chunks
        for c, w in ((30, 31), (31, 31), (40, 23), (62, 1), (1, 62), (65, 65), (70, 60)):
            for k in (5, 40, 70):
                cases.append((random_matrix(f, k, c, rng), random_matrix(f, k, w, rng)))
                cases.append((low_rank(k, c, 3), random_matrix(f, k, w, rng)))
    ranks = {assert_column_limited_pass(m, b) for m, b in cases}
    assert ranks >= {0, 1, 24}


@pytest.mark.parametrize("f", [GF2, GF4, GF3, GF5, GF9], ids=repr)
def test_census_tom_eliminates_on_packed_rows(monkeypatch, tmp_path, capsys, f):
    shapes, limits = [], []
    name = "_row_echelon_gf2" if f.p == 2 else "_row_echelon_odd"
    packed = getattr(ffield, name)

    def spy(a, *args):
        shapes.append(a.shape)
        limits.append(args[-1])
        assert args[:-1] == (() if f.p == 2 else (f.p,))
        return packed(a, *args)

    monkeypatch.setattr(ffield, name, spy)
    gens = []
    minus = f.neg(f.one)
    for k, rows in enumerate(([[0, 1], [1, 0]], [[0, minus], [1, minus]])):  # S3 on its 2-dim module
        gens.append(tmp_path / f"gen{k}.mtx")
        m = FFMatrix.from_rows(f, rows)
        gens[-1].write_text(write_meataxe(m) if f.k == 1 else write_ext_matrix(m))
    tom = files("burnside") / "data" / "s3.tom.json"
    assert main(["census", "tom", "--tom", str(tom), "--gens", ",".join(map(str, gens)), "--q", str(f.q)]) == 0
    assert capsys.readouterr().out.startswith("regular_orbits ")
    assert shapes and all(c % f.k == 0 for _, c in shapes)
    # the fixed spaces take column-limited passes, the top-class check a nullspace
    assert {limit is None for limit in limits} == {False, True}


def test_rank_nullity():
    rng = random.Random(5)
    cases = []
    for f in (GF2, GF3, GF5, GF7, GF4, GF9):
        for _ in range(15):
            r, c = rng.randrange(1, 5), rng.randrange(1, 5)
            cases.append(random_matrix(f, r, c, rng))
    cases.append(gf2_stack(rng))
    for m in cases:
        assert m.rank() + m.nullspace().rows == m.rows


def test_rank_equals_rank_of_the_transpose():
    rng = random.Random(19)
    for f in (GF2, GF3, GF4, GF9):
        for r, c in ((9, 3), (3, 9), (6, 6), (1, 5), (5, 1)):
            # tall, wide and square; products of thin factors have low rank
            cases = [random_matrix(f, r, c, rng)]
            cases += [random_matrix(f, r, t, rng) * random_matrix(f, t, c, rng) for t in (1, 2)]
            for m in cases:
                assert m.rank() == m.transpose().rank() == m.rows - m.nullspace().rows


def test_rank_eliminates_the_side_with_fewer_columns(monkeypatch):
    shapes = []

    def spy(a, p, limit=None):
        # a rank counts pivots: the limit is the whole eliminated width
        assert limit == np.shape(a)[1]
        shapes.append(np.shape(a))
        return row_echelon(a, p, limit)

    monkeypatch.setattr("burnside.ffield.row_echelon", spy)
    rng = random.Random(29)
    for f in (GF2, GF3, GF4):
        for r, c in ((8, 3), (3, 8), (4, 4)):
            shapes.clear()
            m = random_matrix(f, r, c, rng)
            m.rank()
            assert shapes == [(f.k * max(r, c), f.k * min(r, c))]


def test_inverse_round_trip():
    rng = random.Random(9)
    for f in (GF2, GF3, GF7, GF4, GF8, GF9):
        count = 0
        while count < 10:
            m = random_matrix(f, 3, 3, rng)
            if not m.is_invertible():
                continue
            count += 1
            assert mul_oracle(m, m.inverse()) == FFMatrix.identity(f, 3)
            assert m ** -1 == m.inverse()
    with pytest.raises(ValueError):
        FFMatrix.zero(GF2, 2, 2).inverse()


def test_matrix_power_product_count(monkeypatch):
    # square-and-multiply from m itself: m^(2^j) takes j products
    calls = []
    mul = FFMatrix.__mul__
    monkeypatch.setattr(FFMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    m = FFMatrix.from_rows(GF2, [[0, 1], [1, 1]])
    for e, products in ((0, 0), (1, 0), (2, 1), (4, 2), (16, 4)):
        calls.clear()
        m**e
        assert len(calls) == products, e
    calls.clear()
    ExtField(2, 2, (1, 1, 1))  # Z^4 and Z^2 for Rabin's test, Z^1 for _zpow
    assert len(calls) == 4


def test_matrix_power():
    m = FFMatrix.from_rows(GF2, [[0, 1], [1, 1]])
    assert m**0 == FFMatrix.identity(GF2, 2)
    assert m**3 == FFMatrix.identity(GF2, 2)  # order 3 in GL(2,2)
    assert m**-2 == m


# ---------------------------------------------------------------------------
# blow-up


def test_blow_up_identity():
    for d in (1, 2, 4):
        m = FFMatrix.identity(GF4, d)
        assert blow_up(m) == FFMatrix.identity(GF2, 2 * d)


def test_blow_up_gf4_generator():
    # z*1 = z -> (0,1); z*z = 1+z -> (1,1)
    m = FFMatrix(GF4, 1, 1, (GF4.gen,))
    assert blow_up(m) == FFMatrix.from_rows(GF2, [[0, 1], [1, 1]])


def test_blow_up_multiplicative_gf8():
    # GF(2^16) and GF(3^7) as well: entries drawn from all of a large field
    rng = random.Random(17)
    for f in (GF8, GF2_16, GF3_7):
        for _ in range(20):
            a = random_matrix(f, 3, 3, rng)
            b = random_matrix(f, 3, 3, rng)
            assert blow_up(mul_oracle(a, b)) == blow_up(a) * blow_up(b)


def test_blow_up_additive_and_injective():
    rng = random.Random(19)
    for f in (GF4, GF2_16, GF3_7):
        seen = {}
        for _ in range(30):
            a = random_matrix(f, 2, 2, rng)
            b = random_matrix(f, 2, 2, rng)
            # the GF(q) sum by scalar ops, since a + b itself goes through blow_up
            total = FFMatrix(f, 2, 2, [f.add(x, y) for x, y in zip(a.entries, b.entries)])
            assert a + b == total
            assert a - b == FFMatrix(f, 2, 2, [f.sub(x, y) for x, y in zip(a.entries, b.entries)])
            assert blow_up(total) == blow_up(a) + blow_up(b)
            seen[blow_up(a).entries] = a.entries
        for packed, original in seen.items():
            assert blow_up(FFMatrix(f, 2, 2, original)).entries == packed


def test_blow_up_k1_is_identity_transformation():
    f1 = ExtField(3, 1)
    m = FFMatrix.from_rows(f1, [[1, 2], [0, 1]])
    out = blow_up(m)
    assert out.entries == m.entries
    assert out.field == GF3
    m2 = FFMatrix.from_rows(GF3, [[1, 2], [0, 1]])
    assert blow_up(m2) is m2


def test_blow_up_det_is_field_norm():
    rng = random.Random(29)
    for f in (GF4, GF8):
        for _ in range(10):
            a = random_matrix(f, 3, 3, rng)
            assert det(blow_up(a)) == norm(f, det(a))


# ---------------------------------------------------------------------------
# the blow-up kept with each GF(p^k) matrix

GF25 = ExtField(5, 2)
CACHE_FIELDS = [GF4, GF8, GF9, GF25]


def fresh_blow_up(m):
    """The blow-up of m's entries, computed again on a matrix with none kept."""
    copy = FFMatrix(m.field, m.rows, m.cols, m.array)
    assert copy._blown is None
    return blow_up(copy)


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if m.is_invertible():
            return m


@pytest.mark.parametrize("f", CACHE_FIELDS, ids=[repr(f) for f in CACHE_FIELDS])
def test_kept_blow_up_matches_a_fresh_one(f):
    rng = random.Random(f.q)
    ops = [
        lambda a, b: a * b,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a.transpose(),
        lambda a, b: a.inverse(),
        lambda a, b: a ** rng.choice((-3, -2, -1, 1, 2, 3)),
    ]
    for _ in range(4):
        pool = [random_invertible(f, 3, rng) for _ in range(3)]
        blow_up(pool[0])  # so some transposes start from a kept blow-up
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.randrange(len(ops))
            if op in (4, 5) and not a.is_invertible():
                continue
            out = ops[op](a, b)
            if op != 3 or a._blown is not None:
                assert out._blown is not None
            assert blow_up(out) == fresh_blow_up(out)
            pool.append(out)
    # rectangular transposes, blown up before and after
    for r, c in ((2, 5), (5, 2), (1, 4), (0, 3), (3, 0)):
        m = random_matrix(f, r, c, rng)
        blow_up(m)
        t = m.transpose()
        assert t._blown is not None and (t.rows, t.cols) == (c, r)
        assert blow_up(t) == fresh_blow_up(t)
        assert blow_up(t.transpose()) == blow_up(m)


def test_kept_blow_up_is_invisible():
    z = GF4.gen
    a = FFMatrix.from_rows(GF4, [[z, 1], [0, z]])
    b = FFMatrix(GF4, 2, 2, a.array)
    text = repr(a)
    assert blow_up(a) is blow_up(a)
    assert a._blown is not None and b._blown is None
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == text
    product = a * a
    assert FFMatrix(GF4, 2, 2, product.array)._blown is None


def nullspace_per_row(m):
    """The GF(p^k) nullspace by converting each blown basis row with from_coeffs."""
    f, n, k = m.field, m.rows, m.field.k
    out = []
    for v in blow_up(m).nullspace().to_rows():
        lead = next(j for j, x in enumerate(v) if x)
        if lead % k == 0:
            out.extend(f.from_coeffs(v[j : j + k]) for j in range(0, n * k, k))
    return FFMatrix(f, len(out) // n if n else 0, n, out)


@pytest.mark.parametrize("f", CACHE_FIELDS, ids=[repr(f) for f in CACHE_FIELDS])
def test_ext_nullspace_matches_per_row_conversion(f):
    rng = random.Random(41 + f.q)
    cases = [FFMatrix.zero(f, r, c) for r, c in ((0, 0), (0, 3), (3, 0), (2, 2))]
    cases += [random_matrix(f, 0, 2, rng), random_matrix(f, 4, 0, rng)]
    for _ in range(25):
        r, c, t = rng.randrange(1, 7), rng.randrange(1, 6), rng.randrange(1, 3)
        cases.append(random_matrix(f, r, c, rng))
        cases.append(random_matrix(f, r, t, rng) * random_matrix(f, t, c, rng))
    for m in cases:
        basis = m.nullspace()
        assert basis == nullspace_per_row(m)
        assert basis.cols == m.rows and basis.array.dtype == np.int64
