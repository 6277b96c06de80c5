"""Exact arithmetic over GF(p) and GF(p^k), dense matrices, and subfield blow-ups.

Scalars are plain ints.  In a prime field they are residues 0..p-1; in an
extension field GF(p^k) an int encodes the polynomial c_0 + c_1*z + ... by its
base-p digits, where z is a root of the defining modulus.

One field class, ExtField, describes GF(p^k) by the companion matrix of its
modulus over GF(p); a prime field is the case k = 1 (PrimeField).  The
modulus is checked by Rabin's test on that companion matrix, with the same
product and elimination as every other GF(p) matrix.

Dimensions in this package stay small (module actions top out around 28), so
matrices are dense: an FFMatrix holds its entries in a read-only int64 numpy
array, in the same int encoding, so every value here is immutable and safe
to share.  Every prime field, GF(2) included, has one product, matmul_mod
(an exact integer matrix product, in float64 BLAS while that is exact and
in int64 past it, reduced mod p), and one elimination routine: row_echelon, a
one-pass Gauss-Jordan elimination on rows packed into Python ints (a bit or
a byte-aligned slot per entry) that returns the reduced row echelon form.
Ranks, inverses and nullspaces all come from it, and with a column limit it
is a left-kernel pass: the rank of m and the x * b with x * m = 0, from
[m | b].  A matrix over GF(p^k) is added, multiplied, inverted and reduced
through its blow-up to GF(p).  Each GF(p^k) matrix is blown up at most once:
the blow-up is kept with the matrix, and a result computed over GF(p) keeps
the GF(p) matrix it came from.  No field with q >= 2^63 is built, so every
scalar fits int64.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .cyclotomic import is_prime, power, prime_factors


# ---------------------------------------------------------------------------
# fields


class ExtField:
    """GF(p^k) presented as GF(p)[z] modulo a monic irreducible of degree k.

    The modulus is a coefficient tuple in ascending degree, e.g. x^2+x+1 is
    (1, 1, 1).  When omitted it defaults to the lexicographically smallest
    irreducible; any choice gives an isomorphic field and everything computed
    downstream (fixed-space dimensions, orbit counts) is basis-independent.
    The field is described by the companion matrix of its modulus over GF(p),
    which tests the modulus and blows matrices up.  The scalar methods are
    plain loops: the matrix kernel does not use them, and the tests compare
    it against them.
    """

    def __init__(self, p: int, k: int, modulus: tuple | None = None):
        if not 1 <= k <= 16:
            raise ValueError("extension degree must be between 1 and 16")
        self.p = p
        self.k = k
        self.q = p**k
        if self.q >= 2**63:
            raise ValueError(f"{self!r} is too large: its scalars do not fit int64")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._base = self  # GF(p), where blow-ups live
        self._red = []  # digits of z^j for j = k .. 2k-2, used to fold products back down
        if k == 1:
            return  # x + c is irreducible, and GF(p) blows up to itself
        self._base = PrimeField(p)
        z = _companion(modulus, self._base)
        if not _rabin(z):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        zpow = [FFMatrix.identity(self._base, k)]
        for _ in range(k - 1):
            zpow.append(zpow[-1] * z)
        # Z^0, ..., Z^(k-1) as flat rows: row s of Z^u holds the digits of z^(u+s)
        self._zpow = np.stack([m.array for m in zpow]).reshape(k, k * k)
        self._red = zpow[-1].to_rows()[1:]

    def coeffs(self, a) -> tuple:
        p = self.p
        return tuple((a // p**i) % p for i in range(self.k))

    def from_coeffs(self, c) -> int:
        if len(c) > self.k:
            raise ValueError("too many coefficients")
        return sum((ci % self.p) * self.p**i for i, ci in enumerate(c))

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (p - a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        ad = self.coeffs(a)
        bd = self.coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(ad):
            if ai:
                for j, bj in enumerate(bd):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for j in range(2 * k - 2, k - 1, -1):
            c = prod[j]
            if c:
                row = self._red[j - k]
                for t in range(k):
                    prod[t] = (prod[t] + c * row[t]) % p
        return self.from_coeffs(prod[:k])

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return power(a, e, 1, self.mul)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        return range(self.q)

    @property
    def gen(self):
        """The modulus root z as a scalar (for k = 1 the root of x + c is -c)."""
        if self.k > 1:
            return self.from_coeffs((0, 1))
        return -self.modulus[0] % self.p

    def __eq__(self, other):
        # matrix products compare fields, so the common case is one object
        return self is other or (
            isinstance(other, ExtField) and other.q == self.q and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


class PrimeField(ExtField):
    """GF(p) with int scalars 0..p-1: GF(p^1) modulo x."""

    def __init__(self, p: int):
        super().__init__(p, 1, (0, 1))


def _companion(modulus, base) -> FFMatrix:
    """The companion matrix Z of a monic modulus f of degree k, over GF(p).

    Z is multiplication by z in the power basis {1, z, ..., z^(k-1)} of
    GF(p)[z]/(f): row s holds the digits of z^(s+1).
    """
    k = len(modulus) - 1
    z = np.eye(k, k, 1, dtype=np.int64)
    z[-1] = [-c % base.p for c in modulus[:k]]
    return FFMatrix(base, k, k, z)


def _rabin(z) -> bool:
    """Rabin's irreducibility test on the companion matrix Z of f over GF(p).

    f of degree k is irreducible exactly when it divides x^(p^k) - x and is
    prime to x^(p^(k/r)) - x for each prime r dividing k (M. O. Rabin, SIAM
    J. Comput. 9, 1980).  f is the minimal polynomial of Z, so f divides g
    exactly when g(Z) = 0, and gcd(g, f) = 1 exactly when g(Z) is
    invertible.  At k = 1 both conditions hold, and nothing is multiplied.
    """
    p, k = z.field.p, z.rows
    return k == 1 or (
        z ** p**k == z and all((z ** p ** (k // r) - z).is_invertible() for r in prime_factors(k))
    )


def default_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates x^k + c are ordered by the base-p integer encoding of the
    non-leading part c, so the choice is deterministic.  For GF(4) this gives
    x^2+x+1 and for GF(8) x^3+x+1.
    """
    base = PrimeField(p)
    for m in range(p**k):
        cand = tuple((m // p**i) % p for i in range(k)) + (1,)
        if _rabin(_companion(cand, base)):
            return cand
    raise ValueError(f"no irreducible of degree {k} over GF({p})")  # unreachable


def norm(field, a):
    """Field norm GF(p^k) -> GF(p): the product of all Frobenius images."""
    out = field.one
    x = a
    for _ in range(field.k):
        out = field.mul(out, x)
        x = field.frobenius(x)
    return field.coeffs(out)[0]


# ---------------------------------------------------------------------------
# matrices


def _check_int64(p, n):
    # a sum of n products of residues must stay below 2^63, or int64 wraps
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"GF({p}) is too large for int64 matrix arithmetic")


def matmul_mod(a, b, p: int) -> np.ndarray:
    """The product a @ b over GF(p), as an int64 array of residues 0..p-1.

    Entries of the int64 arrays a and b may be negative but must be below p
    in absolute value, so a sum of n products lies within n * (p-1)^2 of
    zero.  While that is below 2^53 for the whole inner axis, each partial
    sum is an integer that float64 holds exactly, in whatever order BLAS
    adds, and the product runs in float64.  Past it the product runs in
    int64, over runs of the inner axis short enough that no run's sum
    reaches 2^63, and their residues are added.  Leading axes broadcast as
    in np.matmul.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < 2**53:
        return reduce_mod((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), p)
    _check_int64(p, 1)
    run = (2**63 - 1) // (p - 1) ** 2
    out = reduce_mod(a[..., :run] @ b[..., :run, :], p)
    for s in range(run, inner, run):
        out += reduce_mod(a[..., s : s + run] @ b[..., s : s + run, :], p)
    return reduce_mod(out, p)


def reduce_mod(a, p: int) -> np.ndarray:
    """Reduce the int64 array a to residues 0..p-1 in place, and return it.

    Mod 2 this is the lowest bit, which two's complement gets right for
    negative entries too, at a fraction of the cost of an integer division.
    """
    if p == 2:
        a &= 1
    else:
        a %= p
    return a


class FFMatrix:
    """Dense matrix over a field (an ExtField), held in a read-only array.

    `array` is a (rows, cols) int64 numpy array of the scalars' int
    encodings.  An ndarray given as entries is taken over, not copied; the
    kernels wrap the arrays they compute this way.  Items, rows and entries
    come back as Python ints.  Two private slots cache the hash and, over
    GF(p^k), the blow-up; they take no part in equality or the repr.
    """

    __slots__ = ("field", "rows", "cols", "array", "_blown", "_hash")

    def __init__(self, field, rows, cols, entries):
        if not isinstance(entries, np.ndarray):
            entries = list(entries)
        a = np.asarray(entries, dtype=np.int64)
        if a.size != rows * cols:
            raise ValueError("entry count does not match shape")
        a = a.reshape(rows, cols)
        a.flags.writeable = False
        self.field = field
        self.rows = rows
        self.cols = cols
        self.array = a
        self._blown = None
        self._hash = None

    @classmethod
    def from_rows(cls, field, rowlists):
        rows = len(rowlists)
        cols = len(rowlists[0]) if rows else 0
        flat = []
        for r in rowlists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, np.zeros((rows, cols), dtype=np.int64))

    def __getitem__(self, ij):
        return self.array.item(ij)

    def row(self, i):
        return tuple(self.array[i].tolist())

    def to_rows(self):
        return self.array.tolist()

    @property
    def entries(self):
        """The entries as a flat row-major tuple."""
        return tuple(self.array.ravel().tolist())

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and other.field == self.field
            and other.array.shape == self.array.shape
            and other.array.tobytes() == self.array.tobytes()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.array.shape, self.array.tobytes()))
        return self._hash

    def __repr__(self):
        return f"FFMatrix({self.field!r}, {self.to_rows()!r})"

    # -- arithmetic

    def _check_compatible(self, other):
        if not isinstance(other, FFMatrix):
            raise TypeError("expected FFMatrix")
        if other.field != self.field:
            raise ValueError("field mismatch")

    def _entrywise(self, other, op):
        self._check_compatible(other)
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("shape mismatch")
        f = self.field
        if f.k > 1:
            return _blow_down(f, op(blow_up(self), blow_up(other)))
        return FFMatrix(f, self.rows, self.cols, op(self.array, other.array) % f.p)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __mul__(self, other):
        self._check_compatible(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        f = self.field
        if f.k > 1:
            return _blow_down(f, blow_up(self) * blow_up(other))
        return FFMatrix(f, self.rows, other.cols, matmul_mod(self.array, other.array, f.p))

    def __pow__(self, e):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, FFMatrix.identity(self.field, self.rows))

    def transpose(self):
        out = FFMatrix(self.field, self.cols, self.rows, self.array.T)
        b = self._blown
        if b is not None:
            # the grid of k x k blocks is transposed, each block kept as it is
            k = self.field.k
            blocks = b.array.reshape(self.rows, k, self.cols, k).transpose(2, 1, 0, 3)
            out._blown = FFMatrix(b.field, b.cols, b.rows, blocks)
        return out

    def is_identity(self):
        return self.rows == self.cols and self == FFMatrix.identity(self.field, self.rows)

    # -- elimination-based operations

    def nullspace(self):
        """Row-reduced basis of the left nullspace {v : v*m = 0}, as a matrix.

        The rows of the result are the RREF basis; an invertible or 0-row
        matrix gives 0 rows.  Over GF(p), v*m = 0 says that v is in the
        right nullspace of the transpose.  That transpose is row-reduced
        with its columns in reverse order, so each free column gives a
        basis vector whose last nonzero entry, a 1, is at that column.
        Reversed back, these vectors form the RREF basis.  Over GF(p^k) the
        nullspace of the blow-up is the GF(q) nullspace written in digits,
        and the rows of its RREF with a pivot on digit 0 of an entry are the
        GF(q) RREF rows.
        """
        f = self.field
        n = self.rows
        if f.k > 1:
            k = f.k
            digits = blow_up(self).nullspace().array
            if len(digits):
                digits = digits[(digits != 0).argmax(axis=1) % k == 0]
            return FFMatrix(f, len(digits), n, digits.reshape(len(digits), n, k) @ f.p ** np.arange(k))
        a, pivots = row_echelon(self.array.T[:, ::-1], f.p)
        is_free = np.ones(n, dtype=bool)
        is_free[pivots] = False
        free = is_free.nonzero()[0][::-1]
        # column c of the reversed transpose is entry n - 1 - c of v
        basis = np.zeros((free.size, n), dtype=np.int64)
        basis[np.arange(free.size), n - 1 - free] = 1
        basis[:, n - 1 - np.array(pivots, dtype=np.intp)] = -a[: len(pivots), free].T % f.p
        return FFMatrix(f, free.size, n, basis)

    def rank(self):
        """The rank, eliminating whichever of the matrix and its transpose has fewer columns."""
        f = self.field
        if f.k > 1:
            return blow_up(self).rank() // f.k
        a = self.array if self.cols <= self.rows else self.array.T
        return len(row_echelon(a, f.p)[1])

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        f = self.field
        n = self.rows
        if f.k > 1:
            return _blow_down(f, blow_up(self).inverse())
        a, pivots = row_echelon(np.hstack([self.array, np.eye(n, dtype=np.int64)]), f.p)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return FFMatrix(f, n, n, a[:, n:])

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows


# prime-field elimination on rows packed into Python ints


def row_echelon(a, p: int, limit=None):
    """Gauss-Jordan elimination over GF(p) of a copy of the integer matrix a.

    Each pivot clears its column in every other row, so one pass gives the
    reduced row echelon form.  Returns (e, pivots): e is that form, as an
    int64 array, and pivots lists the pivot column of each of its nonzero
    rows.  Rows are packed into ints with column 0 the most significant.

    With a column limit l, pivots are sought in the first l columns only,
    with no back-substitution, and e holds the nonzero rows left with zeros
    there, without those l columns.  For a = [m | b], len(pivots) is the
    rank of m and the rows of e span {x * b : x * m = 0}, a basis of it
    when the rows of b are independent.
    """
    _check_int64(p, 1)
    a = np.asarray(a, dtype=np.int64)
    return _row_echelon_gf2(a, limit) if p == 2 else _row_echelon_odd(a, p, limit)


_BITS = np.arange(61, -1, -1, dtype=np.int64)  # the bit of each column in a chunk of 62


def _row_echelon_gf2(a, limit):
    """row_echelon over GF(2), on rows packed as ints: column c is bit cols - 1 - c.

    The reduced form is unique, so any row holding a pivot column may be its
    pivot row: the largest remaining row holds the leftmost remaining column,
    and one XOR clears that column from every other row.  Rows that fall to
    zero are dropped; a pass stops once the largest has no bit left of the
    limit.  Rows are packed in int64 chunks of 62 bits, unpacked by bytes.
    """
    rows, cols = a.shape
    rest = []
    for s in range(0, cols, 62):
        k = min(62, cols - s)
        words = ((a[:, s : s + k] & 1) @ (1 << _BITS[-k:])).tolist()
        rest = [x << k | v for x, v in zip(rest, words)] if s else words
    rest = [x for x in rest if x]
    low = 0 if limit is None else cols - limit  # the bits of the columns past the limit
    done = []
    while rest and (x := max(rest)) >> low:
        bit = 1 << (x.bit_length() - 1)
        if limit is None:
            done = [y ^ x if y & bit else y for y in done]
        done.append(x)
        rest = [z for y in rest if (z := y ^ x if y & bit else y)]
    pivots = [cols - x.bit_length() for x in done]
    if limit is not None:  # the rows left take the place of the pivot rows
        done, rows = rest, len(rest)
    # shifted so that column 0 is the top bit of a row's first byte
    size = -(-cols // 8)
    data = np.frombuffer(b"".join((x << 8 * size - cols).to_bytes(size, "big") for x in done), np.uint8)
    e = np.zeros((rows, cols), dtype=np.int64)
    e[: len(done)] = np.unpackbits(data.reshape(len(done), size), axis=1, count=cols)
    return e[:, limit:], pivots


@functools.cache
def _byte_scalings(p):
    """The bytes.translate tables of v -> (v mod p) * s mod p, for s in 0..p-1."""
    return [bytes(v % p * s % p for v in range(256)) for s in range(p)]


def _row_echelon_odd(a, p, limit):
    """row_echelon over an odd prime, on rows packed as ints: column c is slot cols - 1 - c.

    A w-byte slot holds a nonnegative int congruent to its entry.  A row
    operation adds t < p times the pivot row, at most (p-1)^2 to a slot, and
    every row is reduced after each `room` pivots, so no slot carries.  The
    remaining rows are also reduced at a column with no pivot, dropping zeros.
    w is the narrowest slot with room for 4 pivots, else 8: reducing every
    pivot or two (p = 11, 13 in one byte) costs more than wider rows.  With
    a limit, pivot rows are dropped and the pass stops once the reduced
    remaining rows are zero left of the limit.
    """
    rows, cols = a.shape
    w = next((w for w in (1, 2, 4) if (256**w - p) // (p - 1) ** 2 >= 4), 8)
    fmt, size, bits, mask, room = f">u{w}", cols * w, 8 * w, 256**w - 1, (256**w - p) // (p - 1) ** 2

    def pack(xs):
        return b"".join(x.to_bytes(size, "big") for x in xs)

    def unpack(data):  # the rows that are not zero
        return [x for i in range(0, len(data), size or 1) if (x := int.from_bytes(data[i : i + size], "big"))]

    def scale(data, s=1):  # each slot v to (v mod p) * s mod p
        if w == 1:
            return data.translate(_byte_scalings(p)[s])
        return (np.frombuffer(data, fmt) % p * s % p).astype(fmt).tobytes()

    low = 0 if limit is None else (cols - limit) * bits  # the bits of the slots past the limit
    rest = unpack((a % p).astype(fmt).tobytes())
    done, pivots, clean = [], [], 0  # the remaining rows were last reduced after `clean` pivots
    for c in range(cols if limit is None else limit):
        if not rest:
            break
        shift = (cols - 1 - c) * bits
        for i, x in enumerate(rest):
            if (x >> shift & mask) % p:
                break
        else:  # no pivot in column c
            if clean < len(pivots):
                rest, clean = unpack(scale(pack(rest))), len(pivots)
            if max(rest, default=0) >> low == 0:  # no reduced row has an entry before the limit
                break
            continue
        del rest[i]
        x = int.from_bytes(scale(x.to_bytes(size, "big"), pow((x >> shift & mask) % p, -1, p)), "big")
        if limit is None:
            done = [y + -(y >> shift & mask) % p * x for y in done] + [x]
        rest = [y + -(y >> shift & mask) % p * x for y in rest]
        pivots.append(c)
        if len(pivots) % room == 0:
            done, rest, clean = unpack(scale(pack(done))), unpack(scale(pack(rest))), len(pivots)
    if limit is not None:  # the rows left, reduced, take the place of the pivot rows
        done = unpack(scale(pack(rest))) if clean < len(pivots) else rest
        rows = len(done)
    e = np.zeros((rows, cols), dtype=np.int64)
    e[: len(done)] = np.frombuffer(pack(done), fmt).reshape(len(done), cols) % p
    return e[:, limit:], pivots


# ---------------------------------------------------------------------------
# blow-up


def blow_up(m: FFMatrix) -> FFMatrix:
    """Rewrite a matrix over GF(p^k) as a (rows*k) x (cols*k) matrix over GF(p).

    Each scalar a is replaced by the k x k matrix of multiplication-by-a in
    the power basis {1, z, ..., z^(k-1)} of the modulus root: block row s
    holds the coefficients of a*z^s.  The map is a ring homomorphism, so
    blow_up(A*B) = blow_up(A)*blow_up(B).  Over a prime field (k = 1) this is
    the identity transformation.

    The block of a = sum d_u z^u is sum d_u Z^u, for Z the companion matrix
    of the modulus (multiplication by z).  A matrix is blown up at most
    once: the result is kept with it and returned by later calls.
    """
    f = m.field
    if f.k == 1:
        return m
    if m._blown is None:
        p, k = f.p, f.k
        digits = m.array[:, :, None] // p ** np.arange(k) % p
        blocks = matmul_mod(digits, f._zpow, p).reshape(m.rows, m.cols, k, k)  # the block of each m[i, j]
        m._blown = FFMatrix(f._base, m.rows * k, m.cols * k, blocks.transpose(0, 2, 1, 3))
    return m._blown


def _blow_down(field, m: FFMatrix) -> FFMatrix:
    """Inverse of blow_up on its image: a scalar is the first row of its block.

    m must lie in that image; it is kept as the blow-up of the result.
    """
    k = field.k
    first_rows = m.array[::k].reshape(m.rows // k, m.cols // k, k)
    out = FFMatrix(field, m.rows // k, m.cols // k, first_rows @ field.p ** np.arange(k))
    out._blown = m
    return out
