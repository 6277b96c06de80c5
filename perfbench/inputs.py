"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the seed.  The seed never changes what a
correct run prints: it only picks things every answer is invariant under.

- Module generators are conjugated by a basis change B = D P
  (g -> B^-1 g B), where D is a dense invertible matrix fixed for each field
  and dimension and P is a seeded random permutation matrix.  Census
  reports are basis-invariant.  Every seed gets the same matrix entries,
  rearranged, so the work does not depend on the seed: GF(4) products skip
  zero digits, and with B drawn whole from the seed one `census_ext` pass
  took 11.1 s for one seed and 12.9 s for another, each repeatably.
- Permutation groups for `tom compute` and `h2` get a random generating set
  of the same group on the same points.  Subgroup classes are sorted by a
  key that depends only on the elements, so the marks do not change; only
  the straight-line programs do.

Files are written in the CLI's own formats (MeatAxe text, JSON for GF(4)).
"""

import itertools
import random
from pathlib import Path

from burnside.corpus import census_corpus, perm_from_matrix
from burnside.ffield import ExtField, FFMatrix, PrimeField
from burnside.formats import write_ext_matrix, write_meataxe
from burnside.permgroup import Perm, PermGroup

# the stored S6 table was computed from these generators; module generators
# for census_prime and census_ext must be aligned with them
S6_GENS = (Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]))

# name: (q, dim, summands); an int k is the S6 permutation module on the
# k-subsets of {0..5}, "sign" the sign module; trivial summands fill up dim
CENSUS_MODULES = {
    "gf2_28": (2, 28, (3, 1)),
    "gf2_26": (2, 26, (2, 1)),
    "gf3_25": (3, 25, (2, 1, "sign")),
    "gf5_14": (5, 14, (1, 1, "sign")),
}
EXT_MODULE = (4, 14, (1, 1))


def _field(q):
    return ExtField(2, 2) if q == 4 else PrimeField(q)


def _gf(q, rows):
    return FFMatrix.from_rows(_field(q), rows)


# ------------------------------------------------------------------ modules


def _subset_perm_matrix(g, k):
    subsets = list(itertools.combinations(range(g.degree), k))
    pos = {frozenset(s): i for i, s in enumerate(subsets)}
    n = len(subsets)
    rows = [[0] * n for _ in range(n)]
    for i, s in enumerate(subsets):
        rows[i][pos[frozenset(g(x) for x in s)]] = 1
    return rows


def _sign(g):
    return (-1) ** sum(len(c) - 1 for c in g.cycles())


def _summand(g, name, q):
    if name == "sign":
        return [[_sign(g) % q]]
    return _subset_perm_matrix(g, name)


def _direct_sum(blocks, pad):
    n = sum(len(b) for b in blocks) + pad
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    for i in range(at, n):
        rows[i][i] = 1
    return rows


def random_basis_change(q, d, rng):
    """A random invertible d x d matrix over GF(q) and its inverse."""
    field = _field(q)
    while True:
        b = FFMatrix(field, d, d, [rng.randrange(q) for _ in range(d * d)])
        if b.is_invertible():
            return b, b.inverse()


def conjugate(mats, q, rng):
    """The matrices in the basis D P: D fixed for (q, d), P drawn from rng."""
    d = mats[0].rows
    dense, dense_inv = random_basis_change(q, d, random.Random(f"fixed:{q}:{d}"))
    order = list(range(d))
    rng.shuffle(order)
    perm = _gf(q, [[1 if j == order[i] else 0 for j in range(d)] for i in range(d)])
    b, binv = dense * perm, perm.transpose() * dense_inv
    return [binv * m * b for m in mats]


def s6_module(q, summands, dim, rng):
    """Generators of a dense GF(q)^dim module for S6_GENS.

    The listed summands are followed by trivial ones up to `dim`, and the
    whole is conjugated by a seeded basis change.
    """
    mats = []
    for g in S6_GENS:
        blocks = [_summand(g, s, q) for s in summands]
        pad = dim - sum(len(b) for b in blocks)
        if pad < 0:
            raise ValueError("summands exceed the module dimension")
        mats.append(_gf(q, _direct_sum(blocks, pad)))
    return conjugate(mats, q, rng)


# ------------------------------------------------------------- perm groups


def _projective_line_gens(p):
    """x -> x + 1 and x -> -1/x on the points 0..p-1 and infinity (= p)."""
    inf = p
    shift = [(x + 1) % p for x in range(p)] + [inf]
    inv = [inf] + [(-pow(x, p - 2, p)) % p for x in range(1, p)] + [0]
    return Perm(shift), Perm(inv)


TOM_GROUPS = {
    "A5": (Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])),
    "PSL27": _projective_line_gens(7),
    "S5": (Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])),
    "S6": S6_GENS,
}


def _c2_power(k):
    return [Perm.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)]


H2_GROUPS = {
    "C2^4": _c2_power(4),
    "D16": (Perm.from_cycles(8, [tuple(range(8))]), Perm([(-x) % 8 for x in range(8)])),
    "S4": (Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(0, 1, 2, 3)])),
}


def random_generating_set(gens, rng):
    """A seeded random generating set of <gens> of the same size and points."""
    group = PermGroup(gens[0].degree, gens)
    order = group.order()
    els = group.elements()
    while True:
        pick = [rng.choice(els) for _ in gens]
        if PermGroup(group.degree, pick).order() == order:
            return pick


# -------------------------------------------------------------- oracle pairs


def _gl32_pair():
    """GL(3,2) on 7 points, module natural + dual + permutation + 2 trivial."""
    f = PrimeField(2)
    a = FFMatrix.from_rows(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = FFMatrix.from_rows(f, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    pts = [v for v in itertools.product(range(2), repeat=3) if any(v)]
    perms = [perm_from_matrix(m, pts) for m in (a, b)]
    mats = []
    for m, g in zip((a, b), perms):
        dual = m.transpose().inverse().to_rows()
        perm_mod = [[1 if g(i) == j else 0 for j in range(7)] for i in range(7)]
        mats.append(_gf(2, _direct_sum([m.to_rows(), dual, perm_mod], 2)))
    return perms, mats, 2


def _s5_pair():
    """S5 on 5 points, module GF(3)^8 = permutation + sign + 2 trivial."""
    perms = list(TOM_GROUPS["S5"])
    mats = []
    for g in perms:
        perm_mod = [[1 if g(i) == j else 0 for j in range(5)] for i in range(5)]
        mats.append(_gf(3, _direct_sum([perm_mod, [[_sign(g) % 3]]], 2)))
    return perms, mats, 3


def oracle_pairs():
    """(name, perm generators, matrix generators, q) before the basis change."""
    out = []
    for name, group, action in census_corpus():
        out.append((name, list(group.generators), list(action.matrices), action.q))
    out.append(("GL(3,2) on GF(2)^15", *_gl32_pair()))
    out.append(("S5 on GF(3)^8", *_s5_pair()))
    return out


# ------------------------------------------------------------------ writing


def write_matrices(mats, stem):
    """One file per matrix; returns the comma-joined list the CLI takes."""
    paths = []
    for i, m in enumerate(mats, 1):
        if m.field.k == 1:
            path = Path(f"{stem}.g{i}.mtx")
            path.write_text(write_meataxe(m))
        else:
            path = Path(f"{stem}.g{i}.json")
            path.write_text(write_ext_matrix(m))
        paths.append(str(path))
    return ",".join(paths)


def write_perms(perms, path):
    Path(path).write_text(write_meataxe(list(perms)))
    return str(path)


def rng_for(seed, label):
    """Independent stream per input, so adding an input leaves others alone."""
    return random.Random(f"{seed}:{label}")
