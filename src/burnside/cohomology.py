"""First and second cohomology of a finite group on a GF(p) module.

Everything is done by explicit linear algebra on cochains: cocycles are the
kernel of a coboundary system, coboundaries the image of the previous one,
and dimensions fall out of exact GF(p) matrix ranks.  Cochains are stored
against an explicit element list with the identity first; 2-cochains are
normalized (f(1,.) = f(.,1) = 0), which shrinks the H^2 system to
(|G|-1)^2 * d unknowns.

Convention: the module is a right module, written f(g,h)^k for the action
of k on f(g,h); the 2-cocycle identity is

    f(g,h)^k + f(gh,k) = f(h,k) + f(g,hk).

Both systems are dense, so memory grows like |G|^5 * d^2 for H^2.  A
system of more than SYSTEM_BYTES_BOUND bytes is refused before it is built;
its rank holds about four times the system at once.
"""

import random

import numpy as np

from .ffield import row_echelon
from .permgroup import Perm, PermGroup

H1_BOUND = 128
H2_BOUND = 64
SYSTEM_BYTES_BOUND = 2**28
_VALIDATION_SAMPLE = 100


class GroupModulePair:
    """A finite group with a matrix action of its generators on GF(p)^d.

    The action extends to all elements multiplicatively along generator
    words.  That extension only makes sense when the generator images
    actually define a homomorphism, so construction checks all generator
    pairs and a fixed seeded sample of element pairs (g, h) for
    action(g) * action(h) = action(g*h).
    """

    def __init__(self, group: PermGroup, matrices, sample: int = _VALIDATION_SAMPLE):
        matrices = tuple(matrices)
        if len(matrices) != len(group.generators):
            raise ValueError(
                f"{len(group.generators)} group generators but {len(matrices)} matrices"
            )
        if not matrices:
            raise ValueError("need at least one generator matrix")
        field = matrices[0].field
        if field.k != 1:
            raise ValueError("the module must be over a prime field GF(p)")
        d = matrices[0].rows
        for m in matrices:
            if m.field != field or m.rows != d or m.cols != d:
                raise ValueError("matrices must be square, equal-sized, over one field")
            if not m.is_invertible():
                raise ValueError("generator matrices must be invertible")
        self.group = group
        self.field = field
        self.p = field.p
        self.d = d
        ident = Perm.identity(group.degree)
        els = group.elements()
        self.elements = tuple([ident] + [e for e in els if e != ident])

        gen_np = [np.array(m.to_rows(), dtype=np.int64) % self.p for m in matrices]
        images = {}
        for el, word in group.element_words().items():
            a = np.eye(d, dtype=np.int64)
            for i in word:
                a = (a @ gen_np[i]) % self.p
            images[el] = a
        self._images = images

        gens = group.generators
        for g in gens:
            for h in gens:
                if not np.array_equal((images[g] @ images[h]) % self.p, images[g * h]):
                    raise ValueError("matrices are not aligned with the group generators")
        rng = random.Random(100003)
        pool = self.elements
        for _ in range(sample):
            g, h = rng.choice(pool), rng.choice(pool)
            if not np.array_equal((images[g] @ images[h]) % self.p, images[g * h]):
                raise ValueError("generator images do not extend to a homomorphism")

    def matrix(self, el) -> np.ndarray:
        """d x d integer matrix (mod p) of the element's action."""
        return self._images[el]


def _check_system_size(rows: int, cols: int) -> None:
    nbytes = rows * cols * 8
    if nbytes > SYSTEM_BYTES_BOUND:
        raise ValueError(
            f"a {rows} x {cols} int64 system takes {nbytes} bytes, "
            f"over the bound of {SYSTEM_BYTES_BOUND} bytes"
        )


def h1_dimension(pair: GroupModulePair, bound: int = H1_BOUND) -> int:
    """dim Z^1 - dim B^1 for 1-cochains f: G -> M.

    Z^1 is cut out by f(gh) = f(g)^h + f(h) over all pairs; B^1 is the span
    of the principal cocycles g -> m - m^g.
    """
    els = pair.elements
    n = len(els)
    if n > bound:
        raise ValueError(f"group order {n} exceeds the H^1 bound {bound}")
    d, p = pair.d, pair.p
    _check_system_size(n * n * d, n * d)
    idx = {e: i for i, e in enumerate(els)}
    eye = np.eye(d, dtype=np.int64)

    system = np.zeros((n * n * d, n * d), dtype=np.int64)
    row = 0
    for g in els:
        for h in els:
            block = system[row : row + d]
            block[:, idx[g * h] * d : (idx[g * h] + 1) * d] += eye
            block[:, idx[g] * d : (idx[g] + 1) * d] -= pair.matrix(h).T
            block[:, idx[h] * d : (idx[h] + 1) * d] -= eye
            row += d
    z1 = n * d - len(row_echelon(system, p)[1])

    principal = np.zeros((d, n * d), dtype=np.int64)
    for i, g in enumerate(els):
        principal[:, i * d : (i + 1) * d] = eye - pair.matrix(g)
    return z1 - len(row_echelon(principal, p)[1])


def delta1_matrix(pair: GroupModulePair) -> np.ndarray:
    """Coboundary of normalized 1-cochains, one row per basis cochain.

    Row (i, a): the 2-cochain delta f for f = e_a at the i-th nonidentity
    element, laid out over the (g, h, coordinate) columns of the normalized
    2-cochain space.  Its row space is B^2.
    """
    els = pair.elements
    nz = els[1:]
    m, d, p = len(nz), pair.d, pair.p
    pos = {e: i for i, e in enumerate(nz)}
    ident = els[0]
    eye = np.eye(d, dtype=np.int64)
    out = np.zeros((m * d, m * m * d), dtype=np.int64)
    for x, g in enumerate(nz):
        for y, h in enumerate(nz):
            c = (x * m + y) * d
            out[x * d : (x + 1) * d, c : c + d] += pair.matrix(h)
            gh = g * h
            if gh != ident:
                i = pos[gh]
                out[i * d : (i + 1) * d, c : c + d] -= eye
            out[y * d : (y + 1) * d, c : c + d] += eye
    return out % p


def delta2_matrix(pair: GroupModulePair) -> np.ndarray:
    """Cocycle system for normalized 2-cochains, one row per (g,h,k,coord).

    Z^2 is the kernel of this matrix applied to unknown column vectors;
    triples with an identity entry are vacuous under normalization and
    are skipped.
    """
    els = pair.elements
    nz = els[1:]
    m, d, p = len(nz), pair.d, pair.p
    pos = {e: i for i, e in enumerate(nz)}
    ident = els[0]
    eye = np.eye(d, dtype=np.int64)
    out = np.zeros((m * m * m * d, m * m * d), dtype=np.int64)
    row = 0
    for i, g in enumerate(nz):
        for j, h in enumerate(nz):
            gh = g * h
            for l, k in enumerate(nz):
                block = out[row : row + d]
                c = (i * m + j) * d
                block[:, c : c + d] += pair.matrix(k).T
                if gh != ident:
                    c = (pos[gh] * m + l) * d
                    block[:, c : c + d] += eye
                c = (j * m + l) * d
                block[:, c : c + d] -= eye
                hk = h * k
                if hk != ident:
                    c = (i * m + pos[hk]) * d
                    block[:, c : c + d] -= eye
                row += d
    return out % p


def h2_dimension(pair: GroupModulePair, bound: int = H2_BOUND) -> int:
    """dim Z^2 - dim B^2 on normalized cochains, by two GF(p) ranks."""
    n = len(pair.elements)
    if n > bound:
        raise ValueError(f"group order {n} exceeds the H^2 bound {bound}")
    m = n - 1
    unknowns = m * m * pair.d
    _check_system_size(m * unknowns, unknowns)
    z2 = unknowns - len(row_echelon(delta2_matrix(pair), pair.p)[1])
    b2 = len(row_echelon(delta1_matrix(pair), pair.p)[1])
    return z2 - b2


def splits_implies(pair: GroupModulePair, h2dim: int) -> str:
    """Verdict text for a computed H^2 dimension."""
    head = (
        f"group of order {len(pair.elements)} on a {pair.d}-dimensional "
        f"GF({pair.p}) module: dim H^2 = {h2dim}"
    )
    if h2dim == 0:
        return head + ("; every extension of G by M splits; "
                       "the semidirect product is the unique extension")
    return head + f"; {pair.p**h2dim} equivalence classes of extensions"
