"""Desk-scale permutation groups.

Provides exactly what the table-of-marks pipeline needs: orbits with
transversals, group order and membership through a deterministic
Schreier-Sims chain, full element enumeration with generator words, conjugacy
classes of subgroups, and subgroup-conjugacy tests.  Everything is exhaustive
and deterministic; the product table and the element search below bound
the order.
Tables for the sporadic-group censuses of the paper are ingested from
files, never computed.

The stabilizer chain and the element search run on image tuples, not on
Perm objects, and a product x * g is one itemgetter call.  The chain takes
the least moved point as its base, keeps the inverse of each element of a
breadth-first transversal of the base's orbit, and takes the distinct
Schreier generators, unsifted, as the next level's generators.

The exhaustive algorithms work on element indices, not on Perm objects.
Each group builds one ElementTable on first enumeration, of plain index
data: the elements' image tuples in sorted order (so the identity is index
0), their breadth-first generator words, the index of every product with a
generator, and the breadth-first word tree as index arrays, one triple a
level.  The tree is walked one batched step per level: the elements'
matrix images (census.element_images), their inverses, the left products
of the cohomology spin and the stabilizers of the brute-force census.
The n x n product table is filled in on first use, one row per tree
edge, at two bytes an entry; a table over SYSTEM_BYTES_BOUND bytes
(order above 11585) is refused before any element is enumerated.  The
search is charged apart, at 8 bytes an entry: its image tuples before it
starts and the words as each level is added, so a large group of large
degree, or with long words, is refused too.  Subgroup classes and the
subgroup-conjugacy test speak the same indices: a subgroup is the sorted
array of its element indices, and element i is Perm(table.images[i]).
Only elements of prime order seed cyclic classes, and a class's conjugates
come from the least element of each coset of its normalizer, in one gather
when the normalizer is small.

Permutations act on 0-based points and compose left to right: (p*q)(x) =
q(p(x)), matching the convention used for row-vector matrix actions so that
generator words transfer verbatim to matrix generators.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import itemgetter, ne

import numpy as np

from .cyclotomic import is_prime, power, prime_factors

# largest dense array (product table, cohomology system) built anywhere
SYSTEM_BYTES_BOUND = 2**28

# element indices; the byte bound keeps every order below 2^15
_INDEX = np.int16

# nonabelian simple orders that can divide the order of a proper subgroup of a
# group with a product table (order <= 11585, so proper subgroups <= 5792; a
# larger cap needs a longer list): every such order is a multiple of 60 or 168 or
# one of 1092 (PSL(2,13)), 2448 (PSL(2,17)) and 5616 (PSL(3,3)); subgroup_classes
# seeds perfect subgroups only when one of these can divide a proper subgroup's order
_SIMPLE_ORDERS = (60, 168, 1092, 2448, 5616)


def check_allocation(what: str, nbytes: int) -> None:
    """Refuse an array of more than SYSTEM_BYTES_BOUND bytes before building it."""
    if nbytes > SYSTEM_BYTES_BOUND:
        raise ValueError(f"{what} takes {nbytes} bytes, over the bound of {SYSTEM_BYTES_BOUND} bytes")


class Perm:
    """Immutable permutation of {0, ..., n-1} as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 0-based disjoint cycles, e.g. [(0,1),(2,3)]."""
        images = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if len(other.images) != len(self.images):
            raise ValueError("degree mismatch")
        q = other.images
        return _perm(tuple([q[i] for i in self.images]))  # a composite of permutations is one

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm(inv)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, Perm.identity(len(self.images)))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def order(self):
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def cycles(self):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and other.images == self.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id, {self.degree})"
        return "Perm" + "".join(str(tuple(c)) for c in cyc)


def _perm(images):
    """The Perm of a tuple known to be a permutation, without the check in Perm.__init__."""
    out = object.__new__(Perm)
    out.images = images
    return out


class ElementTable:
    """The elements of a group by index, with products as index lookups.

    images holds the elements' image tuples in sorted order, so the
    identity is index 0 and element i is Perm(images[i]); words[i] is the
    breadth-first generator word of element i; right[i, k], in an (n, r)
    intp array, is the index of element i times generators[k].  levels
    holds the breadth-first word tree, one (i, k, j) triple of index arrays
    a level: the edges along which the search first reached j, from i by
    generators[k], in the order found.  mul[i, j], the index of element i
    times element j, and inv are filled in by
    PermGroup.multiplication_table().

    held is what the caller has already charged for the search (its image
    tuples); the words are charged at 8 bytes an entry as each level is
    added, and a search past SYSTEM_BYTES_BOUND is refused there.
    """

    def __init__(self, degree, generators, held=0):
        # a search on image tuples, numbered in the order found; the element
        # found b-th was first reached from parent[b] by generator via[b]
        gens = [g.images for g in generators]
        found = [tuple(range(degree))]
        position = {found[0]: 0}
        words, right, parent, via, starts = [()], [], [0], [0], []
        start = 0
        while start < len(found):  # one breadth-first level a pass
            stop = len(found)
            for a in range(start, stop):
                times = _times(found[a])
                for k, g in enumerate(gens):
                    y = times(g)
                    b = position.setdefault(y, len(found))
                    if b == len(found):
                        found.append(y)
                        words.append(words[a] + (k,))
                        parent.append(a)
                        via.append(k)
                    right.append(b)
            if len(found) > stop:
                starts.append(stop)
                held += 8 * len(words[-1]) * (len(found) - stop)
                check_allocation(f"the element search to depth {len(starts)} ({len(found)} elements)", held)
            start = stop
        n = len(found)
        order = sorted(range(n), key=found.__getitem__)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        self.images = [found[a] for a in order]
        self.words = [words[a] for a in order]
        self.right = rank[np.array(right, dtype=np.intp).reshape(n, len(gens))[order]]
        parent, via = rank[parent], np.array(via, dtype=np.intp)
        self.levels = [(parent[s:e], via[s:e], rank[s:e]) for s, e in zip(starts, starts[1:] + [n])]
        self.mul = self.inv = None

    def conjugates(self, xs):
        """Array c with c[g, t] = index of g^-1 * xs[t] * g, on element indices."""
        return self.mul[self.inv[:, None], self.mul[np.asarray(xs, dtype=np.intp)].T]

    def closure(self, gens, cap=None):
        """Indices of the subgroup generated by gens; None past cap elements."""
        steps = [self.mul[:, g].tolist() for g in gens]  # right multiplication by each generator
        inside = bytearray(len(self.images))
        inside[0] = 1
        reached = [0]
        cap = len(self.images) if cap is None else cap
        for x in reached:  # breadth-first: the loop extends the list it walks
            for step in steps:
                y = step[x]
                if not inside[y]:
                    inside[y] = 1
                    reached.append(y)
            if len(reached) > cap:
                return None
        return np.flatnonzero(np.frombuffer(inside, dtype=np.uint8))


class PermGroup:
    """Group generated by permutations; caches are lazily built."""

    def __init__(self, degree, generators):
        self.degree = degree
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            gens.append(g)
        self.generators = tuple(gens)
        self._chain = None
        self._table = None

    # -- stabilizer chain -----------------------------------------------

    def _stabilizer_chain(self):
        if self._chain is None:
            self._chain = _build_chain([g.images for g in self.generators if not g.is_identity()])
        return self._chain

    def base(self) -> tuple:
        """The base points of the stabilizer chain, one a level."""
        return tuple(base for base, _ in self._stabilizer_chain())

    def order(self) -> int:
        n = 1
        for _, inverses in self._stabilizer_chain():
            n *= len(inverses)
        return n

    def __contains__(self, perm: Perm) -> bool:
        if perm.degree != self.degree:
            return False
        images = perm.images
        for base, inverses in self._stabilizer_chain():
            t = inverses.get(images[base])
            if t is None:
                return False
            images = tuple(map(t.__getitem__, images))  # perm * transversal^-1
        return images == tuple(range(self.degree))

    # -- enumeration ------------------------------------------------------

    def element_words(self):
        """The breadth-first generator word of every element, by element index.

        A word (i1, i2, ...) means generators[i1] * generators[i2] * ...;
        the empty word is the identity, element 0.  The first call builds
        the group's ElementTable, unless its product table, or its search
        (the image tuples of all elements and then their words), would
        exceed SYSTEM_BYTES_BOUND.  The two are bounded apart, so the product
        table alone caps the order at 11585.
        """
        if self._table is None:
            n = self.order()
            check_allocation(f"the {n} x {n} product table", n * n * np.dtype(_INDEX).itemsize)
            held = 8 * n * self.degree
            check_allocation(f"the image tuples of {n} elements on {self.degree} points", held)
            self._table = ElementTable(self.degree, self.generators, held)
        return self._table.words

    def elements(self):
        """The elements as Perms, by element index (sorted order)."""
        return list(map(_perm, self.element_table().images))

    def element_table(self) -> ElementTable:
        """The group's ElementTable, without its products; refused past the product-table cap."""
        self.element_words()
        return self._table

    def multiplication_table(self) -> ElementTable:
        """The element table with its products filled in (its bytes were checked with the elements)."""
        table = self.element_table()
        if table.mul is None:
            n = len(table.images)
            # along the tree: x * (y g_k) = (x y) g_k, a gather from a
            # contiguous copy of column k of right straight into row j
            steps = [np.ascontiguousarray(column, dtype=_INDEX) for column in table.right.T]
            cols = np.empty((n, n), dtype=_INDEX)  # cols[j, i] = index of element i * element j
            cols[0] = np.arange(n)
            for level in table.levels:
                for i, k, j in zip(*map(np.ndarray.tolist, level)):
                    steps[k].take(cols[i], out=cols[j], mode="clip")
            table.mul = cols.T
            # a level at a time: (y g_k)^-1 = g_k^-1 y^-1, where g_k^-1 is
            # the element that g_k takes to the identity
            ginv = table.right.argmin(axis=0)
            inv = np.zeros(n, dtype=_INDEX)
            for i, k, j in table.levels:
                inv[j] = cols[inv[i], ginv[k]]
            table.inv = inv
        return table

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


def _times(x):
    """The map g -> x * g on image tuples of x's degree: (x * g)(i) = g(x(i))."""
    # itemgetter of one index gives an entry, not a tuple; below two points x is the identity
    return itemgetter(*x) if len(x) > 1 else tuple


def _build_chain(gens):
    """The stabilizer chain of the group generated by gens, image tuples none the identity.

    One (base, inverses) entry a level: the base is the least point moved
    by the level's generators, and inverses[x] is the inverse of t_x, the
    product of generators along the breadth-first orbit of the base that
    takes it to x.  The next level's generators are the distinct Schreier
    generators t_x * g * t_(g(x))^-1 other than the identity, in the order
    of the orbit and then of the generators; they are not sifted (Seress,
    Permutation Group Algorithms, 2003, ch. 4).  Only the inverses are
    kept, so a level holds one image list per orbit point.
    """
    chain = []
    while gens:
        ident = tuple(range(len(gens[0])))
        base = min(list(map(ne, g, ident)).index(True) for g in gens)
        # t_x itself is held only until x is walked
        transversal, inverses = {base: ident}, {base: ident}
        steps = [(g, _times(g)) for g in gens]
        orbit, schreier = [base], {}  # schreier: an insertion-ordered set
        for x in orbit:  # breadth-first: the loop extends the list it walks
            t = _times(transversal.pop(x))
            for g, g_times in steps:
                y = g[x]
                if y in inverses:
                    schreier[t(g_times(inverses[y]))] = None
                else:  # a tree edge: its Schreier generator is the identity
                    transversal[y] = ty = t(g)
                    # the inverse lists the points in the order of their images
                    inverses[y] = sorted(ident, key=ty.__getitem__)
                    orbit.append(y)
        schreier.pop(ident, None)
        chain.append((base, inverses))
        gens = list(schreier)
    return chain


# ---------------------------------------------------------------------------
# subgroup machinery


def mulclose(gens, degree):
    """Closure of a generator set."""
    els = {Perm.identity(degree)}
    frontier = list(els)
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return els


def minimal_generators(elements):
    """Greedy small generating set, scanning elements in sorted order."""
    els = sorted(elements)
    degree = els[0].degree
    gens = []
    have = {Perm.identity(degree)}
    for x in els:
        if x not in have:
            gens.append(x)
            have = mulclose(gens, degree)
            if len(have) == len(els):
                break
    return gens


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, by indices into group.multiplication_table().

    elements holds the sorted element indices of one representative U,
    generators the element indices that generate U (empty for the trivial
    class), size the number of distinct conjugates of U and conjugates
    their sorted element indices, a (size x order) array with one row each.
    """

    order: int
    size: int
    elements: np.ndarray = field(repr=False, compare=False)
    generators: tuple
    conjugates: np.ndarray = field(repr=False, compare=False)


def _cyclic(table, x):
    """Indices of the powers of x, identity first."""
    powers = [0]
    y = x
    while y:
        powers.append(y)
        y = int(table.mul[y, x])
    return powers


def _class_minima(table):
    """The least element of each conjugacy class of elements, ascending, and
    least[x], the least conjugate of x (orbits under conjugation by the generators)."""
    n = len(table.images)
    mul, inv = table.mul, table.inv
    least = orbit_minima(n, [mul[mul[inv[c]], c] for c in table.right[0]])
    return np.flatnonzero(least == np.arange(n)).tolist(), least


def orbit_minima(n, maps):
    """label[x] = the least point of the orbit of x in 0..n-1 under bijections x -> map[x].

    Min-label propagation: pull the least label back along every map, then
    jump pointers (a label lies in its point's orbit), until nothing moves.
    A fixed label is constant along each cycle of each map, so on orbits.
    """
    label = np.arange(n)
    while True:
        before = label
        for m in maps:
            label = np.minimum(label, label[m])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _power_maps(table, minima):
    """Index arrays x -> x^k for unit residues k that generate the units mod the exponent,
    and the orders of the class minima.

    The exponent e is the lcm of those orders; the k are picked greedily,
    each one not yet in the group the earlier ones generate.
    """
    orders = [len(_cyclic(table, x)) for x in minima]
    e = lcm(*orders)
    ks, reached = [], {1}
    for k in range(2, e):
        if gcd(k, e) == 1 and k not in reached:
            ks.append(k)
            cyclic = [1]
            while cyclic[-1] * k % e != 1:
                cyclic.append(cyclic[-1] * k % e)
            reached = {r * y % e for r in reached for y in cyclic}  # the units commute
    maps = []
    for k in ks:  # square and multiply
        out, base = np.zeros(len(table.images), dtype=np.intp), np.arange(len(table.images))
        while k:
            if k & 1:
                out = table.mul[out, base]
            base, k = table.mul[base, base], k >> 1
        maps.append(out)
    return maps, orders


def _coset_minima(mul, subgroup, gather):
    """The least element of each right coset U g of a subgroup U (sorted indices), ascending.

    With gather, one n x |U| gather takes every coset's least element at
    once (mul.T[g] is the row x -> x g); without, a loop jumps to the next g
    not yet covered and covers U g, one pass per coset.
    """
    n = len(mul)
    if gather:
        return np.flatnonzero(mul.T[:, subgroup].min(axis=1) == np.arange(n)).tolist()
    reps, covered = [], bytearray(n)
    in_cover = np.frombuffer(covered, dtype=np.uint8)
    g = 0
    while g >= 0:
        reps.append(g)
        in_cover[mul.T[g].take(subgroup)] = 1
        g = covered.find(0, g + 1)
    return reps


def _generators_within(table, subgroup):
    """Greedy generators of a subgroup, given as its sorted element indices."""
    gens = []
    inside = np.zeros(len(table.images), dtype=bool)
    inside[0] = True
    for c in subgroup.tolist():
        if not inside[c]:
            gens.append(c)
            reached = table.closure(gens)
            if len(reached) == len(subgroup):
                break
            inside[reached] = True
    return gens


def subgroup_classes(group: PermGroup) -> tuple:
    """A tuple of SubgroupClass, one per conjugacy class of subgroups.

    Cyclic extension: seed with the classes of prime-order cyclic subgroups,
    then repeatedly extend each representative U by normalizing elements z
    with z^p in U (prime order modulo U), deduplicating by conjugacy.  That
    loop reaches every soluble subgroup; perfect subgroups (possible once
    some simple order divides |G|) are seeded separately from two-generator
    closures, and the full group is appended if still missing.  Ordering is
    by subgroup order with a canonical tie-break, trivial first, G last.

    Subgroups are sorted arrays of element indices, looked up by the bytes
    of those arrays.  Elements are indexed in sorted order, so the least key
    among the conjugates is the same tie-break as the least sorted tuple of
    permutations.  A class's conjugates are g^-1 U g for one g per right
    coset N(U)g of its normalizer, which are exactly the distinct ones; they
    are kept on the class, and counted against the byte bound with it, for
    the marks in compute_tom.  The g is the least of its coset: for
    |N(U)|^2 < 512, one n x |N(U)| gather of the products x g finds them all
    (a loop costs a Python pass per coset), otherwise a loop over the cosets.

    Each class is found by the first candidate, in a fixed scan order, that
    generates one of its subgroups, and keeps that candidate's generators.
    The searches skip only candidates that generate the same group as an
    earlier candidate, or a conjugate of it, and that group's class is then
    already known or already refused.  So the classes, their order and their
    generators do not depend on the skips:
    - a cyclic seed x is skipped when <x> = <y> for an earlier y, that is
      when x = y^k with k prime to the order of y: x is not least in its
      orbit under the power maps; only x of prime order are seeds at all,
      their order read off their class minimum's;
    - a perfect seed <a, b> is closed only for b least in its orbit under
      four families of bijections of G: b -> ab, b -> ba, b -> b^k for k
      prime to the exponent of G (the k from _power_maps), and b -> c^-1 b c
      for c in a generating set of the centralizer C(a).  Each keeps <a, b>
      the same up to conjugacy by C(a), so every b in an orbit gives a
      conjugate group, and the first b that gives a group of some class is
      the least of its orbit;
    - nor when a member b' of that orbit is conjugate to an earlier class
      minimum a' (not 1): if c^-1 b' c = a', then <a, b'>^c = <a', a^c>,
      a closure at a' already made or skipped the same way;
    - an extension U<z> is skipped when z lies in an extension U<y> tried
      before: z then has the same prime order modulo U, and U<z> = U<y>.

    Perfect subgroups are sought among the two-generator closures whose
    order is a multiple of a nonabelian simple order in _SIMPLE_ORDERS,
    which covers every simple group that fits in a proper subgroup.

    Two generators suffice below the product-table cap (|G| <= 11585): a proper
    subgroup has order <= 5792, and every perfect group P of order <= 5792 is
    2-generated.  For a least counterexample P, each proper quotient is perfect
    and smaller, so it needs fewer generators than P; by F. Dalla Volta and A.
    Lucchini (J. Austral. Math. Soc. A 64, 1998) P is then a crown-based power
    L_k of a monolithic primitive group L with socle N.  If k = 1, P = L has a
    unique minimal normal subgroup and d(P) = max(2, d(P/N)) = 2 by A. Lucchini
    and F. Menegazzo (Rend. Sem. Mat. Univ. Padova 98, 1997).  If k >= 2 and
    N = V is abelian, V is a faithful irreducible module for the perfect group
    H = L/V != 1, and |P| >= |V|^2 |H| with |H| >= 60 needs |V| <= 9, where
    only GL(3,2) has a nontrivial perfect subgroup, and 8^2 * 168 = 10752 is
    over 5792.  If k >= 2 and N is nonabelian, |P| >= |N|^2 forces P = A5 x A5,
    2-generated (P. Hall, 1936).  A larger cap reopens the question.
    """
    table = group.multiplication_table()
    n = len(table.images)
    mul, inv = table.mul, table.inv

    classes = []  # dicts: els (sorted index array), gens (indices), normalizer, conj, key
    # bytes held: the largest working set (generators_of's closure of n Perms), then each class
    held = n * (160 + 8 * group.degree)
    seen = {}  # key of every conjugate of a class -> that class

    def key(h):
        # big-endian, so that bytes order sorted index arrays lexicographically
        return h.astype(">u2").tobytes()

    def add(h, gens):
        nonlocal held
        in_h = np.zeros(n, dtype=bool)
        in_h[h] = True
        normalizer = np.flatnonzero(in_h[table.conjugates(gens)].all(axis=1))
        # one least g per right coset N(U)g; a gather's n x |N(U)| temporary is charged while it lives
        gather = len(normalizer) ** 2 < 512
        check_allocation(f"{len(classes)} subgroup classes and a coset gather", held + gather * 2 * n * len(normalizer))
        reps = _coset_minima(mul, normalizer, gather)
        # int64 elements and normalizer; per conjugate a row, its key and seen entry; the objects
        held += 8 * (len(h) + len(normalizer)) + len(reps) * (4 * len(h) + 160) + 1280
        check_allocation(f"{len(classes) + 1} subgroup classes with their conjugates", held)
        conj = np.sort(mul[inv[reps][:, None], mul[h[:, None], reps].T], axis=1).astype(">u2", order="C")
        keys = conj.view(np.dtype((np.void, conj.shape[1] * 2))).ravel().tolist()
        c = {"els": h, "gens": tuple(gens), "normalizer": normalizer, "conj": conj, "key": min(keys)}
        seen.update(dict.fromkeys(keys, c))
        classes.append(c)
        return c

    def generators_of(h):
        gens = minimal_generators([_perm(table.images[i]) for i in h])
        return [bisect_left(table.images, x.images) for x in gens]

    add(np.array([0]), ())
    queue = []
    minima, least = _class_minima(table)
    powers, orders = _power_maps(table, minima)
    prime_order = np.zeros(n, dtype=bool)  # of x, the same as of its class minimum
    prime_order[minima] = [is_prime(k) for k in orders]
    for x in np.flatnonzero(prime_order[least] & (orbit_minima(n, powers) == np.arange(n))).tolist():
        h = np.sort(_cyclic(table, x))
        if key(h) not in seen:
            queue.append(add(h, (x,)))

    # perfect seeds: two-generator closures whose order is divisible by a
    # nonabelian simple order (the docstring says why they find all)
    if any(s * 2 <= n and n % s == 0 for s in _SIMPLE_ORDERS):
        least_a = np.where(least > 0, least, n)  # the identity is never an a
        for a in minima[1:]:  # one a per conjugacy class of elements
            centralizer = np.flatnonzero(table.conjugates([a])[:, 0] == a)
            maps = [mul[a], mul[:, a], *powers]
            maps += [mul[mul[inv[c]], c] for c in _generators_within(table, centralizer)]
            label = orbit_minima(n, maps)
            # earliest[b]: the least class minimum a' conjugate to a member of b's orbit
            earliest = np.full(n, n)
            np.minimum.at(earliest, label, least_a)
            for b in np.flatnonzero((label == np.arange(n)) & (earliest >= a)).tolist():
                h = table.closure((a, b), cap=n // 2)
                if h is None or all(len(h) % s for s in _SIMPLE_ORDERS):
                    continue
                if key(h) not in seen:
                    queue.append(add(h, generators_of(h)))

    primes = prime_factors(n)
    while queue:
        cls = queue.pop(0)
        u, normalizer = cls["els"], cls["normalizer"]
        in_u = np.zeros(n, dtype=bool)
        in_u[u] = True
        quotient = len(normalizer) // len(u)
        tried = in_u.copy()  # U and every U<z> extended so far
        for p in primes:
            if quotient % p:
                continue
            z_p = normalizer
            for _ in range(p - 1):
                z_p = mul[z_p, normalizer]
            for z in normalizer[~in_u[normalizer] & in_u[z_p]].tolist():
                if tried[z]:
                    continue
                # z^p lies in U, so U<z> is U z^0, ..., U z^(p-1)
                powers = [0, z]
                while len(powers) < p:
                    powers.append(int(mul[powers[-1], z]))
                extended = np.zeros(n, dtype=bool)
                extended[mul[u[:, None], powers]] = True
                tried |= extended
                v = np.flatnonzero(extended)
                if key(v) not in seen:
                    queue.append(add(v, cls["gens"] + (z,)))

    full = np.arange(n)
    if key(full) not in seen:
        add(full, generators_of(full))

    classes.sort(key=lambda c: (len(c["els"]), c["key"]))
    return tuple(SubgroupClass(len(c["els"]), len(c["conj"]), c["els"], c["gens"], c["conj"]) for c in classes)


def is_conjugate_subgroup(group: PermGroup, u, v):
    """(found, g): g is the least element index with g^-1 u g = v when found.

    u and v are the elements of two subgroups of `group`, as collections of
    indices into group.multiplication_table(); exhaustive over the elements
    of `group`.
    """
    table = group.multiplication_table()
    in_v = np.zeros(len(table.images), dtype=bool)
    in_v[np.asarray(v, dtype=np.intp)] = True
    hits = np.flatnonzero(in_v[table.conjugates(u)].all(axis=1))
    if len(u) != len(v) or not len(hits):
        return False, None
    return True, int(hits[0])
