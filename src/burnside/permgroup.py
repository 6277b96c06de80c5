"""Desk-scale permutation groups.

Provides exactly what the table-of-marks pipeline needs: orbits with
transversals, group order and membership through a deterministic
Schreier-Sims chain, full element enumeration with generator words, conjugacy
classes of subgroups, and subgroup-conjugacy tests.  Everything is exhaustive
and deterministic; groups here top out around order 1000 (tables for the
sporadic-group censuses are ingested from files, never computed).

Permutations act on 0-based points and compose left to right: (p*q)(x) =
q(p(x)), matching the convention used for row-vector matrix actions so that
generator words transfer verbatim to matrix generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclotomic import is_prime, prime_factors

ENUMERATION_BOUND = 10_000
SUBGROUP_BOUND = 1000

# orders of the nonabelian simple groups that can sit inside a proper subgroup
# when |G| <= 1000; used to decide when cyclic extension needs perfect seeds
_SIMPLE_ORDERS = (60, 168, 504)


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
        return Perm(q[i] for i in self.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm(inv)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = Perm.identity(len(self.images))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
        self._words = None

    # -- stabilizer chain -----------------------------------------------

    def _stabilizer_chain(self):
        if self._chain is None:
            self._chain = _build_chain([g for g in self.generators if not g.is_identity()])
        return self._chain

    def order(self) -> int:
        n = 1
        for _, transversal, _ in self._stabilizer_chain():
            n *= len(transversal)
        return n

    def __contains__(self, perm: Perm) -> bool:
        if perm.degree != self.degree:
            return False
        for base, transversal, _ in self._stabilizer_chain():
            x = perm(base)
            t = transversal.get(x)
            if t is None:
                return False
            perm = perm * t.inverse()
        return perm.is_identity()

    # -- enumeration ------------------------------------------------------

    def element_words(self, limit=ENUMERATION_BOUND):
        """All elements with a generator word each, in breadth-first order.

        A word (i1, i2, ...) means generators[i1] * generators[i2] * ...;
        the empty word is the identity.
        """
        if self.order() > limit:
            raise ValueError(f"group order {self.order()} exceeds enumeration bound {limit}")
        if self._words is None:
            ident = Perm.identity(self.degree)
            words = {ident: ()}
            queue = [ident]
            while queue:
                nxt = []
                for el in queue:
                    w = words[el]
                    for i, g in enumerate(self.generators):
                        y = el * g
                        if y not in words:
                            words[y] = w + (i,)
                            nxt.append(y)
                queue = nxt
            self._words = words
        return self._words

    def elements(self, limit=ENUMERATION_BOUND):
        return sorted(self.element_words(limit))

    # -- orbits -----------------------------------------------------------

    def orbit(self, point):
        """Breadth-first orbit of a point plus its Schreier transversal.

        Returns (orbit, transversal); transversal[x](point) = x.
        """
        if not 0 <= point < self.degree:
            raise ValueError("point out of range")
        orb = [point]
        transversal = {point: Perm.identity(self.degree)}
        i = 0
        while i < len(orb):
            x = orb[i]
            i += 1
            for g in self.generators:
                y = g(x)
                if y not in transversal:
                    transversal[y] = transversal[x] * g
                    orb.append(y)
        return orb, transversal

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


def _build_chain(gens):
    if not gens:
        return []
    base = min(min(i for i, x in enumerate(g.images) if x != i) for g in gens)
    group = PermGroup(gens[0].degree, gens)
    orbit, transversal = group.orbit(base)
    stab_gens = []
    seen = set()
    for x in orbit:
        tx = transversal[x]
        for g in gens:
            sg = tx * g * transversal[g(x)].inverse()
            if not sg.is_identity() and sg not in seen:
                seen.add(sg)
                stab_gens.append(sg)
    return [(base, transversal, tuple(gens))] + _build_chain(stab_gens)


def group_order(group: PermGroup) -> int:
    return group.order()


def orbit(group: PermGroup, point: int):
    return group.orbit(point)


# ---------------------------------------------------------------------------
# subgroup machinery


def mulclose(gens, degree, cap=None):
    """Closure of a generator set; None if it grows past cap elements."""
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
                    if cap is not None and len(els) > cap:
                        return None
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
    subgroup: PermGroup
    order: int
    size: int
    elements: frozenset = field(repr=False, hash=False, compare=False)


@dataclass(frozen=True)
class SubgroupClassList:
    group: PermGroup
    classes: tuple

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def orders(self):
        return [c.order for c in self.classes]


def _conjugate_set(els, g):
    ginv = g.inverse()
    return frozenset(ginv * x * g for x in els)


def _element_class_reps(els_sorted):
    seen = set()
    reps = []
    for x in els_sorted:
        if x in seen:
            continue
        reps.append(x)
        seen.update(g.inverse() * x * g for g in els_sorted)
    return reps


def subgroup_classes(group: PermGroup, bound: int = SUBGROUP_BOUND) -> SubgroupClassList:
    """One representative per conjugacy class of subgroups.

    Cyclic extension: seed with the classes of prime-order cyclic subgroups,
    then repeatedly extend each representative U by normalizing elements z
    with z^p in U (prime order modulo U), deduplicating by conjugacy.  That
    loop reaches every soluble subgroup; perfect subgroups (possible once
    some simple order divides |G|) are seeded separately from two-generator
    closures, and the full group is appended if still missing.  Ordering is
    by subgroup order with a canonical tie-break, trivial first, G last.
    """
    n = group.order()
    if n > bound:
        raise ValueError(f"group order {n} exceeds subgroup enumeration bound {bound}")
    degree = group.degree
    els = group.elements(limit=max(bound, ENUMERATION_BOUND))
    ident = Perm.identity(degree)
    full = frozenset(els)

    classes = []  # dicts: els, order, gens, conjugates (set of frozensets)

    def find(h):
        for c in classes:
            if c["order"] == len(h) and h in c["conjugates"]:
                return c
        return None

    def add(h, gens):
        c = {
            "els": h,
            "order": len(h),
            "gens": tuple(gens),
            "conjugates": {_conjugate_set(h, g) for g in els},
        }
        classes.append(c)
        return c

    add(frozenset([ident]), ())
    queue = []
    for x in els:
        if x.is_identity():
            continue
        o = x.order()
        if not is_prime(o):
            continue
        h = frozenset(x**i for i in range(o))
        if find(h) is None:
            queue.append(add(h, (x,)))

    # perfect seeds: any insoluble proper subgroup has order divisible by a
    # nonabelian simple order; all perfect groups that fit below |G| <= 1000
    # are generated by two elements
    if any(s * 2 <= n and n % s == 0 for s in _SIMPLE_ORDERS):
        for a in _element_class_reps(els):
            if a.is_identity():
                continue
            for b in els:
                h = mulclose((a, b), degree, cap=n // 2)
                if h is None or len(h) % 60 and len(h) % 168:
                    continue
                h = frozenset(h)
                if find(h) is None:
                    queue.append(add(h, minimal_generators(h)))

    primes = prime_factors(n)
    while queue:
        cls = queue.pop(0)
        u = cls["els"]
        normalizer = [g for g in els if all(g.inverse() * x * g in u for x in cls["gens"])]
        quotient = len(normalizer) // len(u)
        for p in primes:
            if quotient % p:
                continue
            for z in normalizer:
                if z in u or z**p not in u:
                    continue
                v = frozenset(x * z**i for x in u for i in range(p))
                if find(v) is None:
                    queue.append(add(v, cls["gens"] + (z,)))

    if find(full) is None:
        add(full, tuple(minimal_generators(full)))

    def canonical_key(c):
        return min(tuple(sorted(cj)) for cj in c["conjugates"])

    classes.sort(key=lambda c: (c["order"], canonical_key(c)))
    out = []
    for c in classes:
        gens = c["gens"] if c["gens"] else (ident,)
        sub = PermGroup(degree, gens)
        out.append(SubgroupClass(sub, c["order"], len(c["conjugates"]), c["els"]))
    return SubgroupClassList(group, tuple(out))


def _subgroup_elements(group, sub):
    if isinstance(sub, PermGroup):
        return frozenset(sub.element_words()), list(sub.generators)
    els = frozenset(sub)
    return els, minimal_generators(els)


def is_conjugate_subgroup(group: PermGroup, u, v):
    """(found, witness): witness g satisfies g^-1 u g = v when found.

    u and v may be PermGroups or plain collections of permutations;
    exhaustive over the elements of `group`.
    """
    u_els, u_gens = _subgroup_elements(group, u)
    v_els, _ = _subgroup_elements(group, v)
    if len(u_els) != len(v_els):
        return False, None
    for g in group.elements():
        ginv = g.inverse()
        if all(ginv * x * g in v_els for x in u_gens):
            return True, g
    return False, None
