"""Character rows over exact cyclotomic values, plus table-level reports.

Three questions keep coming up around the orbit census: which rows of a
table are rational valued, how the Galois group permutes rows of equal
degree, and over which field GF(p^m) a p-modular row is defined.  Each is a
small exercise in applying zeta -> zeta^k pointwise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .cyclotomic import (
    Cyclotomic,
    divisors,
    galois,
    is_prime,
    is_rational_integer,
    multiplicative_order,
)

__all__ = [
    "CharacterRow",
    "CharacterTable",
    "field_of_definition_size",
    "galois_partition_by_degree",
    "rational_degree_census",
]


def _as_value(v):
    return v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)


@dataclass(frozen=True)
class CharacterRow:
    values: tuple
    name: str = ""

    def __post_init__(self):
        vals = tuple(_as_value(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("character row needs at least one value")
        if not is_rational_integer(vals[0]) or vals[0].coeffs[0] <= 0:
            raise ValueError(f"row degree {vals[0]} is not a positive integer")

    @property
    def degree(self) -> int:
        return int(self.values[0].coeffs[0])

    def conjugate(self, k: int) -> "CharacterRow":
        """Row with every value mapped under zeta -> zeta^k."""
        return CharacterRow(
            tuple(galois(v, k) for v in self.values),
            self.name,
        )


@dataclass(frozen=True)
class CharacterTable:
    name: str
    rows: tuple
    class_names: tuple = ()
    prime: int | None = None  # set for p-modular (Brauer) tables

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if not self.rows:
            raise ValueError("character table needs at least one row")
        width = len(self.rows[0].values)
        if any(len(r.values) != width for r in self.rows):
            raise ValueError("rows must all have the same number of values")
        if self.class_names and len(self.class_names) != width:
            raise ValueError("class name count must match the row length")
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime")

    @property
    def n_classes(self) -> int:
        return len(self.rows[0].values)

    def row_name(self, i: int) -> str:
        return self.rows[i].name or f"X.{i + 1}"


def field_of_definition_size(row: CharacterRow, p: int) -> int:
    """Size p^m of the field the p-Frobenius action pins the row to.

    m is the least exponent >= 1 with zeta -> zeta^(p^m) fixing every value;
    it always divides the multiplicative order of p modulo the lcm of the
    value levels, so only divisors of that order are tried.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    lift = 1
    for v in row.values:
        if v.level % p == 0:
            raise ValueError(f"prime {p} divides the level {v.level} of {v}")
        lift = math.lcm(lift, v.level)
    if lift == 1:
        return p
    for m in divisors(multiplicative_order(p, lift)):
        if row.conjugate(pow(p, m, lift)).values == row.values:
            return p**m
    raise AssertionError("the full Frobenius orbit must fix the row")


def rational_degree_census(table: CharacterTable) -> list:
    """(degree, multiplicity) pairs over the rows whose values all lie in Z."""
    counts = Counter(
        row.degree
        for row in table.rows
        if all(is_rational_integer(v) for v in row.values)
    )
    return sorted(counts.items())


def galois_partition_by_degree(table: CharacterTable) -> list:
    """Per degree, the partition of rows into Galois orbits.

    Two rows are equivalent when some zeta -> zeta^k with k coprime to the
    lcm N of all value levels carries one onto the other pointwise.  Returns
    (degree, orbits) pairs sorted by degree, orbits holding 1-based row
    positions.  A degree with two or more orbits witnesses that irreducibles
    of equal degree need not be Galois conjugate.
    """
    lift = 1
    for row in table.rows:
        for v in row.values:
            lift = math.lcm(lift, v.level)
    units = [k for k in range(1, lift + 1) if math.gcd(k, lift) == 1]
    by_degree = {}
    for i, row in enumerate(table.rows):
        by_degree.setdefault(row.degree, []).append(i)
    out = []
    for degree in sorted(by_degree):
        pending = list(by_degree[degree])
        orbits = []
        while pending:
            seed = table.rows[pending[0]]
            images = {seed.conjugate(k).values for k in units}
            orbit = [i for i in pending if table.rows[i].values in images]
            pending = [i for i in pending if i not in orbit]
            orbits.append(tuple(i + 1 for i in orbit))
        out.append((degree, tuple(orbits)))
    return out
