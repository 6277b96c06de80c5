"""Straight-line programs: words in group generators, replayed on any carrier.

A program holds numbered slots; r1..rM are preloaded with the inputs and each
statement writes one slot.  Evaluation only needs `*`, `**` and equality on
the carrier, so the same program runs on permutations and on matrices — that
is the whole point: subgroup generators recorded as words in one
representation transfer to another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import FFMatrix
from .permgroup import Perm

MAX_SLOTS = 10_000

MUL = "MUL"
POW = "POW"


@dataclass(frozen=True)
class SLProgram:
    """statements: (target, MUL, i, j) | (target, POW, i, e); an inverse is POW with e = -1.

    An empty `returns` is meaningful: it encodes the trivial subgroup (no
    generators).
    """

    n_inputs: int
    statements: tuple
    returns: tuple

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("programs need at least one input")
        if self.n_inputs > MAX_SLOTS:  # inputs occupy r1..rM; refused before the slot set is built
            raise ValueError(f"input slot r{self.n_inputs} outside 1..{MAX_SLOTS}")
        defined = set(range(1, self.n_inputs + 1))
        for stmt in self.statements:
            target, op = stmt[0], stmt[1]
            if not 1 <= target <= MAX_SLOTS:
                raise ValueError(f"slot r{target} outside 1..{MAX_SLOTS}")
            if op != MUL and op != POW:
                raise ValueError(f"unknown opcode {op!r}")
            _, _, i, x = stmt
            j = x if op == MUL else i
            if i not in defined or j not in defined:
                raise ValueError(f"slot r{j if i in defined else i} used before definition")
            defined.add(target)
        for s in self.returns:
            if s not in defined:
                raise ValueError(f"returned slot r{s} never defined")

    @classmethod
    def from_words(cls, n_inputs, words):
        """Program computing one product of inputs per word (1-based indices).

        words = [] gives the empty-return program for the trivial subgroup.
        """
        statements = []
        outs = []
        nxt = n_inputs + 1
        for w in words:
            if len(w) == 0:
                raise ValueError("empty word has no generator encoding")
            cur = w[0]
            for i in w[1:]:
                statements.append((nxt, MUL, cur, i))
                cur = nxt
                nxt += 1
            outs.append(cur)
        return cls(n_inputs, tuple(statements), tuple(outs))


def _check_carrier(inputs):
    first = inputs[0]
    if isinstance(first, FFMatrix):
        for x in inputs:
            if not isinstance(x, FFMatrix) or x.field != first.field:
                raise ValueError("carrier mismatch")
            if x.rows != x.cols or (x.rows, x.cols) != (first.rows, first.cols):
                raise ValueError("matrix dimension mismatch")
    elif isinstance(first, Perm):
        for x in inputs:
            if not isinstance(x, Perm) or x.degree != first.degree:
                raise ValueError("carrier mismatch")
    else:
        t = type(first)
        if any(type(x) is not t for x in inputs):
            raise ValueError("carrier mismatch")


def evaluate(prog: SLProgram, inputs, products=None) -> list:
    """Run the program; returns one carrier element per return slot.

    products maps each operation done, (MUL, id(a), id(b)) or (POW, id(a),
    exponent), to (result, a, b): holding the operands keeps their ids from
    being reused while the dict lives.  Calls that share the dict and the
    input objects compute each distinct product once.  Without a dict
    nothing is kept: a slot written again frees its value, so memory stays
    bounded by the live slots.
    """
    inputs = list(inputs)
    if len(inputs) != prog.n_inputs:
        raise ValueError(f"expected {prog.n_inputs} inputs, got {len(inputs)}")
    _check_carrier(inputs)
    slots = {i + 1: x for i, x in enumerate(inputs)}
    for target, op, i, x in prog.statements:
        a = slots[i]
        b = slots[x] if op == MUL else None
        key = (op, id(a), id(b) if op == MUL else x)
        entry = None if products is None else products.get(key)
        if entry is None:
            entry = (a * b if op == MUL else a ** x, a, b)
            if products is not None:
                products[key] = entry
        slots[target] = entry[0]
    return [slots[s] for s in prog.returns]
