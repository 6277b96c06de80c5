"""The readers against per-token reference readers.

The references below read a table of marks and a mode-1 matrix one token at
a time.  The mode-1 digits are checked in bulk and the program lines of a
table are parsed once per distinct line; the marks triples and the table
checks are one walk in order, as in the references.  The references differ
from the older readers only by the rules added since: digits are ASCII, and
a mark lies in 0..|G:U_i| with a diagonal mark dividing |G:U_i|.  Corrupted
inputs must give the same ParseError (message, line and column), the same
ValueError, or an equal object from both.
"""

import json
import random
import re

import pytest

from burnside import formats
from burnside.ffield import FFMatrix, PrimeField
from burnside.formats import ParseError, parse_meataxe, parse_tom, write_meataxe, write_tom
from burnside.permgroup import Perm, PermGroup
from burnside.slp import MUL, POW
from burnside.tom import TableOfMarks, compute_tom


def s6_table_text():
    s6 = PermGroup(6, [Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    return write_tom(compute_tom(s6))


S6_TEXT = s6_table_text()


# ---------------------------------------------------------------- references


def reference_mode1(text):
    lines = text.splitlines()
    _, q, rows, cols = (int(t) for t in lines[0].split())
    field = PrimeField(q)
    need = rows * cols
    entries = []
    for lineno, line in enumerate(lines[1:], 2):
        for col, ch in enumerate(line, 1):
            if ch.isspace():
                continue
            if ch not in "0123456789":  # the ASCII rule
                raise ParseError(f"unexpected character {ch!r}", lineno, col)
            if len(entries) == need:
                raise ParseError("more digits than rows*cols", lineno, col)
            v = int(ch)
            if v >= field.q:
                raise ParseError(f"digit {v} not below field size {field.q}", lineno, col)
            entries.append(v)
    if len(entries) != need:
        raise ParseError(f"expected {need} digits, found {len(entries)}", len(lines), 1)
    return FFMatrix(field, rows, cols, entries)


# the statement and slot patterns with ASCII digits, the one change to them
_STATEMENT = re.compile(r"r([0-9]+)\s*=\s*r([0-9]+)\s*(?:\*\s*r([0-9]+)|\^\s*([+-]?[0-9]+))\Z")
_SLOT = re.compile(r"r([0-9]+)")


def reference_slp_lines(text):
    statements = []
    returns = None
    defined = set()
    max_input = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if returns is not None:
            raise ParseError("statement after return", lineno, 1)
        m = _STATEMENT.match(line)
        if m:
            tgt, a, b, e = m.groups()
            tgt, a = int(tgt), int(a)
            if a > max_input and a not in defined:
                max_input = a
            if b is not None:
                b = int(b)
                if b > max_input and b not in defined:
                    max_input = b
                statements.append((tgt, MUL, a, b))
            else:
                statements.append((tgt, POW, a, int(e)))
            defined.add(tgt)
        elif line == "return" or line.startswith("return "):
            rest = line[len("return") :].strip()
            slots = []
            for part in rest.split(",") if rest else ():
                part = part.strip()
                m = _SLOT.fullmatch(part)
                if not m:
                    raise ParseError(f"bad return slot {part!r}", lineno, 1)
                slot = int(m.group(1))
                if slot > max_input and slot not in defined:
                    max_input = slot
                slots.append(slot)
            returns = tuple(slots)
        else:
            raise ParseError(f"unrecognized statement {line!r}", lineno, 1)
    if returns is None:
        raise ParseError("missing return line", max(1, len(text.splitlines())), 1)
    return tuple(statements), returns, max_input


def reference_table_checks(n, orders, marks, slps):
    """TableOfMarks' checks one entry at a time; raises ValueError."""
    if n != len(orders) or n != len(marks):
        raise ValueError("size mismatch")
    if n == 0:
        raise ValueError("empty table")
    if orders[0] != 1:
        raise ValueError("first class must be the trivial subgroup")
    if any(a > b for a, b in zip(orders, orders[1:])):
        raise ValueError("subgroup orders must be nondecreasing")
    total = orders[-1]
    for i, row in enumerate(marks):
        if len(row) != n:
            raise ValueError("marks rows must have length n")
        if any(row[j] != 0 for j in range(i + 1, n)):
            raise ValueError(f"marks entry above the diagonal in row {i + 1}")
        if total % orders[i] or row[0] != total // orders[i]:
            raise ValueError(f"row {i + 1}: first column must be the index of U_{i + 1}")
        if row[i] < 1:
            raise ValueError(f"diagonal mark of class {i + 1} must be positive")
        for j in range(i + 1):
            if orders[i] % orders[j] and row[j] != 0:
                raise ValueError(f"mark ({i + 1},{j + 1}) nonzero but order does not divide")
    if any(marks[-1][j] != 1 for j in range(n)):
        raise ValueError("last row (the one-point G-set) must be all ones")
    if slps is not None and len(slps) != n:
        raise ValueError("need one straight-line program per class")
    # the coset bounds
    for i, row in enumerate(marks):
        for j in range(n):
            if not 0 <= row[j] <= row[0]:
                raise ValueError(f"row {i + 1}: mark {row[j]} in column {j + 1} is outside 0..{row[0]}, the index")
        if row[0] % row[i]:
            raise ValueError(f"row {i + 1}: diagonal mark {row[i]} does not divide the index {row[0]}")


def reference_parse_tom(text):
    data = formats._load_json(text)
    n = formats._require(data, "n_classes", int, "tom")
    orders = formats._require(data, "orders", list, "tom")
    triples = formats._require(data, "marks", list, "tom")
    if n < 1:
        raise ParseError("tom: n_classes must be positive", 1, 1)
    if len(orders) != n or not all(map(formats._is_int, orders)):
        raise ParseError(f"tom: orders must be {n} integers", 1, 1)
    dense = [[0] * n for _ in range(n)]
    seen = set()
    for t in triples:
        if not (isinstance(t, list) and len(t) == 3 and all(map(formats._is_int, t))):
            raise ParseError(f"tom: marks entry {t!r} is not an [i, j, m] triple", 1, 1)
        i, j, m = t
        if not 1 <= i <= n or not 1 <= j <= n:
            raise ParseError(f"tom: marks position ({i},{j}) outside 1..{n}", 1, 1)
        if j > i:
            raise ParseError(f"tom: mark ({i},{j}) above the diagonal", 1, 1)
        if (i, j) in seen:
            raise ParseError(f"tom: duplicate mark for ({i},{j})", 1, 1)
        seen.add((i, j))
        dense[i - 1][j - 1] = m
    slps = None
    if data.get("slps") is not None:
        texts = data["slps"]
        if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
            raise ParseError("tom: slps must be a list of program texts", 1, 1)
        if len(texts) != n:
            raise ParseError(f"tom: expected {n} programs, found {len(texts)}", 1, 1)
        parsed = [reference_slp_lines(s) for s in texts]
        width = max(max_input for _, _, max_input in parsed)
        slps = tuple(formats._slprogram(width, statements, returns) for statements, returns, _ in parsed)
    marks = tuple(tuple(r) for r in dense)
    with formats._reraise("tom: "):
        reference_table_checks(n, tuple(orders), marks, slps)
        return TableOfMarks(n, tuple(orders), marks, slps)


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


# ---------------------------------------------------------------- corruptions


def corrupt(text, lo, hi, rng, alphabet):
    """`text` with one character deleted, inserted or replaced in [lo, hi)."""
    pos = rng.randrange(lo, hi)
    kind = rng.choice(["delete", "insert", "replace"])
    if kind == "delete":
        return text[:pos] + text[pos + 1 :]
    ch = rng.choice(alphabet)
    return text[:pos] + ch + text[pos + (kind == "replace") :]


TOM_ALPHABET = list("0123456789 r=*^-+,[]x\"") + ["\\n", "\\t", " ", "١", "²", "５"]
MODE1_ALPHABET = list("0123456789 \t\n\r\x0b\x1c  x-") + ["²", "١", "５"]


def tom_corruptions(count, seed):
    rng = random.Random(seed)
    marks_at = S6_TEXT.index('"marks"')
    slps_at = S6_TEXT.index('"slps"')
    data = json.loads(S6_TEXT)
    n = data["n_classes"]
    out = []
    for k in range(count):
        if k % 10 == 8:  # a duplicated triple
            d = json.loads(S6_TEXT)
            d["marks"].insert(rng.randrange(len(d["marks"]) + 1), list(rng.choice(d["marks"])))
            out.append(json.dumps(d))
        elif k % 10 == 9:  # a position out of range or above the diagonal
            d = json.loads(S6_TEXT)
            t = rng.choice(d["marks"])
            t[rng.randrange(2)] = rng.choice([0, -1, n + 1, 10**20, t[0] + 1])
            out.append(json.dumps(d))
        elif k % 2:
            out.append(corrupt(S6_TEXT, marks_at, slps_at, rng, TOM_ALPHABET))
        else:
            out.append(corrupt(S6_TEXT, slps_at, len(S6_TEXT), rng, TOM_ALPHABET))
    return out


TOM_KINDS = ["ok", "Expecting", "duplicate mark", "outside 1..", "unrecognized statement"]


@pytest.mark.parametrize("seed", [0, 1])
def test_tom_reader_matches_the_per_token_reference(seed):
    texts = tom_corruptions(300, seed)
    kinds = set()
    for text in texts:
        want = outcome(reference_parse_tom, text)
        assert outcome(parse_tom, text) == want, text
        kinds.update(k for k in TOM_KINDS if want[0] == k or want[0] == "error" and k in want[1])
    # the corruptions reach the JSON decoder, the triples and the program
    # reader, and some leave a valid table
    assert kinds == set(TOM_KINDS)


@pytest.mark.parametrize("q", [2, 3])
def test_mode1_reader_matches_the_per_token_reference(q):
    rng = random.Random(q)
    m = FFMatrix(PrimeField(q), 28, 28, [rng.randrange(q) for _ in range(28 * 28)])
    text = write_meataxe(m)
    body = text.index("\n") + 1
    messages = set()
    for _ in range(400):
        bad = corrupt(text, body, len(text), rng, MODE1_ALPHABET)
        want = outcome(reference_mode1, bad)
        assert outcome(parse_meataxe, bad) == want, bad
        messages.add(want[1].split(" ")[0] if want[0] == "error" else "ok")
    assert messages == {"ok", "unexpected", "expected", "more", "digit"}


def test_table_checks_match_the_per_entry_reference():
    base = parse_tom(S6_TEXT)
    n = base.n
    rng = random.Random(5)
    values = [-3, -1, 0, 1, 2, 3, 4, 5, 7, 720, 2**70]
    for _ in range(900):
        orders = list(base.orders)
        marks = [list(r) for r in base.marks]
        for _ in range(rng.choice([1, 1, 2])):
            kind = rng.randrange(12)
            i = rng.randrange(n)
            if kind >= 10:  # faults in one row: the earlier check must win
                for j in (0, i, rng.randrange(n)):
                    marks[i][j] = rng.choice(values)
            elif kind == 0:
                marks[i] = marks[i][: rng.randrange(n)] if rng.random() < 0.5 else marks[i] + [0]
            elif kind == 1:
                orders[i] = rng.choice([1, 2, 3, 5, 7, 720, 1440, 2**70])
            else:
                marks[i][rng.randrange(n)] = rng.choice(values)
        marks = tuple(map(tuple, marks))
        try:
            reference_table_checks(n, tuple(orders), marks, base.slps)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            TableOfMarks(n, tuple(orders), marks, base.slps)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (orders, marks)
