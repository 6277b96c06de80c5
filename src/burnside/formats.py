"""Readers and writers for the on-disk exchange formats.

Covers MeatAxe-style text (mode 1 fixed-format matrices, mode 5 free-format
matrices, mode 12 permutation lists), a JSON wrapper for extension-field
matrices, table-of-marks and character-table JSON, straight-line program
text, and the E(n) expression language for cyclotomic values.  Permutation
images are 1-based on disk and 0-based in memory.  Every parser reports a
line and column on failure.

Digits are ASCII: the characters 0-9 only, in headers, entries, program
slots and expressions; other Unicode digits are unexpected characters.
The program lines of a table of marks are parsed once each per table, since
its class programs repeat the same statements.
"""

from __future__ import annotations

import json
import operator
import re
from contextlib import contextmanager

import numpy as np

from .chartab import CharacterRow, CharacterTable
from .cyclotomic import Cyclotomic
from .ffield import ExtField, FFMatrix, PrimeField
from .permgroup import Perm, check_allocation
from .slp import MUL, POW, SLProgram
from .tom import TableOfMarks, marks_from_triples

__all__ = [
    "ParseError",
    "parse_chartab",
    "parse_cyclotomic",
    "parse_ext_matrix",
    "parse_fixed_vector",
    "parse_meataxe",
    "parse_slp",
    "parse_tom",
    "write_census_report",
    "write_chartab",
    "write_ext_matrix",
    "write_fixed_vector",
    "write_meataxe",
    "write_slp",
    "write_tom",
]


class ParseError(ValueError):
    """Input text does not conform to a format."""

    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}"
            if col is not None:
                where += f", column {col}"
        super().__init__(message + where)
        self.line = line
        self.col = col


@contextmanager
def _reraise(prefix=""):
    """Raise a ValueError of the block as a ParseError at line 1."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{prefix}{exc}", 1, 1) from None


_INT = re.compile(r"[+-]?[0-9]+\Z")


def _integers(lines):
    """(line, column, value) of each token after the header line; all must be integers."""
    for lineno, line in enumerate(lines[1:], 2):
        for m in re.finditer(r"\S+", line):
            if not _INT.match(m.group()):
                raise ParseError(f"expected an integer, found {m.group()!r}", lineno, m.start() + 1)
            yield lineno, m.start() + 1, int(m.group())


# ---------------------------------------------------------------------------
# MeatAxe-style text


def parse_meataxe(text: str):
    """Matrix (modes 1 and 5) or permutation list (mode 12).

    Header is four integers `mode q rows cols`.  Mode 1: rows*cols digits in
    row-major order with arbitrary line breaks, each below q (q prime, <= 9).
    Mode 5: rows*cols whitespace-separated integers reduced mod q (q prime).
    Mode 12: q = 1 and `cols` permutations of degree `rows`, one image per
    token in permutation-major order.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("missing header", 1, 1)
    head = lines[0].split()
    if len(head) != 4 or not all(_INT.match(t) for t in head):
        raise ParseError("header must be four integers: mode q rows cols", 1, 1)
    mode, q, rows, cols = (int(t) for t in head)
    if mode not in (1, 5, 12):
        raise ParseError(f"unsupported mode {mode}", 1, 1)
    if rows < 0 or cols < 0:
        raise ParseError("dimensions must be nonnegative", 1, 1)
    if mode == 12:
        if q != 1:
            raise ParseError("mode 12 requires q = 1", 1, 1)
        return _parse_perms(lines, rows, cols)
    with _reraise():
        field = PrimeField(q)
    if mode == 1:
        if q > 9:
            raise ParseError("mode 1 requires q <= 9", 1, 1)
        return _parse_mode1(lines, field, rows, cols)
    return _parse_mode5(lines, field, rows, cols)


# a mode-1 digit character to its value, as a byte
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _parse_mode1(lines, field, rows, cols):
    need = rows * cols
    digits = "".join("".join(lines[1:]).split())
    # every character that is not ASCII sorts above "9"
    if digits and not (digits.isdigit() and len(digits) <= need and max(digits) < str(field.q)):
        _mode1_fault(lines, field.q, need)
    if len(digits) != need:
        raise ParseError(f"expected {need} digits, found {len(digits)}", len(lines), 1)
    entries = np.frombuffer(digits.encode().translate(_DIGIT_VALUES), dtype=np.uint8)
    return FFMatrix(field, rows, cols, entries)


def _mode1_fault(lines, q, need):
    """Raise the error of the first character of a mode-1 body that is not
    whitespace or an ASCII digit below q, or that is one digit too many."""
    count = 0
    for lineno, line in enumerate(lines[1:], 2):
        for col, ch in enumerate(line, 1):
            if ch.isspace():
                continue
            if ch not in "0123456789":
                raise ParseError(f"unexpected character {ch!r}", lineno, col)
            if count == need:
                raise ParseError("more digits than rows*cols", lineno, col)
            if int(ch) >= q:
                raise ParseError(f"digit {ch} not below field size {q}", lineno, col)
            count += 1


def _parse_mode5(lines, field, rows, cols):
    need = rows * cols
    entries = []
    for lineno, col, v in _integers(lines):
        if len(entries) == need:
            raise ParseError("more entries than rows*cols", lineno, col)
        entries.append(v % field.p)
    if len(entries) != need:
        raise ParseError(f"expected {need} entries, found {len(entries)}", len(lines), 1)
    return FFMatrix(field, rows, cols, entries)


def _parse_perms(lines, degree, count):
    stream = list(_integers(lines))
    if len(stream) != degree * count:
        raise ParseError(
            f"expected {degree * count} images, found {len(stream)}", len(lines), 1
        )
    perms = []
    for c in range(count):
        images = []
        seen = set()
        for r in range(degree):
            lineno, col, v = stream[c * degree + r]
            if not 1 <= v <= degree:
                raise ParseError(f"image {v} outside 1..{degree}", lineno, col)
            if v in seen:
                raise ParseError(f"repeated image {v}", lineno, col)
            seen.add(v)
            images.append(v - 1)
        perms.append(Perm(images))
    return perms


def write_meataxe(obj, mode: int | None = None) -> str:
    """Inverse of parse_meataxe; `obj` is an FFMatrix or a list of Perm."""
    if isinstance(obj, FFMatrix):
        field = obj.field
        if field.k != 1:
            raise ValueError("extension-field matrices use the JSON wrapper format")
        if mode is None:
            mode = 1 if field.q <= 9 else 5
        if mode not in (1, 5):
            raise ValueError(f"matrices cannot be written in mode {mode}")
        if mode == 1 and field.q > 9:
            raise ValueError("mode 1 requires q <= 9")
        sep = "" if mode == 1 else " "
        body = [sep.join(str(v) for v in obj.row(i)) for i in range(obj.rows)]
        head = f"{mode} {field.q} {obj.rows} {obj.cols}"
        return "\n".join([head] + body) + "\n"
    perms = list(obj)
    if mode not in (None, 12):
        raise ValueError(f"permutations cannot be written in mode {mode}")
    if not perms:
        raise ValueError("nothing to write: empty permutation list")
    degree = perms[0].degree
    if any(p.degree != degree for p in perms):
        raise ValueError("permutations must share one degree")
    body = [str(x + 1) for p in perms for x in p.images]
    return "\n".join([f"12 1 {degree} {len(perms)}"] + body) + "\n"


# ---------------------------------------------------------------------------
# JSON helpers


def _load_json(text) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", 1, 1)
    return data


def _is_int(x) -> bool:
    """A JSON integer; json.loads reads true and false as bool, an int subclass."""
    return type(x) is int


def _require(data, key, kind, what):
    if key not in data:
        raise ParseError(f"{what}: missing field {key!r}", 1, 1)
    if not (_is_int(data[key]) if kind is int else isinstance(data[key], kind)):
        raise ParseError(f"{what}: field {key!r} has the wrong type", 1, 1)
    return data[key]


# ---------------------------------------------------------------------------
# extension-field matrices (blow-up inputs)


def parse_ext_matrix(text: str, modulus=None) -> FFMatrix:
    """Matrix over GF(p^k) from the JSON wrapper.

    Fields: p, k, rows, cols, entries (rows of coefficient lists in
    ascending degree), optional modulus (integers, ascending, monic, length
    k+1).  Without one the `modulus` argument applies, then the default; a
    stored modulus that is not a list of ints or differs from `modulus` is
    a ParseError.
    """
    data = _load_json(text)
    p = _require(data, "p", int, "ext matrix")
    k = _require(data, "k", int, "ext matrix")
    rows = _require(data, "rows", int, "ext matrix")
    cols = _require(data, "cols", int, "ext matrix")
    body = _require(data, "entries", list, "ext matrix")
    stored = data.get("modulus")
    if stored is not None:
        if not isinstance(stored, list) or not all(map(_is_int, stored)):
            raise ParseError("ext matrix: modulus must be a list of integers", 1, 1)
        if modulus is not None and tuple(stored) != tuple(modulus):
            raise ParseError(f"ext matrix: modulus {stored} conflicts with {list(modulus)}", 1, 1)
        modulus = stored
    with _reraise():
        field = ExtField(p, k, None if modulus is None else tuple(modulus))
    if len(body) != rows:
        raise ParseError(f"expected {rows} entry rows, found {len(body)}", 1, 1)
    entries = []
    for i, row in enumerate(body):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"entry row {i + 1} must be a list of {cols} scalars", 1, 1)
        for j, scalar in enumerate(row):
            if not isinstance(scalar, list) or len(scalar) > k or not all(map(_is_int, scalar)):
                raise ParseError(
                    f"entry ({i + 1},{j + 1}) must be a coefficient list of length <= {k}",
                    1,
                    1,
                )
            entries.append(field.from_coeffs(scalar))
    with _reraise():  # rows = 0 with cols < 0
        return FFMatrix(field, rows, cols, entries)


def write_ext_matrix(m: FFMatrix) -> str:
    field = m.field
    if field.k == 1:
        raise ValueError("prime-field matrices use the MeatAxe text format")
    data = {
        "p": field.p,
        "k": field.k,
        "modulus": list(field.modulus),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [
            [list(field.coeffs(m[i, j])) for j in range(m.cols)]
            for i in range(m.rows)
        ],
    }
    return json.dumps(data, indent=1) + "\n"


# ---------------------------------------------------------------------------
# tables of marks


def parse_tom(text: str) -> TableOfMarks:
    """Table of marks from JSON: n_classes, orders, sparse 1-based marks
    triples [i, j, m] with j <= i, and optional per-class SLP texts."""
    data = _load_json(text)
    n = _require(data, "n_classes", int, "tom")
    orders = _require(data, "orders", list, "tom")
    triples = _require(data, "marks", list, "tom")
    if n < 1:
        raise ParseError("tom: n_classes must be positive", 1, 1)
    if len(orders) != n or not all(map(_is_int, orders)):
        raise ParseError(f"tom: orders must be {n} integers", 1, 1)
    # the dense rows at 8 bytes a slot, as compute_tom charges them; a bound, not a format error
    check_allocation(f"the marks of {n} classes", 8 * n * n)
    with _reraise("tom: "):
        rows = marks_from_triples(n, triples)
    slps = None
    if data.get("slps") is not None:
        texts = data["slps"]
        if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
            raise ParseError("tom: slps must be a list of program texts", 1, 1)
        if len(texts) != n:
            raise ParseError(f"tom: expected {n} programs, found {len(texts)}", 1, 1)
        # every class program reads the same generator list, so build all
        # programs with the widest inferred input count
        memo = {}
        parsed = [_parse_slp_lines(s, memo) for s in texts]
        width = max(max_input for _, _, max_input in parsed)
        with _reraise():
            slps = tuple(SLProgram(width, statements, returns) for statements, returns, _ in parsed)
    with _reraise("tom: "):
        return TableOfMarks(n, tuple(orders), rows, slps)


def write_tom(tom: TableOfMarks) -> str:
    """The bytes of json.dumps(data, indent=1) + "\\n", joined directly: data holds
    n_classes, orders, the nonzero marks as 1-based [i, j, mark] triples and the
    program texts, if any (json.dumps quotes each text)."""
    orders = ",\n  ".join(map(str, tom.orders))
    triples = ((i + 1, j + 1, m) for i, row in enumerate(tom.marks) for j, m in enumerate(row[: i + 1]) if m)
    marks = ",\n  ".join(f"[\n   {i},\n   {j},\n   {m}\n  ]" for i, j, m in triples)
    text = f'{{\n "n_classes": {tom.n},\n "orders": [\n  {orders}\n ],\n "marks": [\n  {marks}\n ]'
    if tom.slps is not None:
        text += ',\n "slps": [\n  ' + ",\n  ".join(json.dumps(write_slp(p)) for p in tom.slps) + "\n ]"
    return text + "\n}\n"


# ---------------------------------------------------------------------------
# fixed vectors


def parse_fixed_vector(text: str) -> list:
    data = _load_json(text)
    values = _require(data, "values", list, "fixed vector")
    if not all(map(_is_int, values)):
        raise ParseError("fixed vector: values must be integers", 1, 1)
    return values


def write_fixed_vector(values) -> str:
    return json.dumps({"values": list(values)}) + "\n"


# ---------------------------------------------------------------------------
# straight-line programs


# rK = rI * rJ (groups 1, 2, 3) or rK = rI^E (groups 1, 2, 4)
_SLP_STATEMENT = re.compile(r"r([0-9]+)\s*=\s*r([0-9]+)\s*(?:\*\s*r([0-9]+)|\^\s*([+-]?[0-9]+))\Z")
_SLP_SLOT = re.compile(r"r([0-9]+)")


def parse_slp(text: str, n_inputs: int | None = None) -> SLProgram:
    """Program from one statement per line plus a final `return` line.

    Statements are `rK = rI * rJ`, `rK = rI^-1`, `rK = rI^E`.  Slots read
    before being assigned are inputs; when n_inputs is not given it is
    inferred as the largest such slot (at least 1).  A bare `return` encodes
    the empty result list.
    """
    statements, returns, max_input = _parse_slp_lines(text, {})
    return _slprogram(max_input if n_inputs is None else n_inputs, statements, returns)


def _parse_slp_lines(text: str, memo: dict):
    """(statements, returns, largest slot read before assignment, at least 1).

    `memo` maps each statement line already parsed, stripped, to its
    statement; the programs of one table share it.  Return lines are never
    in it.
    """
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
        stmt = memo.get(line)
        if stmt is None:
            if line == "return" or line.startswith("return "):
                rest = line[len("return") :].strip()
                slots = []
                for part in rest.split(",") if rest else ():  # a bare return: no slots
                    part = part.strip()
                    m = _SLP_SLOT.fullmatch(part)
                    if not m:
                        raise ParseError(f"bad return slot {part!r}", lineno, 1)
                    slot = int(m.group(1))
                    if slot > max_input and slot not in defined:
                        max_input = slot
                    slots.append(slot)
                returns = tuple(slots)
                continue
            m = _SLP_STATEMENT.match(line)
            if not m:
                raise ParseError(f"unrecognized statement {line!r}", lineno, 1)
            tgt, a, b, e = m.groups()
            if b is not None:
                stmt = (int(tgt), MUL, int(a), int(b))
            else:
                stmt = (int(tgt), POW, int(a), int(e))
            memo[line] = stmt
        a = stmt[2]
        if a > max_input and a not in defined:
            max_input = a
        if stmt[1] == MUL:
            b = stmt[3]
            if b > max_input and b not in defined:
                max_input = b
        statements.append(stmt)
        defined.add(stmt[0])
    if returns is None:
        raise ParseError("missing return line", max(1, len(text.splitlines())), 1)
    return tuple(statements), returns, max_input


def _slprogram(n_inputs, statements, returns) -> SLProgram:
    with _reraise():
        return SLProgram(n_inputs, statements, returns)


def write_slp(prog: SLProgram) -> str:
    lines = [f"r{t} = r{i} * r{x}" if op == MUL else f"r{t} = r{i}^{x}" for t, op, i, x in prog.statements]
    if prog.returns:
        lines.append("return " + ", ".join(f"r{s}" for s in prog.returns))
    else:
        lines.append("return")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cyclotomic expressions


class _ExprParser:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*;
    factor := int | int '/' int | 'E(' int ')' ('^' int)? | '(' expr ')' | '-' factor
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        before = self.text[: self.pos]
        line = before.count("\n") + 1
        col = self.pos - (before.rfind("\n") + 1) + 1
        raise ParseError(message, line, col)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self, signed=False):
        self.ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def value_at(self, at, fn, *args):
        """fn(*args), with a ValueError (a level past the bound) as a ParseError at position at."""
        try:
            return fn(*args)
        except ValueError as exc:
            self.pos = at
            self.error(str(exc))

    def chain(self, operand, ops):
        """operand (op operand)*, folded from the left; a level error names its operator."""
        value = operand()
        while self.peek() in ops:
            at = self.pos
            self.pos += 1
            value = self.value_at(at, ops[self.text[at]], value, operand())
        return value

    def expr(self):
        return self.chain(self.term, {"+": operator.add, "-": operator.sub})

    def term(self):
        return self.chain(self.factor, {"*": operator.mul})

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.take(")")
            return value
        if ch == "E":
            self.pos += 1
            self.take("(")
            at = self.pos
            n = self.integer(signed=True)
            self.take(")")
            e = 1
            if self.peek() == "^":
                self.pos += 1
                e = self.integer(signed=True)
            return self.value_at(at, Cyclotomic.zeta, n, e)
        if "0" <= ch <= "9":
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                at = self.pos
                den = self.integer()
                if den == 0:
                    self.pos = at
                    self.error("division by zero")
                return Cyclotomic(1, (num,)) / den
            return Cyclotomic(1, (num,))
        self.error("expected a value")


def parse_cyclotomic(text: str) -> Cyclotomic:
    parser = _ExprParser(text)
    value = parser.expr()
    if parser.peek():
        parser.error("unexpected trailing text")
    return value


# ---------------------------------------------------------------------------
# character tables


def parse_chartab(text: str) -> CharacterTable:
    """Character table from JSON: name, n_classes, optional class_names,
    irreducibles as rows of E(n)-expression strings, optional prime."""
    data = _load_json(text)
    name = _require(data, "name", str, "character table")
    n = _require(data, "n_classes", int, "character table")
    body = _require(data, "irreducibles", list, "character table")
    class_names = data.get("class_names") or ()
    if class_names and (
        not isinstance(class_names, list)
        or not all(isinstance(c, str) for c in class_names)
    ):
        raise ParseError("character table: class_names must be strings", 1, 1)
    prime = data.get("prime")
    if prime is not None and not _is_int(prime):
        raise ParseError("character table: prime must be an integer", 1, 1)
    rows = []
    for i, row in enumerate(body, 1):
        if not isinstance(row, list) or len(row) != n or not all(
            isinstance(s, str) for s in row
        ):
            raise ParseError(
                f"character table: row {i} must be {n} expression strings", 1, 1
            )
        values = []
        for j, expr in enumerate(row, 1):
            try:
                values.append(parse_cyclotomic(expr))
            except ParseError as exc:
                raise ParseError(f"row {i}, entry {j}: {exc}") from None
        with _reraise(f"character table: row {i}: "):
            rows.append(CharacterRow(tuple(values)))
    with _reraise("character table: "):
        return CharacterTable(name, tuple(rows), tuple(class_names), prime)


def write_chartab(table: CharacterTable) -> str:
    data = {
        "name": table.name,
        "n_classes": table.n_classes,
    }
    if table.class_names:
        data["class_names"] = list(table.class_names)
    data["irreducibles"] = [
        [str(v) for v in row.values] for row in table.rows
    ]
    if table.prime is not None:
        data["prime"] = table.prime
    return json.dumps(data, indent=1) + "\n"


# ---------------------------------------------------------------------------
# census reports


def write_census_report(report) -> str:
    data = {
        "q": report.q,
        "dim": report.dim,
        "fixed": list(report.fixed),
        "decomp": list(report.decomp),
        "nonzeropos": list(report.nonzeropos),
        "staborders": list(report.staborders),
        "regular_orbits": report.regular_orbits,
    }
    return json.dumps(data, indent=1) + "\n"
