"""Format round trips and parse errors with line/column reporting."""

import json
import random
import re
from importlib.resources import files

import pytest

from burnside import cyclotomic, formats
from burnside.chartab import (
    CharacterRow,
    CharacterTable,
    galois_partition_by_degree,
    rational_degree_census,
)
from burnside.cli import main
from burnside.cyclotomic import Cyclotomic, zeta
from burnside.ffield import ExtField, FFMatrix, PrimeField, blow_up
from burnside.formats import (
    ParseError,
    parse_chartab,
    parse_cyclotomic,
    parse_ext_matrix,
    parse_fixed_vector,
    parse_meataxe,
    parse_slp,
    parse_tom,
    write_chartab,
    write_ext_matrix,
    write_fixed_vector,
    write_meataxe,
    write_slp,
    write_tom,
)
from burnside.permgroup import Perm, PermGroup
from burnside.slp import MUL, POW, SLProgram, evaluate
from burnside.tom import TableOfMarks, compute_tom

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def random_matrix(field, rows, cols, rng):
    return FFMatrix(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


# ---------------------------------------------------------------------------
# MeatAxe text


def test_mode1_identity():
    m = parse_meataxe("1 2 2 2\n10\n01\n")
    assert m == FFMatrix.identity(GF2, 2)


def test_mode12_three_cycle():
    perms = parse_meataxe("12 1 3 1\n2\n3\n1\n")
    assert perms == [Perm.from_cycles(3, [(0, 1, 2)])]


def test_mode5_reduction():
    m = parse_meataxe("5 5 1 3\n6 -1 2\n")
    assert m == FFMatrix.from_rows(GF5, [[1, 4, 2]])


def test_mode1_and_mode5_parse_equal():
    rng = random.Random(0)
    for field in (GF2, GF3, GF5):
        m = random_matrix(field, 3, 4, rng)
        assert parse_meataxe(write_meataxe(m, 1)) == parse_meataxe(write_meataxe(m, 5))


def test_meataxe_round_trips():
    rng = random.Random(1)
    for field in (GF2, GF3, GF5, PrimeField(7)):
        m = random_matrix(field, 4, 3, rng)
        for mode in (1, 5):
            assert parse_meataxe(write_meataxe(m, mode)) == m
    big = random_matrix(PrimeField(11), 2, 5, rng)
    assert parse_meataxe(write_meataxe(big)) == big  # q > 9 falls back to mode 5
    perms = [Perm.from_cycles(5, [(0, 1, 2, 3, 4)]), Perm.from_cycles(5, [(1, 4), (2, 3)])]
    assert parse_meataxe(write_meataxe(perms)) == perms


def test_meataxe_arbitrary_line_breaks():
    assert parse_meataxe("1 3 2 2\n12\n21\n") == parse_meataxe("1 3 2 2\n1221\n")
    assert parse_meataxe("1 3 2 2\n1\n2 2\n1\n") == parse_meataxe("1 3 2 2\n1221\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 2 2\n",
        "9 2 2 2\n",
        "1 4 1 1\n0\n",  # 4 is not prime
        "1 11 1 1\n0\n",  # mode 1 caps the field size
        "12 2 3 1\n1\n2\n3\n",  # mode 12 wants q = 1
        "1 2 2 2\n10\n0\n",  # too few digits
        "1 2 2 2\n10\n011\n",  # too many digits
        "5 5 1 2\n3 x\n",
        "12 1 3 1\n1\n1\n2\n",  # repeated image
        "12 1 3 1\n1\n4\n2\n",  # image out of range
    ],
)
def test_meataxe_rejects(text):
    with pytest.raises(ParseError):
        parse_meataxe(text)


def test_meataxe_error_locations():
    with pytest.raises(ParseError) as info:
        parse_meataxe("1 2 2 2\n10\n21\n")
    assert info.value.line == 3 and info.value.col == 1
    with pytest.raises(ParseError) as info:
        parse_meataxe("12 1 3 1\n1\n1\n2\n")
    assert info.value.line == 3
    assert "line 3" in str(info.value)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661", "\uff15"], ids=["superscript-2", "arabic-indic-1", "fullwidth-5"])
def test_mode1_digits_are_ascii(digit):
    # a superscript two once reached int() and an Arabic-Indic one was read as 1
    with pytest.raises(ParseError) as info:
        parse_meataxe(f"1 2 1 2\n1{digit}\n")
    assert str(info.value) == f"unexpected character {digit!r} at line 2, column 2"
    with pytest.raises(ParseError) as info:
        parse_meataxe(f"1 3 2 2\n 12\n0 {digit}\n")
    assert (info.value.line, info.value.col) == (3, 3)


@pytest.mark.parametrize("text", [
    "1 2 1 \u0662\n10\n",  # header
    "5 5 1 2\n3 \u0664\n",  # mode 5
    "12 1 2 1\n\u0662\n1\n",  # mode 12
])
def test_integer_tokens_are_ascii(text):
    with pytest.raises(ParseError):
        parse_meataxe(text)
    parse_meataxe(text.replace("\u0662", "2").replace("\u0664", "4"))


def test_slp_and_expression_digits_are_ascii():
    for text in ["r3 = r1 * r\u0662\nreturn r3\n", "r3 = r1^\u0662\nreturn r3\n", "return r\u0661\n"]:
        with pytest.raises(ParseError):
            parse_slp(text)
    for text in ["\u0662", "E(\u0663)", "1/\u0662", "2\u00b2"]:
        with pytest.raises(ParseError):
            parse_cyclotomic(text)
    # whitespace other than ASCII still separates SLP tokens
    assert parse_slp("r3 =\u00a0r1 * r2\nreturn r3\n") == parse_slp("r3 = r1 * r2\nreturn r3\n")


def test_write_meataxe_rejects_unwritable():
    with pytest.raises(ValueError):
        write_meataxe(random_matrix(PrimeField(11), 2, 2, random.Random(2)), 1)
    with pytest.raises(ValueError):
        write_meataxe([])
    gf4 = ExtField(2, 2)
    with pytest.raises(ValueError):
        write_meataxe(FFMatrix.identity(gf4, 2))


# ---------------------------------------------------------------------------
# extension-field matrix wrapper


def test_ext_matrix_round_trip_and_blowup():
    gf4 = ExtField(2, 2)
    m = FFMatrix(gf4, 1, 1, [gf4.gen])
    text = write_ext_matrix(m)
    back = parse_ext_matrix(text)
    assert back == m
    assert blow_up(back) == FFMatrix.from_rows(GF2, [[0, 1], [1, 1]])


def test_ext_matrix_round_trip_random():
    rng = random.Random(3)
    gf8 = ExtField(2, 3)
    gf9 = ExtField(3, 2)
    for field in (gf8, gf9):
        m = random_matrix(field, 3, 2, rng)
        assert parse_ext_matrix(write_ext_matrix(m)) == m


def test_ext_matrix_rejects():
    with pytest.raises(ParseError):
        parse_ext_matrix("{")
    with pytest.raises(ParseError):
        parse_ext_matrix("[]")
    with pytest.raises(ParseError):
        parse_ext_matrix('{"p": 2, "k": 2, "rows": 1, "cols": 1}')
    with pytest.raises(ParseError):  # reducible modulus
        parse_ext_matrix(
            '{"p": 2, "k": 2, "modulus": [1, 0, 1], "rows": 1, "cols": 1, "entries": [[[1]]]}'
        )
    with pytest.raises(ParseError):  # coefficient list too long
        parse_ext_matrix(
            '{"p": 2, "k": 2, "rows": 1, "cols": 1, "entries": [[[1, 0, 1]]]}'
        )
    with pytest.raises(ValueError):
        write_ext_matrix(FFMatrix.identity(GF2, 1))


def test_ext_matrix_passed_modulus():
    bare = '{"p": 2, "k": 2, "rows": 1, "cols": 1, "entries": [[[0, 1]]]}'
    assert parse_ext_matrix(bare, (1, 1, 1)).field.modulus == (1, 1, 1)
    stored = '{"p": 3, "k": 2, "modulus": [2, 2, 1], "rows": 1, "cols": 1, "entries": [[[1]]]}'
    assert parse_ext_matrix(stored, (2, 2, 1)).field.modulus == (2, 2, 1)
    with pytest.raises(ParseError, match="conflicts"):
        parse_ext_matrix(stored, (2, 1, 1))
    for bad in ('"x"', "5", '[1, "a", 1]', "[1, 1.0, 1]", '{"c": 1}'):
        with pytest.raises(ParseError, match="modulus must be a list of integers"):
            parse_ext_matrix(bare.replace('"rows"', f'"modulus": {bad}, "rows"'))
    with pytest.raises(ParseError):  # a shape numpy cannot take
        parse_ext_matrix('{"p": 2, "k": 2, "rows": 0, "cols": -1, "entries": []}')


def test_ext_matrix_over_an_unrepresentable_field_is_a_parse_error():
    # GF(p^2) with q >= 2^63: its scalars do not fit int64
    text = '{"p": 4294967311, "k": 2, "rows": 1, "cols": 1, "entries": [[[1, 1]]]}'
    with pytest.raises(ParseError, match="too large"):
        parse_ext_matrix(text)


# ---------------------------------------------------------------------------
# tables of marks


def s4_group():
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])])


def test_tom_round_trip_with_slps():
    tom = compute_tom(s4_group())
    back = parse_tom(write_tom(tom))
    assert back.n == tom.n and back.orders == tom.orders and back.marks == tom.marks
    assert back.slps == tom.slps
    assert parse_tom(write_tom(back)) == back


def json_tom(tom):
    """write_tom's bytes as json's encoder writes them."""
    data = {
        "n_classes": tom.n,
        "orders": list(tom.orders),
        "marks": [[i + 1, j + 1, m] for i, row in enumerate(tom.marks) for j, m in enumerate(row[: i + 1]) if m],
    }
    if tom.slps is not None:
        data["slps"] = [write_slp(p) for p in tom.slps]
    return json.dumps(data, indent=1) + "\n"


def tom_of(*gens):
    return compute_tom(PermGroup(gens[0].degree, gens))


def without_programs(tom):
    return TableOfMarks(tom.n, tom.orders, tom.marks)


WRITTEN_TOMS = {
    "s3.tom.json": lambda: parse_tom((files("burnside") / "data" / "s3.tom.json").read_text()),
    "S5": lambda: tom_of(Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])),
    "S6": lambda: tom_of(Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])),
    # x -> x + 1 and x -> -1/x on the projective line over GF(7), infinity = 7
    "PSL(2,7)": lambda: tom_of(Perm([1, 2, 3, 4, 5, 6, 0, 7]), Perm([7, 6, 3, 2, 5, 4, 1, 0])),
    "S4 without programs": lambda: without_programs(compute_tom(s4_group())),
}


@pytest.mark.parametrize("name", WRITTEN_TOMS)
def test_write_tom_matches_json_dumps(name):
    tom = WRITTEN_TOMS[name]()
    text = write_tom(tom)
    assert text == json_tom(tom)
    assert ('"slps"' in text) == (tom.slps is not None)
    if name == "s3.tom.json":  # the bundled file was written by write_tom
        assert text == (files("burnside") / "data" / name).read_text()


def test_tom_builds_each_program_once(monkeypatch):
    s5 = PermGroup(5, [Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])])
    tom = compute_tom(s5)
    text = write_tom(tom)
    built = []
    post_init = SLProgram.__post_init__
    monkeypatch.setattr(SLProgram, "__post_init__", lambda self: (built.append(self), post_init(self)))
    back = parse_tom(text)
    assert tom.n == len(built) == 19
    assert back == tom
    # as programs parsed one by one and then widened to the common input count
    progs = [parse_slp(write_slp(p)) for p in tom.slps]
    width = max(p.n_inputs for p in progs)
    assert back.slps == tuple(SLProgram(width, p.statements, p.returns) for p in progs)


def test_tom_parses_each_distinct_statement_line_once(monkeypatch):
    from test_reader_parity import S6_TEXT, reference_parse_tom

    statement = formats._SLP_STATEMENT
    matched = []

    class Spy:
        def match(self, line):
            matched.append(line)
            return statement.match(line)

    monkeypatch.setattr(formats, "_SLP_STATEMENT", Spy())
    tom = parse_tom(S6_TEXT)
    lines = {
        line.strip()
        for text in json.loads(S6_TEXT)["slps"]
        for line in text.splitlines()
        if line.strip() and not line.startswith("return")
    }
    assert len(lines) == 101
    assert sorted(matched) == sorted(lines)
    # and another table is parsed afresh: the memo lives for one call
    parse_tom(S6_TEXT)
    assert len(matched) == 2 * len(lines)
    monkeypatch.setattr(formats, "_SLP_STATEMENT", statement)
    assert tom == reference_parse_tom(S6_TEXT)


def s3_shaped_table(row):
    """Orders 1, 2, 6, 6 and the marks of S3 on its first two classes, with
    `row` as the third; every check before the coset bounds passes."""
    return (4, (1, 2, 6, 6), ((6, 0, 0, 0), (3, 1, 0, 0), row, (1, 1, 1, 1)))


@pytest.mark.parametrize("marks,message", [
    # a mark counts cosets of U_3, so it is not negative ...
    (s3_shaped_table((1, -5, 1, 0)), "row 3: mark -5 in column 2 is outside 0..1, the index"),
    # ... nor above their number
    ((4, (1, 2, 3, 6), ((6, 0, 0, 0), (3, 7, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1))),
     "row 2: mark 7 in column 2 is outside 0..3, the index"),
    # and m[i][i] = |N(U_i):U_i| divides m[i][0] = |G:U_i|
    ((4, (1, 2, 3, 6), ((6, 0, 0, 0), (3, 2, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1))),
     "row 2: diagonal mark 2 does not divide the index 3"),
])
def test_tom_coset_bounds(marks, message):
    n, orders, rows = marks
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TableOfMarks(n, orders, rows)
    triples = [[i + 1, j + 1, m] for i, row in enumerate(rows) for j, m in enumerate(row) if m]
    text = json.dumps({"n_classes": n, "orders": list(orders), "marks": triples})
    with pytest.raises(ParseError, match=f"^tom: {re.escape(message)} at line 1, column 1$"):
        parse_tom(text)


@pytest.mark.parametrize("orders,marks,message", [
    # 4 does not divide 6, although the first column holds 6 // 4
    ((1, 4, 6), ((6, 0, 0), (1, 1, 0), (1, 1, 1)), "row 2: first column must be the index of U_2"),
    # a wrong index comes before a zero diagonal mark in the same row
    ((1, 2, 3, 6), ((6, 0, 0, 0), (2, 0, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1)),
     "row 2: first column must be the index of U_2"),
    ((1, 2, 3, 6), ((6, 0, 0, 0), (3, 0, 0, 0), (2, 1, 2, 0), (1, 1, 1, 1)),
     "diagonal mark of class 2 must be positive"),
    ((1, 2, 3, 6), ((6, 0, 0, 0), (3, 1, 0, 0), (2, 1, 2, 0), (1, 1, 1, 1)),
     "mark (3,2) nonzero but order does not divide"),
    ((1, 2, 3, 6), ((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0), (1, 1, 0, 1)),
     "last row (the one-point G-set) must be all ones"),
    ((1, 2, 3, 6), ((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0), (1, 1, 1)), "marks rows must have length n"),
])
def test_tom_check_messages(orders, marks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TableOfMarks(len(orders), orders, marks)


def test_tom_checks_values_beyond_64_bits():
    # C_p for a p above 2^64: the checks run on Python ints
    p = 2**64 + 13
    tom = TableOfMarks(2, (1, p), ((p, 0), (1, 1)))
    text = write_tom(tom)
    assert parse_tom(text) == tom
    with pytest.raises(ParseError, match="row 1: first column must be the index of U_1"):
        parse_tom(text.replace(str(p), str(p + 1), 1))
    with pytest.raises(ValueError, match=f"row 3: mark {p} in column 2 is outside 0..1"):
        TableOfMarks(*s3_shaped_table((1, p, 1, 0)))


def test_tom_minimal_file():
    tom = parse_tom('{"n_classes": 1, "orders": [1], "marks": [[1, 1, 1]]}')
    assert tom.marks == ((1,),)
    assert tom.slps is None


def test_tom_s3_literal():
    text = """
    {"n_classes": 4, "orders": [1, 2, 3, 6],
     "marks": [[1,1,6], [2,1,3], [2,2,1], [3,1,2], [3,3,2],
               [4,1,1], [4,2,1], [4,3,1], [4,4,1]]}
    """
    tom = parse_tom(text)
    assert tom.marks == ((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1))


@pytest.mark.parametrize(
    "text",
    [
        '{"n_classes": 1, "orders": [1]}',
        '{"n_classes": 2, "orders": [1, 2], "marks": [[1,1,2], [1,2,1], [2,1,1], [2,2,1]]}',
        '{"n_classes": 2, "orders": [1, 2], "marks": [[1,1,2], [2,1,1], [2,2,1], [2,2,1]]}',
        '{"n_classes": 2, "orders": [1, 2], "marks": [[1,1,3], [2,1,1], [2,2,1]]}',
        '{"n_classes": 2, "orders": [1, 2], "marks": [[1,1,2], [2,1,1], [2,2,1]], "slps": ["return r1\\n"]}',
        '{"n_classes": 2, "orders": [2, 1], "marks": [[1,1,2], [2,1,1], [2,2,1]]}',
    ],
)
def test_tom_rejects(text):
    with pytest.raises(ParseError):
        parse_tom(text)


def test_fixed_vector_round_trip():
    values = [4, 2, 1, 1]
    assert parse_fixed_vector(write_fixed_vector(values)) == values
    with pytest.raises(ParseError):
        parse_fixed_vector('{"values": [1, "x"]}')
    with pytest.raises(ParseError):
        parse_fixed_vector("[1, 2]")


# ---------------------------------------------------------------------------
# straight-line programs


def test_slp_identity_program():
    prog = parse_slp("return r1\n")
    assert prog == SLProgram(1, (), (1,))


def test_slp_product_program():
    prog = parse_slp("r3 = r1 * r2\nreturn r3\n")
    assert prog == SLProgram(2, ((3, MUL, 1, 2),), (3,))


def test_slp_inverse_then_product():
    prog = parse_slp("r3 = r1^-1\nr4 = r3 * r2\nreturn r4\n")
    rng = random.Random(4)
    while True:
        a = random_matrix(GF3, 2, 2, rng)
        b = random_matrix(GF3, 2, 2, rng)
        if a.is_invertible() and b.is_invertible():
            break
    assert evaluate(prog, [a, b]) == [a.inverse() * b]


def test_slp_power_statements():
    assert parse_slp("r2 = r1^5\nreturn r2\n").statements == ((2, POW, 1, 5),)
    assert parse_slp("r2 = r1^-1\nreturn r2\n").statements == ((2, POW, 1, -1),)
    assert write_slp(parse_slp("r2 = r1^-1\nreturn r2\n")) == "r2 = r1^-1\nreturn r2\n"
    assert parse_slp("r2 = r1^-3\nreturn r2\n").statements == ((2, POW, 1, -3),)


def test_slp_bare_return_is_trivial_subgroup():
    prog = parse_slp("return\n")
    assert prog.returns == ()


def test_slp_round_trip():
    progs = [
        SLProgram(2, ((3, MUL, 1, 2), (4, POW, 3, -1), (5, POW, 4, 7)), (5, 2)),
        SLProgram(1, (), (1,)),
        SLProgram(3, (), ()),
    ]
    for prog in progs:
        text = write_slp(prog)
        assert parse_slp(text, prog.n_inputs) == prog
    tom = compute_tom(s4_group())
    for prog in tom.slps:
        assert parse_slp(write_slp(prog), prog.n_inputs) == prog


def test_slp_input_inference():
    assert parse_slp("r3 = r1 * r2\nreturn r3\n").n_inputs == 2
    assert parse_slp("r2 = r7 * r7\nreturn r2\n").n_inputs == 7
    assert parse_slp("return\n").n_inputs == 1


def test_slp_rejects():
    with pytest.raises(ParseError):
        parse_slp("r3 = r1 * r2\n")  # missing return
    with pytest.raises(ParseError):
        parse_slp("r3 = r1 + r2\nreturn r3\n")  # malformed statement
    with pytest.raises(ParseError):
        parse_slp("return r3\nr3 = r1 * r1\n")  # statement after return
    with pytest.raises(ParseError):
        parse_slp("return r1, x2\n")
    with pytest.raises(ParseError):  # use before define with explicit inputs
        parse_slp("r4 = r3 * r1\nreturn r4\n", n_inputs=2)
    err = None
    try:
        parse_slp("r2 = r1 * r1\nr3 = r2 @ r2\nreturn r3\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


# ---------------------------------------------------------------------------
# cyclotomic expressions


def test_expr_known_values():
    a = parse_cyclotomic("E(7)+E(7)^2+E(7)^4")
    assert a == zeta(7) + zeta(7, 2) + zeta(7, 4)
    assert parse_cyclotomic("E(4)^2") == -1
    c = parse_cyclotomic("E(5)+E(5)^4")
    assert c.level == 5
    assert (2 * c + 1) ** 2 == 5  # c = (-1+sqrt(5))/2


def test_expr_grammar_forms():
    assert parse_cyclotomic("3/2") == Cyclotomic.from_rational(3) / 2
    assert parse_cyclotomic("-E(9)") == -zeta(9)
    assert parse_cyclotomic("2*E(9)^2") == 2 * zeta(9, 2)
    assert parse_cyclotomic("(1+E(4))*(1-E(4))") == 2
    assert parse_cyclotomic("E(7)^-1") == zeta(7, 6)
    assert parse_cyclotomic(" 1 + 2 * E(3) ") == 1 + 2 * zeta(3)
    assert parse_cyclotomic("--1") == 1


def random_expr(rng, depth=0):
    if depth >= 2 or rng.random() < 0.45:
        kind = rng.randrange(4)
        if kind == 0:
            return str(rng.randrange(0, 9))
        if kind == 1:
            return f"{rng.randrange(1, 9)}/{rng.randrange(1, 9)}"
        n = rng.randrange(1, 13)
        if kind == 2:
            return f"E({n})"
        return f"E({n})^{rng.randrange(-6, 12)}"
    if rng.random() < 0.2:
        return f"-({random_expr(rng, depth + 1)})"
    op = rng.choice("+-*")
    return f"({random_expr(rng, depth + 1)}){op}({random_expr(rng, depth + 1)})"


def test_expr_random_round_trips():
    rng = random.Random(5)
    for _ in range(80):
        text = random_expr(rng)
        value = parse_cyclotomic(text)
        assert parse_cyclotomic(str(value)) == value


def test_parser_commutes_with_addition():
    rng = random.Random(6)
    for _ in range(40):
        a = random_expr(rng)
        b = random_expr(rng)
        assert parse_cyclotomic(f"({a})+({b})") == parse_cyclotomic(a) + parse_cyclotomic(b)


def test_expr_rejects():
    for bad in ["", "E(0)", "E(-3)", "1/0", "2+", "(1", "1)", "E(7", "E(7)^", "x"]:
        with pytest.raises(ParseError):
            parse_cyclotomic(bad)
    with pytest.raises(ParseError) as info:
        parse_cyclotomic("1 + 1/0")
    assert info.value.col == 7
    with pytest.raises(ParseError) as info:
        parse_cyclotomic("E(0)")
    assert info.value.col == 3


def test_expr_level_bound():
    # the cost of E(n) grows fast with n: a level past the bound is refused
    # at its column before any vector of that length is built
    assert parse_cyclotomic(f"E({cyclotomic.MAX_LEVEL})^-1").level == cyclotomic.MAX_LEVEL
    for text, col in (("E(100000)^-1", 3), (f"1 + E( {cyclotomic.MAX_LEVEL + 1})", 7)):
        with pytest.raises(ParseError, match=f"at most {cyclotomic.MAX_LEVEL}") as info:
            parse_cyclotomic(text)
        assert info.value.col == col


def test_expr_product_level_bound(tmp_path, capsys):
    # each E(n) is under the bound, their product's level lcm(31, 37) = 1147 is
    # not: a ParseError at the operator, and a format error (exit 2) in the CLI
    for text, col in (("E(31)*E(37)", 6), ("1 + (E(31) - E(37))", 12)):
        with pytest.raises(ParseError, match=f"level 1147 must be at most {cyclotomic.MAX_LEVEL}") as info:
            parse_cyclotomic(text)
        assert (info.value.line, info.value.col) == (1, col)
    table = tmp_path / "t.json"
    table.write_text('{"name": "t", "n_classes": 1, "irreducibles": [["E(31)*E(37)"]]}')
    assert main(["chartab", "report", "--table", str(table)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "row 1, entry 1: level 1147 must be at most 1000 at line 1, column 6" in err


BOOLEAN_INTEGERS = [
    (parse_ext_matrix, '{"p": 2, "k": 2, "rows": true, "cols": 1, "entries": [[[0, 1]]]}'),
    (parse_ext_matrix, '{"p": 2, "k": true, "rows": 1, "cols": 1, "entries": [[[1]]]}'),
    (parse_ext_matrix, '{"p": 2, "k": 2, "modulus": [1, true, 1], "rows": 1, "cols": 1, "entries": [[[1]]]}'),
    (parse_ext_matrix, '{"p": 2, "k": 2, "rows": 1, "cols": 1, "entries": [[[false, true]]]}'),
    (parse_tom, '{"n_classes": true, "orders": [1], "marks": [[1, 1, 1]]}'),
    (parse_tom, '{"n_classes": 1, "orders": [true], "marks": [[1, 1, 1]]}'),
    (parse_tom, '{"n_classes": 1, "orders": [1], "marks": [[1, 1, true]]}'),
    (parse_fixed_vector, '{"values": [true, false, false, false]}'),
    (parse_chartab, '{"name": "t", "n_classes": true, "irreducibles": [["1"]]}'),
]


@pytest.mark.parametrize("parse,text", BOOLEAN_INTEGERS)
def test_json_booleans_are_not_integers(parse, text):
    with pytest.raises(ParseError):
        parse(text)
    # the same file with integers in their place parses
    parse(text.replace("true", "1").replace("false", "0"))


# ---------------------------------------------------------------------------
# character tables


def d18_json():
    return """
    {"name": "Dihedral(18)", "n_classes": 6,
     "class_names": ["1a", "9a", "9b", "3a", "9c", "2a"],
     "irreducibles": [
       ["1", "1", "1", "1", "1", "1"],
       ["1", "1", "1", "1", "1", "-1"],
       ["2", "E(9)+E(9)^8", "E(9)^2+E(9)^7", "-1", "E(9)^4+E(9)^5", "0"],
       ["2", "E(9)^2+E(9)^7", "E(9)^4+E(9)^5", "-1", "E(9)+E(9)^8", "0"],
       ["2", "-1", "-1", "2", "-1", "0"],
       ["2", "E(9)^4+E(9)^5", "E(9)+E(9)^8", "-1", "E(9)^2+E(9)^7", "0"]
     ]}
    """


def test_chartab_parse_and_reports():
    table = parse_chartab(d18_json())
    assert table.name == "Dihedral(18)"
    assert table.n_classes == 6
    assert table.prime is None
    assert rational_degree_census(table) == [(1, 2), (2, 1)]
    assert galois_partition_by_degree(table) == [
        (1, ((1,), (2,))),
        (2, ((3, 4, 6), (5,))),
    ]


def test_chartab_round_trip():
    table = parse_chartab(d18_json())
    assert parse_chartab(write_chartab(table)) == table
    brauer = CharacterTable(
        "toy mod 2",
        (CharacterRow((1, 1)), CharacterRow((2, zeta(7) + zeta(7, 2) + zeta(7, 4)))),
        ("1a", "7a"),
        prime=2,
    )
    assert parse_chartab(write_chartab(brauer)) == brauer


def test_chartab_rejects():
    with pytest.raises(ParseError):
        parse_chartab('{"name": "t", "n_classes": 2, "irreducibles": [["1"]]}')
    with pytest.raises(ParseError):
        parse_chartab('{"name": "t", "n_classes": 1, "irreducibles": [["E(0)"]]}')
    with pytest.raises(ParseError):
        parse_chartab('{"name": "t", "n_classes": 2, "irreducibles": [["0", "1"]]}')
    with pytest.raises(ParseError):
        parse_chartab('{"name": "t", "n_classes": 1, "irreducibles": [["1"]], "prime": "x"}')
