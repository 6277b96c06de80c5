import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import burnside
from burnside import formats, permgroup, tom
from burnside.cli import main
from burnside.corpus import _nonzero_vectors, pair_a4, perm_from_matrix
from burnside.ffield import FFMatrix, PrimeField
from burnside.formats import parse_slp, parse_tom, write_meataxe
from burnside.permgroup import ElementTable, Perm, PermGroup
from burnside.tom import compute_tom
from test_census import _direct_sum, _perm_matrix

DATA = files("burnside") / "data"


def p(name):
    return str(DATA / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- census ----


def test_census_tom_s3(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "census", "tom", "--tom", p("s3.tom.json"),
        "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == "regular_orbits 0\nstaborders [2, 6]\n"
    report = json.loads(out_file.read_text())
    assert report["fixed"] == [4, 2, 1, 1]
    assert report["decomp"] == [0, 1, 0, 1]
    assert report["regular_orbits"] == 0


def test_census_brute_matches_tom(capsys):
    args = ["--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2"]
    code1, out1, _ = run(capsys, "census", "tom", "--tom", p("s3.tom.json"), *args)
    code2, out2, _ = run(capsys, "census", "brute", "--perm", p("s3.perm.mtx"), *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_census_deterministic_and_thread_neutral(capsys):
    argv = ["census", "tom", "--tom", p("s3.tom.json"),
            "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    _, threaded, _ = run(capsys, *argv, "--threads", "3")
    assert first == second == threaded


@pytest.mark.parametrize("flag", ["--threads"])
def test_nonpositive_counts_exit_1(capsys, tmp_path, flag):
    code, out, err = run(capsys, "tom", "compute", "--perm", p("a4.perm.mtx"),
                         "--out", str(tmp_path / "x.json"), flag, "0")
    assert code == 1
    assert out == ""
    assert "positive" in err
    assert not (tmp_path / "x.json").exists()


def test_census_mismatched_tom_and_gens_exits_3(capsys, tmp_path):
    tom_file = tmp_path / "a4.tom.json"
    code, _, _ = run(capsys, "tom", "compute", "--perm", p("a4.perm.mtx"),
                     "--out", str(tom_file))
    assert code == 0
    code, out, err = run(
        capsys, "census", "tom", "--tom", str(tom_file),
        "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen1.mtx')}", "--q", "2",
    )
    assert code == 3
    assert out == ""
    assert "inconsistent fixed vector" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"], ids=["superscript-2", "arabic-indic-1"])
def test_non_ascii_mode1_digit_exits_2(capsys, tmp_path, digit):
    bad = tmp_path / "bad.mtx"
    bad.write_text(f"1 2 1 2\n1{digit}\n", encoding="utf-8")
    for argv in (
        ["blowup", "--in", str(bad), "--p", "2", "--k", "1"],
        ["census", "tom", "--tom", p("s3.tom.json"), "--gens", f"{bad},{p('s3.gen2.mtx')}", "--q", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unexpected character {digit!r} at line 2, column 2" in err


def test_census_tom_with_a_negative_mark_exits_2(capsys, tmp_path):
    # orders 1, 2, 6, 6 pass every older check with the mark -5 at (3, 2)
    bad = tmp_path / "bad.tom.json"
    rows = [[6, 0, 0, 0], [3, 1, 0, 0], [1, -5, 1, 0], [1, 1, 1, 1]]
    triples = [[i + 1, j + 1, m] for i, row in enumerate(rows) for j, m in enumerate(row) if m]
    bad.write_text(json.dumps({"n_classes": 4, "orders": [1, 2, 6, 6], "marks": triples}))
    code, out, err = run(capsys, "census", "tom", "--tom", str(bad),
                         "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2")
    assert (code, out) == (2, "")
    assert "tom: row 3: mark -5 in column 2 is outside 0..1, the index" in err


def test_census_tom_refuses_the_marks_of_5793_classes_before_building_them(capsys, tmp_path):
    # 8 * 5793^2 bytes of dense rows pass 2^28; the refusal is a byte bound
    # (exit 3), not a format error, and comes before any row is built
    big = tmp_path / "big.tom.json"
    big.write_text(json.dumps({"n_classes": 5793, "orders": [1] * 5793, "marks": []}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "census", "tom", "--tom", str(big),
                             "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert "the marks of 5793 classes takes 268470792 bytes, over the bound of 268435456 bytes" in err
    assert peak < 1 << 20


def test_parse_tom_charges_8_bytes_a_mark(monkeypatch):
    # the spy stops the read after the charge, so no table of that size is built
    class Charged(Exception):
        pass

    charged = []

    def spy(what, nbytes):
        charged.append(nbytes)
        raise Charged

    monkeypatch.setattr(formats, "check_allocation", spy)
    for n in (5792, 5793):
        with pytest.raises(Charged):
            parse_tom(json.dumps({"n_classes": n, "orders": [1] * n, "marks": []}))
    assert charged == [8 * 5792**2, 8 * 5793**2]
    permgroup.check_allocation("the marks of 5792 classes", charged[0])
    with pytest.raises(ValueError, match="over the bound"):
        permgroup.check_allocation("the marks of 5793 classes", charged[1])


def test_census_q_validation(capsys):
    gens = f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}"
    code, _, err = run(capsys, "census", "tom", "--tom", p("s3.tom.json"),
                       "--gens", gens, "--q", "6")
    assert code == 1 and "prime power" in err
    code, _, err = run(capsys, "census", "tom", "--tom", p("s3.tom.json"),
                       "--gens", gens, "--q", "3")
    assert code == 2 and "declared q" in err


# the prime 2^63 - 25 passes on to the missing file; (2^61 - 1) * 3 is no
# prime power; (2^61 - 1)^2 and the prime 2^89 - 1 do not fit int64; none
# may wait on trial division
@pytest.mark.parametrize(
    "q,expected",
    [(2**63 - 25, 2), ((2**61 - 1) * 3, 1), ((2**61 - 1) ** 2, 1), (2**89 - 1, 1)],
    ids=["prime", "composite", "square_past_int64", "prime_past_int64"],
)
def test_census_large_q_checked_at_once(capsys, tmp_path, q, expected):
    start = time.monotonic()
    code, out, err = run(capsys, "census", "tom", "--tom", p("s3.tom.json"),
                         "--gens", str(tmp_path / "missing.mtx"), "--q", str(q))
    assert (code, out) == (expected, "")
    if q >= 2**63:
        assert "int64" in err
    assert time.monotonic() - start < 5


# ---------------------------------------------------------------- tom ----


def test_tom_compute_writes_the_library_table(capsys, tmp_path):
    out_file = tmp_path / "a4.tom.json"
    code, out, _ = run(capsys, "tom", "compute", "--perm", p("a4.perm.mtx"),
                       "--out", str(out_file))
    assert code == 0
    assert out == "5 classes\n"
    group, _ = pair_a4()
    direct = compute_tom(group)
    reparsed = parse_tom(out_file.read_text())
    assert reparsed.marks == direct.marks
    assert reparsed.orders == direct.orders


def test_tom_compute_trivial_group(capsys, tmp_path):
    perm = tmp_path / "triv.mtx"
    perm.write_text("12 1 1 1\n1\n")
    out_file = tmp_path / "triv.tom.json"
    code, out, _ = run(capsys, "tom", "compute", "--perm", str(perm),
                       "--out", str(out_file))
    assert code == 0
    assert out == "1 classes\n"
    assert parse_tom(out_file.read_text()).marks == ((1,),)


def test_tom_compute_oversized_product_table_exits_3(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("the elements were enumerated")

    monkeypatch.setattr(ElementTable, "__init__", never)
    # A8, order 20160: a 20160 x 20160 table of 2-byte indices
    perm = tmp_path / "a8.mtx"
    perm.write_text(write_meataxe([Perm.from_cycles(8, [(0, 1, 2)]),
                                   Perm.from_cycles(8, [(1, 2, 3, 4, 5, 6, 7)])]))
    out_file = tmp_path / "a8.tom.json"
    code, out, err = run(capsys, "tom", "compute", "--perm", str(perm),
                         "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert "812851200 bytes" in err
    assert not out_file.exists()


@pytest.mark.parametrize("cycles,message", [
    # 2310 * 2309 / 2 word entries at 8 bytes: 21 MB, refused at some depth
    ((2, 3, 5, 7, 11), r"the element search to depth \d+ \(\d+ elements\) takes \d+ bytes, over the bound"),
    # 1500 image tuples of 1500 entries at 8 bytes: 18 MB, refused before the search
    ((1500,), "the image tuples of 1500 elements on 1500 points takes 18000000 bytes, over the bound"),
], ids=["C2310 on 28 points", "regular C1500"])
def test_element_search_is_charged_for_its_tuples_and_words(capsys, tmp_path, monkeypatch, cycles, message):
    monkeypatch.setattr(permgroup, "SYSTEM_BYTES_BOUND", 2**24)
    points = iter(range(sum(cycles)))
    gen = Perm.from_cycles(sum(cycles), [tuple(next(points) for _ in range(c)) for c in cycles])
    order = gen.order()
    assert 2 * order * order < 2**24  # the product table alone fits
    perm = tmp_path / "cyclic.mtx"
    perm.write_text(write_meataxe([gen]))
    out_file = tmp_path / "cyclic.tom.json"
    code, out, err = run(capsys, "tom", "compute", "--perm", str(perm), "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert re.search(message, err)
    assert not out_file.exists()


@pytest.mark.parametrize("argv,expected", [
    (["tom", "compute", "--perm", p("s3.perm.mtx"), "--out", "{tmp}/s3.tom.json"], (2, 2)),
    (["census", "brute", "--perm", p("s3.perm.mtx"), "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}",
      "--q", "2"], (2, 2)),
    (["h2", "--perm", p("c2.perm.mtx"), "--mod", p("c2.mod.mtx"), "--p", "2"], (1, 1)),
], ids=["tom compute", "census brute", "h2"])
def test_verbose_notes_the_chain_and_the_tree(capsys, tmp_path, argv, expected):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, plain, quiet = run(capsys, *argv)
    assert code == 0 and quiet == ""
    code, out, err = run(capsys, *argv, "--verbose")
    assert code == 0 and out == plain
    lines = [line for line in err.splitlines() if line.startswith("stabilizer chain")]
    base, depth = expected
    assert lines == [f"stabilizer chain: base length {base}; word tree: depth {depth}, levels {depth}"]


def test_tom_compute_oversized_marks_exit_3(capsys, tmp_path, monkeypatch):
    # the classes are found under the byte bound; then the bound drops to
    # the bytes of the marks (8 a list slot) and the membership table, and
    # gathering the marks of the first class is refused
    find = tom.subgroup_classes

    def classes_then_small_bound(group):
        classes = find(group)
        monkeypatch.setattr(permgroup, "SYSTEM_BYTES_BOUND", 8 * len(classes) ** 2 + len(classes) * group.order())
        return classes

    monkeypatch.setattr(tom, "subgroup_classes", classes_then_small_bound)
    perm = tmp_path / "s5.mtx"
    perm.write_text(write_meataxe([Perm.from_cycles(5, [(0, 1)]), Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]))
    out_file = tmp_path / "s5.tom.json"
    code, out, err = run(capsys, "tom", "compute", "--perm", str(perm), "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert re.search(r"the marks of class 1 takes \d+ bytes, over the bound of 5168 bytes", err)
    assert not out_file.exists()


def test_tom_compute_refuses_marks_of_too_many_classes(capsys, tmp_path):
    # C2^7 has order 128 but 29212 subgroup classes: the classes fit the byte
    # bound, the 29212 x 29212 marks do not, and nothing is written
    gens = [Perm.from_cycles(14, [(2 * i, 2 * i + 1)]) for i in range(7)]
    perm = tmp_path / "c2x7.mtx"
    perm.write_text(write_meataxe(gens))
    out_file = tmp_path / "c2x7.tom.json"
    code, out, err = run(capsys, "tom", "compute", "--perm", str(perm), "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert "the marks and membership table of 29212 classes takes 6830466688 bytes" in err
    assert not out_file.exists()


def test_census_oracle_reaches_m11(capsys, tmp_path):
    # M11 on two copies of its 11-point permutation module over GF(2)
    gens = [Perm.from_cycles(11, [tuple(range(11))]), Perm.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])]
    perm = tmp_path / "m11.perm.mtx"
    perm.write_text(write_meataxe(gens))
    mats = [tmp_path / f"m11.gen{k}.mtx" for k in range(2)]
    for path, g in zip(mats, gens):
        path.write_text(write_meataxe(_direct_sum([_perm_matrix(PrimeField(2), g)] * 2, 0)))
    tom_file = tmp_path / "m11.tom.json"
    code, out, _ = run(capsys, "tom", "compute", "--perm", str(perm), "--out", str(tom_file))
    assert (code, out) == (0, "39 classes\n")
    args = ["--gens", ",".join(map(str, mats)), "--q", "2"]
    code1, out1, _ = run(capsys, "census", "tom", "--tom", str(tom_file), *args)
    code2, out2, _ = run(capsys, "census", "brute", "--perm", str(perm), *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("regular_orbits 288\n")


def test_tom_decompose(capsys, tmp_path):
    code, out, _ = run(capsys, "tom", "decompose", "--tom", p("s3.tom.json"),
                       "--fixed", p("s3.fixed.json"))
    assert code == 0
    assert out == "decomp [0, 1, 0, 1]\n"
    bad = tmp_path / "bad.json"
    bad.write_text('{"values": [5, 2, 1, 1]}\n')
    code, _, err = run(capsys, "tom", "decompose", "--tom", p("s3.tom.json"),
                       "--fixed", str(bad))
    assert code == 3
    assert "inconsistent fixed vector" in err


def test_tom_decompose_boolean_values_exit_2(capsys, tmp_path):
    fixed = tmp_path / "fixed.json"
    fixed.write_text('{"values": [true, false, false, false]}\n')
    code, out, err = run(capsys, "tom", "decompose", "--tom", p("s3.tom.json"), "--fixed", str(fixed))
    assert code == 2 and out == ""
    assert "values must be integers" in err


# ------------------------------------------------------------- blowup ----


def test_blowup_zeta_over_gf4(capsys):
    code, out, _ = run(capsys, "blowup", "--in", p("gf4gen.json"), "--p", "2", "--k", "2")
    assert code == 0
    assert out == "1 2 2 2\n01\n11\n"


def test_blowup_validation(capsys):
    code, _, err = run(capsys, "blowup", "--in", p("gf4gen.json"), "--p", "3", "--k", "2")
    assert code == 2 and "declared p" in err
    code, _, err = run(capsys, "blowup", "--in", p("gf4gen.json"), "--p", "2", "--k", "2",
                       "--modulus", "1,0,1")
    assert code == 2 and "conflicts" in err
    code, _, err = run(capsys, "blowup", "--in", p("c2.mod.mtx"), "--p", "2", "--k", "1",
                       "--modulus", "1,1")
    assert code == 1


def test_blowup_boolean_shape_exits_2(capsys, tmp_path):
    src = tmp_path / "m.json"
    src.write_text(Path(p("gf4gen.json")).read_text().replace('"rows": 1', '"rows": true'))
    code, out, err = run(capsys, "blowup", "--in", str(src), "--p", "2", "--k", "2")
    assert code == 2 and out == ""
    assert "field 'rows' has the wrong type" in err


def test_blowup_explicit_matching_modulus(capsys):
    code, out, _ = run(capsys, "blowup", "--in", p("gf4gen.json"), "--p", "2", "--k", "2",
                       "--modulus", "1,1,1")
    assert code == 0
    assert out == "1 2 2 2\n01\n11\n"


@pytest.mark.parametrize("modulus", [["a", 1, 1], 5], ids=["non-int entry", "int"])
def test_malformed_stored_modulus_exits_2(capsys, tmp_path, modulus):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"p": 2, "k": 2, "modulus": modulus, "rows": 1, "cols": 1,
                               "entries": [[[0, 1]]]}))
    for argv in (
        ["blowup", "--in", str(src), "--p", "2", "--k", "2"],
        ["census", "tom", "--tom", p("s3.tom.json"), "--gens", f"{src},{src}", "--q", "4"],
        ["blowup", "--in", str(src), "--p", "2", "--k", "2", "--modulus", "1,1,1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "modulus must be a list of integers" in err


def test_blowup_unrepresentable_field_exits_2(capsys, tmp_path):
    src = tmp_path / "big.json"
    src.write_text('{"p": 4294967311, "k": 2, "rows": 1, "cols": 1, "entries": [[[0, 1]]]}')
    code, out, err = run(capsys, "blowup", "--in", str(src), "--p", "4294967311", "--k", "2")
    assert code == 2 and out == ""
    assert "GF(4294967311^2) is too large" in err


# ----------------------------------------------------------------- h2 ----


def test_h2_c2_trivial_module(capsys):
    code, out, _ = run(capsys, "h2", "--perm", p("c2.perm.mtx"),
                       "--mod", p("c2.mod.mtx"), "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert "2 equivalence classes of extensions" in lines[1]


def elementary_abelian_files(tmp_path, k, d=1):
    """h2 arguments for C2^k on the trivial GF(2)^d module."""
    gens = [Perm.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)]
    perm = tmp_path / f"c2x{k}.perm.mtx"
    perm.write_text(write_meataxe(gens))
    mod = tmp_path / f"triv{d}.mtx"
    mod.write_text(write_meataxe(FFMatrix.identity(PrimeField(2), d)))
    return ["h2", "--perm", str(perm), "--mod", ",".join([str(mod)] * k), "--p", "2"]


def elementary_abelian_h2(capsys, tmp_path, k, d=1):
    """Run h2 on C2^k with the trivial GF(2)^d module."""
    return run(capsys, *elementary_abelian_files(tmp_path, k, d))


def test_h2_order_64(capsys, tmp_path):
    code, out, _ = elementary_abelian_h2(capsys, tmp_path, 6)
    assert code == 0
    assert out.splitlines()[0] == "21"


def test_h2_order_128_in_bounded_time_and_memory(tmp_path):
    # a child process, so its peak memory is its own.  Linux carries
    # ru_maxrss across exec, so a child of this large process would report
    # at least the size of its parent; VmHWM, the peak resident set of the
    # child's own address space, is the same measure without that
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status for the peak resident set")
    script = (
        "import sys\n"
        "from burnside.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "peak = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(peak[0].split()[1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    src = str(Path(burnside.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script, *elementary_abelian_files(tmp_path, 7)],
                          env=env, capture_output=True, text=True, timeout=60)
    seconds = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "28"
    assert seconds < 30
    assert int(done.stderr.split()[-1]) < 100 * 1024  # in KiB


def gl32_files(tmp_path, dual):
    """h2 arguments for GL(3,2) on its 7 points and on F_2^3 or its dual."""
    f = PrimeField(2)
    mats = [FFMatrix.from_rows(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            FFMatrix.from_rows(f, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])]
    perm = tmp_path / "gl32.perm.mtx"
    perm.write_text(write_meataxe([perm_from_matrix(m, _nonzero_vectors(f, 3)) for m in mats]))
    paths = []
    for i, m in enumerate(mats):
        path = tmp_path / f"gl32.{i}.mtx"
        path.write_text(write_meataxe(m.transpose().inverse() if dual else m))
        paths.append(str(path))
    return ["h2", "--perm", str(perm), "--mod", ",".join(paths), "--p", "2"]


@pytest.mark.parametrize("dual", [False, True], ids=["natural", "dual"])
def test_h2_gl32_is_nonsplit(capsys, tmp_path, dual):
    # H^2(L3(2), F_2^3) = F_2: the nonsplit 2^3.L3(2) of the ATLAS
    code, out, _ = run(capsys, *gl32_files(tmp_path, dual))
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "group of order 168 on a 3-dimensional GF(2) module" in out


def test_h2_oversized_system_exits_3(capsys, tmp_path):
    # C2^7 on the trivial GF(2)^7: 6272 unknowns; its basis alone takes
    # 8 * 6272^2 = 314703872 bytes, and the spin holds 1483955200
    code, out, err = elementary_abelian_h2(capsys, tmp_path, 7, d=7)
    assert code == 3
    assert out == ""
    assert "6272 unknowns takes 1483955200 bytes" in err


def test_h2_verbose_reports_each_round_on_stderr_only(capsys, tmp_path):
    argv = elementary_abelian_files(tmp_path, 6)
    _, plain, quiet = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--verbose")
    assert code == 0 and out == plain and quiet == ""
    rounds = [line for line in err.splitlines() if line.startswith("round ")]
    assert len(rounds) == 1  # the seeds span the spun module
    rank = re.fullmatch(r"round 1: rank (\d+), \d+\.\d\d s", rounds[0]).group(1)
    assert rank == "300"  # the rank of the whole system


@pytest.mark.parametrize("bad", ["4", "6", "1"])
def test_h2_p_must_be_prime(capsys, bad):
    # checked before any file is read, as census checks --q
    for mod in ("gf4gen.json", "c2.mod.mtx", "no-such-file.mtx"):
        code, out, err = run(capsys, "h2", "--perm", p("c2.perm.mtx"), "--mod", p(mod), "--p", bad)
        assert (code, out) == (1, "")
        assert f"p = {bad} is not a prime" in err


def test_h2_field_mismatch_names_p(capsys):
    code, out, err = run(capsys, "h2", "--perm", p("c2.perm.mtx"), "--mod", p("c2.mod.mtx"), "--p", "3")
    assert (code, out) == (2, "")
    assert "matrix is over GF(2), declared p = 3" in err


def test_h2_misaligned_module_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("1 2 2 2\n01\n11\n")  # order 3, cannot represent C2
    code, _, err = run(capsys, "h2", "--perm", p("c2.perm.mtx"),
                       "--mod", str(bad), "--p", "2")
    assert code == 3
    assert "aligned" in err or "homomorphism" in err


# ------------------------------------------------------------ chartab ----


def test_chartab_report_d18(capsys):
    code, out, _ = run(capsys, "chartab", "report", "--table", p("d18.json"))
    assert code == 0
    assert "rational degree census: [(1, 2), (2, 1)]" in out
    assert "degree 2: 2 Galois classes: (3, 4, 6) (5)" in out


def test_chartab_report_brauer_sizes(capsys):
    code, out, _ = run(capsys, "chartab", "report", "--table", p("sz8mod2.json"),
                       "--brauer", "2")
    assert code == 0
    assert "field of definition sizes (p=2): [2, 8, 8, 8]" in out
    code, _, err = run(capsys, "chartab", "report", "--table", p("sz8mod2.json"),
                       "--brauer", "7")
    assert code == 3
    assert "divides" in err


# ---------------------------------------------------------------- slp ----


def test_slp_eval_product(capsys, tmp_path):
    prog = tmp_path / "prog.slp"
    prog.write_text("r3 = r1 * r2\nreturn r3\n")
    code, out, _ = run(capsys, "slp", "eval", "--slp", str(prog),
                       "--inputs", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}")
    assert code == 0
    # [[0,1],[1,0]] * [[0,1],[1,1]] = [[1,1],[0,1]]
    assert out == "1 2 2 2\n11\n01\n"


def test_slp_eval_perm_inputs(capsys, tmp_path):
    prog = tmp_path / "prog.slp"
    prog.write_text("r3 = r2 * r2\nreturn r3, r1\n")
    code, out, _ = run(capsys, "slp", "eval", "--slp", str(prog),
                       "--inputs", p("s3.perm.mtx"))
    assert code == 0
    assert out.startswith("12 1 3 2\n")


def test_slp_eval_empty_return(capsys, tmp_path):
    prog = tmp_path / "prog.slp"
    prog.write_text("return\n")
    code, out, _ = run(capsys, "slp", "eval", "--slp", str(prog),
                       "--inputs", p("s3.gen1.mtx"))
    assert code == 0
    assert out == ""


def test_slp_eval_reads_at_most_max_slots_inputs(capsys, tmp_path):
    prog = tmp_path / "prog.slp"
    prog.write_text("return r10001\n")
    code, out, err = run(capsys, "slp", "eval", "--slp", str(prog), "--inputs", p("s3.gen1.mtx"))
    assert (code, out) == (2, "")
    assert "input slot r10001 outside 1..10000 at line 1, column 1" in err
    assert parse_slp("return r10000\n").n_inputs == 10_000


def test_slp_eval_missing_input_exits_3(capsys, tmp_path):
    prog = tmp_path / "prog.slp"
    prog.write_text("r3 = r1 * r2\nreturn r3\n")
    code, _, _ = run(capsys, "slp", "eval", "--slp", str(prog),
                     "--inputs", p("s3.gen1.mtx"))
    assert code == 3


# -------------------------------------------------------- usage, errors --


def test_usage_errors(capsys):
    assert run(capsys, "census", "tom", "--nonsense")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1


def test_usage_error_between_runs_changes_nothing(capsys):
    # one parser serves every main call of a process
    argv = ["census", "tom", "--tom", p("s3.tom.json"),
            "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2"]
    first = run(capsys, *argv, "--verbose", "--threads", "3")
    assert run(capsys, "census", "tom", "--tom", p("s3.tom.json"), "--q", "2")[0] == 1
    second = run(capsys, *argv)
    assert first[:2] == second[:2] == (0, "regular_orbits 0\nstaborders [2, 6]\n")
    assert first[2] and not second[2]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "census", "--help")[0] == 0
    assert run(capsys, "census", "tom", "--help")[0] == 0


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "chartab", "report", "--table", "/nonexistent.json")
    assert code == 2
    assert err


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a header\n")
    code, _, err = run(capsys, "tom", "compute", "--perm", str(bad),
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "header" in err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"1 2 1 1\n\xff\n")
    gens = f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}"
    for argv in (
        ["blowup", "--in", str(bad), "--p", "2", "--k", "1"],
        ["census", "tom", "--tom", str(bad), "--gens", gens, "--q", "2"],
        ["tom", "decompose", "--tom", str(bad), "--fixed", p("s3.fixed.json")],
        ["chartab", "report", "--table", str(bad)],
        ["slp", "eval", "--slp", str(bad), "--inputs", p("s3.gen1.mtx")],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"{bad}: not UTF-8 text at byte 8" in err


def test_perm_file_where_matrix_expected(capsys):
    code, _, err = run(capsys, "blowup", "--in", p("s3.perm.mtx"), "--p", "2", "--k", "1")
    assert code == 2
    assert "expected a matrix" in err


def test_matrix_file_where_perms_expected(capsys):
    code, _, err = run(capsys, "tom", "compute", "--perm", p("s3.gen1.mtx"),
                       "--out", "/tmp/never-written.json")
    assert code == 2
    assert "permutation" in err


def test_verbose_goes_to_stderr_only(capsys):
    argv = ["census", "tom", "--tom", p("s3.tom.json"),
            "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2"]
    _, plain, _ = run(capsys, *argv)
    _, out, err = run(capsys, *argv, "--verbose")
    assert out == plain
    assert err


def test_census_tom_verbose_reports_each_class(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    argv = ["census", "tom", "--tom", p("s3.tom.json"),
            "--gens", f"{p('s3.gen1.mtx')},{p('s3.gen2.mtx')}", "--q", "2", "--out", str(report_file)]
    _, plain, quiet = run(capsys, *argv)
    assert quiet == ""
    _, out, err = run(capsys, *argv, "--verbose")
    assert out == plain
    report = json.loads(report_file.read_text())
    lines = [line for line in err.splitlines() if line.startswith("class ")]
    assert len(lines) == 4
    for i, line in enumerate(lines):
        m = re.fullmatch(r"class (\d+)/4 \|U\|=(\d+) fixed_dim=(\d+) orbits=(\d+)", line)
        assert m and int(m[1]) == i + 1
        assert 2 ** int(m[3]) == report["fixed"][i]
        assert int(m[4]) == report["decomp"][i]
    assert [int(re.search(r"\|U\|=(\d+)", line)[1]) for line in lines] == [1, 2, 3, 6]


def test_census_tom_on_s3_summed_33_times_over_gf2(capsys, tmp_path):
    # 66 columns, past one 64-bit word: each involution fixes 2^33 dual
    # vectors and each 3-cycle only 1, so (2^66 - 3 * 2^33 + 2) / 6 are regular
    gens = []
    for k in (1, 2):
        m = formats.parse_meataxe((DATA / f"s3.gen{k}.mtx").read_text())
        wide = FFMatrix(PrimeField(2), 66, 66, np.kron(np.eye(33, dtype=np.int64), m.array))
        gens.append(tmp_path / f"s3x33.gen{k}.mtx")
        gens[-1].write_text(write_meataxe(wide))
    code, out, _ = run(capsys, "census", "tom", "--tom", p("s3.tom.json"),
                       "--gens", ",".join(map(str, gens)), "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == f"regular_orbits {(2**66 - 3 * 2**33 + 2) // 6}" == "regular_orbits 12297829378178067115"


def test_census_tom_on_a_dense_s4_module_over_gf7(capsys, tmp_path):
    # S4's GF(7)^4 permutation module summed 8 times, conjugated by a fixed
    # dense matrix of determinant 1: eliminations of up to 32 pivots pass the
    # 6 after which GF(7)'s packed slots are reduced
    s4 = [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 1)])]
    (tmp_path / "s4.perm.mtx").write_text(write_meataxe(s4))
    code, _, _ = run(capsys, "tom", "compute", "--perm", str(tmp_path / "s4.perm.mtx"),
                     "--out", str(tmp_path / "s4.tom.json"))
    assert code == 0
    i, j = np.indices((32, 32))
    one = np.eye(32, dtype=np.int64)
    c = FFMatrix(PrimeField(7), 32, 32, (np.tril(i * j + 3 * i + j, -1) + one) @ (np.triu(i + 2 * j, 1) + one) % 7)
    gens = []
    for k, g in enumerate(s4):
        block = [[int(b == g(a)) for b in range(4)] for a in range(4)]
        m = FFMatrix(PrimeField(7), 32, 32, np.kron(np.eye(8, dtype=np.int64), block))
        gens.append(tmp_path / f"s4x8.gen{k}.mtx")
        gens[-1].write_text(write_meataxe(c * m * c.inverse()))
    code, out, _ = run(capsys, "census", "tom", "--tom", str(tmp_path / "s4.tom.json"),
                       "--gens", ",".join(map(str, gens)), "--q", "7")
    assert code == 0
    assert out.splitlines()[0] == "regular_orbits 46017771864870746879520400"


# -------------------------------------------------------- huge primes ----

HUGE = (2**61 - 1) ** 2  # past the range where is_prime is exact


def huge_prime_case(tmp_path, case):
    """The argv of one CLI run that meets HUGE, with the files it reads."""
    if case in ("chartab prime", "brauer"):
        table = json.loads((DATA / "d18.json").read_text())
        if case == "chartab prime":
            table["prime"] = HUGE
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        extra = ["--brauer", str(HUGE)] if case == "brauer" else []
        return ["chartab", "report", "--table", str(path), *extra]
    if case == "meataxe header":
        path = tmp_path / "big.mtx"
        path.write_text(f"1 {HUGE} 1 1\n1\n")
    else:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": HUGE, "k": 1, "rows": 1, "cols": 1, "entries": [[[1]]]}))
    return ["census", "tom", "--tom", p("s3.tom.json"), "--gens", str(path), "--q", "2"]


def run_child(argv):
    """The CLI run in a child process with a timeout, so a stall fails the test instead of hanging it."""
    env = dict(os.environ)
    src = str(Path(burnside.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "burnside.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("case,code", [("chartab prime", 2), ("meataxe header", 2),
                                       ("ext matrix", 2), ("brauer", 3)])
def test_huge_primes_are_refused_at_once(tmp_path, case, code):
    run = run_child(huge_prime_case(tmp_path, case))
    assert (run.returncode, run.stdout) == (code, "")
    assert f"{HUGE}" in run.stderr and "too large" in run.stderr


def test_cyclotomic_level_past_the_bound_is_refused_at_once(tmp_path):
    table = tmp_path / "level.json"
    table.write_text('{"name": "t", "n_classes": 1, "irreducibles": [["E(100000)^-1"]]}')
    run = run_child(["chartab", "report", "--table", str(table)])
    assert (run.returncode, run.stdout) == (2, "")
    assert "E(100000): level must be at most 1000" in run.stderr
    # the expression's own place, not a second one for the table around it
    assert re.findall(r"at line \d+, column \d+", run.stderr) == ["at line 1, column 3"]
