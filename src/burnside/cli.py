"""Command line front end: census, tom, blowup, h2, chartab, slp.

Exit codes: 0 success, 1 usage (bad flags, inconsistent parameters),
2 data-format errors (unreadable, non-UTF-8 or malformed files, a program
of more than MAX_SLOTS inputs, declared q not matching the data, an
ext-matrix modulus that is not a list of integers or conflicts with blowup
--modulus), 3 computation errors (byte bounds exceeded, as by a group of
order past 11585 or a table of marks of more than 5792 classes,
non-integral decompositions, misaligned generators).  All stdout output is
assembled into one string and written at the end, so identical inputs give
byte-identical output.  Evaluation is serial; --threads is accepted for
compatibility and changes nothing.
"""

import argparse
import functools
import sys
from pathlib import Path

from .census import ModuleAction, census_brute_force, census_from_tom
from .chartab import (
    field_of_definition_size,
    galois_partition_by_degree,
    rational_degree_census,
)
from .cohomology import GroupModulePair, h2_dimension, splits_implies
from .cyclotomic import is_prime
from .ffield import FFMatrix, blow_up
from .formats import (
    ParseError,
    parse_chartab,
    parse_ext_matrix,
    parse_fixed_vector,
    parse_meataxe,
    parse_slp,
    parse_tom,
    write_census_report,
    write_meataxe,
    write_tom,
)
from .permgroup import Perm, PermGroup
from .slp import evaluate
from .tom import compute_tom, decompose_fixed_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_COMPUTE = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    """Files that are not UTF-8 text, or well-formed files whose content
    contradicts the declared parameters."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _root(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _check_prime_power(q: int) -> None:
    # no field with q >= 2^63 can be built; refusing it here makes it a
    # usage error, before any file is read
    if q >= 2**63:
        raise UsageError(f"q = {q} is too large: field scalars must fit int64 (q < 2^63)")
    # q = r^k for a prime r, tested on exact k-th roots so nothing is factored
    roots = [_root(q, k) for k in range(1, q.bit_length())] if q > 1 else []
    if not any(r**k == q and is_prime(r) for k, r in enumerate(roots, 1)):
        raise UsageError(f"q = {q} is not a prime power")


def _check_prime(p: int) -> None:
    # a usage error, before any file is read, as for census --q
    if p >= 2**63:
        raise UsageError(f"p = {p} is too large: field scalars must fit int64 (p < 2^63)")
    if not is_prime(p):
        raise UsageError(f"p = {p} is not a prime")


def _note(args, msg):
    if args.verbose:
        print(msg, file=sys.stderr)


def _note_setup(args, group):
    """Note the stabilizer chain's base length and the word tree's depth and levels."""
    if args.verbose:
        table = group.element_table()
        depth = max(map(len, table.words.values()))
        _note(args, f"stabilizer chain: base length {len(group.base())}; "
                    f"word tree: depth {depth}, levels {len(table.tree_levels())}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load(path: str, modulus=None):
    """An ext-matrix JSON file (read with `modulus`) or a MeatAxe file."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return parse_ext_matrix(text, modulus)
    return parse_meataxe(text)


def _matrix_file(path: str, modulus=None) -> FFMatrix:
    obj = _load(path, modulus)
    if not isinstance(obj, FFMatrix):
        raise DataError(f"{path}: expected a matrix file, found permutations")
    return obj


def _perm_group(path: str) -> PermGroup:
    obj = parse_meataxe(_read(path))
    if isinstance(obj, FFMatrix) or not obj:
        raise DataError(f"{path}: expected a mode 12 permutation file")
    return PermGroup(obj[0].degree, obj)


def _gen_matrices(pathlist: str, q: int, flag: str = "q"):
    paths = pathlist.split(",")
    mats = [_matrix_file(p) for p in paths]
    for path, m in zip(paths, mats):
        if m.field.q != q:
            raise DataError(f"{path}: matrix is over GF({m.field.q}), declared {flag} = {q}")
        if m.field != mats[0].field:
            raise DataError("generator matrices live over different fields")
    return mats


def _census_summary(report) -> str:
    return (
        f"regular_orbits {report.regular_orbits}\n"
        f"staborders {list(report.staborders)}\n"
    )


def _cmd_census(args) -> str:
    _check_prime_power(args.q)
    mats = _gen_matrices(args.gens, args.q)
    action = ModuleAction(mats)
    _note(args, f"{len(mats)} generator matrices on GF({action.q})^{action.d}")
    if args.mode == "tom":
        tom = parse_tom(_read(args.tom))
        report = census_from_tom(tom, action)
        if args.verbose:
            for i, (order, fixed, orbits) in enumerate(zip(tom.orders, report.fixed, report.decomp), 1):
                dim = next(d for d in range(report.dim + 1) if report.q**d == fixed)
                _note(args, f"class {i}/{tom.n} |U|={order} fixed_dim={dim} orbits={orbits}")
    else:
        group = _perm_group(args.perm)
        _note(args, f"group of order {group.order()} on {group.degree} points")
        report = census_brute_force(group, action)
        _note_setup(args, group)
    if getattr(args, "out", None):
        Path(args.out).write_text(write_census_report(report))
    return _census_summary(report)


def _cmd_tom(args) -> str:
    if args.mode == "compute":
        group = _perm_group(args.perm)
        _note(args, f"group of order {group.order()} on {group.degree} points")
        tom = compute_tom(group)
        _note_setup(args, group)
        Path(args.out).write_text(write_tom(tom))
        return f"{tom.n} classes\n"
    tom = parse_tom(_read(args.tom))
    fixed = parse_fixed_vector(_read(args.fixed))
    decomp = decompose_fixed_vector(tom, fixed)
    return f"decomp {list(decomp)}\n"


def _cmd_blowup(args) -> str:
    modulus = None
    if args.modulus is not None:
        if args.k == 1:
            raise UsageError("--modulus only applies to extension fields (k >= 2)")
        try:
            modulus = tuple(int(t) for t in args.modulus.split(","))
        except ValueError:
            raise UsageError("--modulus takes comma-separated integers") from None
    m = _matrix_file(args.infile, modulus)
    if m.field.p != args.p or m.field.k != args.k:
        raise DataError(
            f"{args.infile}: matrix is over GF({m.field.p}^{m.field.k}), "
            f"declared p = {args.p}, k = {args.k}"
        )
    _note(args, f"blowing up a {m.rows}x{m.cols} matrix over GF({m.field.q})")
    return write_meataxe(blow_up(m))


def _cmd_h2(args) -> str:
    _check_prime(args.p)
    group = _perm_group(args.perm)
    mats = _gen_matrices(args.mod, args.p, "p")
    pair = GroupModulePair(group, mats)
    _note(args, f"group of order {group.order()}, module GF({pair.p})^{pair.d}")
    _note_setup(args, group)
    dim = h2_dimension(pair, lambda msg: _note(args, msg))
    return f"{dim}\n{splits_implies(pair, dim)}\n"


def _cmd_chartab(args) -> str:
    table = parse_chartab(_read(args.table))
    lines = [f"table {table.name} ({table.n_classes} classes)"]
    lines.append(f"rational degree census: {rational_degree_census(table)}")
    for degree, orbits in galois_partition_by_degree(table):
        shown = " ".join("(" + ", ".join(str(i) for i in o) + ")" for o in orbits)
        word = "class" if len(orbits) == 1 else "classes"
        lines.append(f"degree {degree}: {len(orbits)} Galois {word}: {shown}")
    if args.brauer is not None:
        sizes = [field_of_definition_size(row, args.brauer) for row in table.rows]
        lines.append(f"field of definition sizes (p={args.brauer}): {sizes}")
    return "\n".join(lines) + "\n"


def _cmd_slp(args) -> str:
    prog = parse_slp(_read(args.slp))
    inputs = []
    for path in args.inputs.split(","):
        obj = _load(path)
        if isinstance(obj, FFMatrix):
            inputs.append(obj)
        else:
            inputs.extend(obj)
    results = evaluate(prog, inputs)
    if not results:
        return ""
    if isinstance(results[0], Perm):
        return write_meataxe(results)
    return "".join(write_meataxe(m) for m in results)


# built on the first call, not at import, and kept for later calls of main
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="burnside",
        description="Orbit censuses over tables of marks, with the supporting "
        "finite-field, character and cohomology tools.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; evaluation is serial")
        p.add_argument("--verbose", action="store_true", help="progress notes on stderr")

    census = sub.add_parser("census", help="orbit census of a dual module")
    csub = census.add_subparsers(dest="mode", required=True)
    ct = csub.add_parser("tom", help="census through a table of marks")
    ct.add_argument("--tom", required=True, help="tom file with straight-line programs")
    ct.add_argument("--gens", required=True, help="comma-separated generator matrix files")
    ct.add_argument("--q", required=True, type=int, help="field size of the module")
    ct.add_argument("--out", help="write the full census report here")
    common(ct)
    cb = csub.add_parser("brute", help="census by enumerating the dual space")
    cb.add_argument("--perm", required=True, help="mode 12 permutation generator file")
    cb.add_argument("--gens", required=True, help="comma-separated generator matrix files")
    cb.add_argument("--q", required=True, type=int, help="field size of the module")
    common(cb)

    tom = sub.add_parser("tom", help="tables of marks")
    tsub = tom.add_subparsers(dest="mode", required=True)
    tc = tsub.add_parser("compute", help="table of marks of a permutation group")
    tc.add_argument("--perm", required=True, help="mode 12 permutation generator file")
    tc.add_argument("--out", required=True, help="output tom file")
    common(tc)
    td = tsub.add_parser("decompose", help="decompose a fixed-point vector")
    td.add_argument("--tom", required=True, help="tom file")
    td.add_argument("--fixed", required=True, help="fixed-vector JSON file")
    common(td)

    bl = sub.add_parser("blowup", help="rewrite a GF(p^k) matrix over GF(p)")
    bl.add_argument("--in", dest="infile", required=True, help="matrix file")
    bl.add_argument("--p", required=True, type=int)
    bl.add_argument("--k", required=True, type=int)
    bl.add_argument("--modulus", help="comma-separated modulus coefficients, ascending")
    common(bl)

    h2 = sub.add_parser("h2", help="second cohomology dimension")
    h2.add_argument("--perm", required=True, help="mode 12 permutation generator file")
    h2.add_argument("--mod", required=True, help="comma-separated module matrix files")
    h2.add_argument("--p", required=True, type=int)
    common(h2)

    ch = sub.add_parser("chartab", help="character table reports")
    chsub = ch.add_subparsers(dest="mode", required=True)
    cr = chsub.add_parser("report", help="rational degrees and Galois classes")
    cr.add_argument("--table", required=True, help="character table JSON file")
    cr.add_argument("--brauer", type=int, help="report GF(p^m) fields of definition")
    common(cr)

    slp = sub.add_parser("slp", help="straight-line programs")
    ssub = slp.add_subparsers(dest="mode", required=True)
    se = ssub.add_parser("eval", help="evaluate a program on inputs")
    se.add_argument("--slp", required=True, help="program file")
    se.add_argument("--inputs", required=True, help="comma-separated input files")
    common(se)
    return top


_DISPATCH = {
    "census": _cmd_census,
    "tom": _cmd_tom,
    "blowup": _cmd_blowup,
    "h2": _cmd_h2,
    "chartab": _cmd_chartab,
    "slp": _cmd_slp,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        out = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
