"""The five workloads: inputs from a seed, CLI steps, and output checks.

A workload is a list of cases.  A case is a few CLI invocations through
`burnside.cli.main(argv)` plus a check of everything they printed or wrote.
Checks never depend on the seed: census reports are basis-invariant, marks
do not depend on the generating set, and H^2 dimensions are known.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import inputs
from burnside import census, cli, formats
from burnside.ffield import FFMatrix, PrimeField
from burnside.permgroup import Perm, PermGroup
from burnside.slp import evaluate

DATA = Path(__file__).resolve().parent / "data"
S6_TOM = DATA / "s6.tom.json"
S6_TOM_SHA256 = "4834146a03f48b5009aa7ba2fcb97b24eb9eb44a678f3ae44ff74c0a94f20de2"

# dim H^2(G, GF(2)) for the trivial module: k(k+1)/2 for C2^k, 3 for
# dihedral 2-groups, 2 for S4
H2_EXPECTED = {"C2^4": 10, "D16": 3, "S4": 2}


@dataclass
class Case:
    name: str
    # each step is (argv, path for stdout or None), or a callable
    steps: list
    check: object  # outs -> list of problems
    outs: list = field(default_factory=list)


def load_references():
    return json.loads((DATA / "references.json").read_text())


def verify_s6_table():
    digest = hashlib.sha256(S6_TOM.read_bytes()).hexdigest()
    if digest != S6_TOM_SHA256:
        raise RuntimeError(f"{S6_TOM} has sha256 {digest}, expected {S6_TOM_SHA256}")
    return str(S6_TOM)


def marks_digest(tom):
    data = json.dumps([list(tom.orders), [list(r) for r in tom.marks]])
    return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------- running


def run_case(case, tracer):
    """Run the steps; returns a problem string or None."""
    case.outs = []
    for step in case.steps:
        if callable(step):
            step()
            case.outs.append("")
            continue
        argv, save = step
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--threads", "1"])
        if code != 0:
            return f"{' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}"
        if save is not None:
            Path(save).write_text(out.getvalue())
        case.outs.append(out.getvalue())
    return None


# ------------------------------------------------------------------ checks


def _summary(report):
    return f"regular_orbits {report['regular_orbits']}\nstaborders {report['staborders']}\n"


def _check_report(path, ref, stdout):
    problems = []
    got = json.loads(Path(path).read_text())
    if got != ref:
        diff = sorted(k for k in ref if got.get(k) != ref[k])
        problems.append(f"{Path(path).name} differs from the reference in {diff}")
    if stdout != _summary(ref):
        problems.append(f"stdout {stdout!r} differs from the reference summary")
    return problems


def check_tom(gens, path, ref_digest, outs):
    tom = formats.parse_tom(Path(path).read_text())  # validates the table
    problems = []
    if outs[0] != f"{tom.n} classes\n":
        problems.append(f"stdout {outs[0]!r} does not give {tom.n} classes")
    if marks_digest(tom) != ref_digest:
        problems.append("orders and marks differ from the reference table")
    degree = gens[0].degree
    for i, prog in enumerate(tom.slps):
        sub = evaluate(prog, gens) or [Perm.identity(degree)]
        if PermGroup(degree, sub).order() != tom.orders[i]:
            problems.append(f"program of class {i + 1} does not generate a group of order {tom.orders[i]}")
    return problems


def check_census(path, ref, outs):
    return _check_report(path, ref, outs[0])


def check_ext(native, blown, ref, outs):
    problems = _check_report(native, ref, outs[0])
    got = json.loads(Path(blown).read_text())
    expect = dict(ref, q=2, dim=2 * ref["dim"])
    if got != expect:
        problems.append("the census of the GF(2) blow-up differs from the GF(4) census")
    if outs[-1] != outs[0]:
        problems.append("blow-up census summary differs from the GF(4) summary")
    return problems


def check_h2(expected, outs):
    lines = outs[0].splitlines()
    if not lines or lines[0] != str(expected):
        return [f"h2 printed {lines[:1]}, expected {expected}"]
    if f"dim H^2 = {expected}" not in outs[0]:
        return ["h2 verdict line does not repeat the dimension"]
    return []


def check_oracle(path, ref, outs):
    problems = _check_report(path, ref, outs[2])
    if outs[3] != outs[2]:
        problems.append(f"brute force {outs[3]!r} != tom route {outs[2]!r}")
    return problems


# ------------------------------------------------------------------ set-up


def setup_tom(seed, work, refs):
    cases = []
    for name, gens in inputs.TOM_GROUPS.items():
        pick = inputs.random_generating_set(gens, inputs.rng_for(seed, name))
        perm = inputs.write_perms(pick, work / f"{name}.perm")
        out = work / f"{name}.tom.json"
        steps = [(["tom", "compute", "--perm", perm, "--out", str(out)], None)]
        cases.append(Case(name, steps, partial(check_tom, pick, out, refs["tom"][name])))
    return cases


def setup_census_prime(seed, work, refs):
    tom = verify_s6_table()
    cases = []
    for name, (q, dim, summands) in inputs.CENSUS_MODULES.items():
        mats = inputs.s6_module(q, summands, dim, inputs.rng_for(seed, name))
        gens = inputs.write_matrices(mats, work / name)
        report = work / f"{name}.report.json"
        argv = ["census", "tom", "--tom", tom, "--gens", gens, "--q", str(q),
                "--out", str(report)]
        cases.append(Case(name, [(argv, None)], partial(check_census, report, refs["census"][name])))
    return cases


def setup_census_ext(seed, work, refs):
    tom = verify_s6_table()
    q, dim, summands = inputs.EXT_MODULE
    mats = inputs.s6_module(q, summands, dim, inputs.rng_for(seed, "gf4_14"))
    gens = inputs.write_matrices(mats, work / "gf4_14")
    native = work / "gf4_14.report.json"
    blown_report = work / "gf2_28_blown.report.json"
    steps = [(["census", "tom", "--tom", tom, "--gens", gens, "--q", "4",
               "--out", str(native)], None)]
    blown = []
    for i, path in enumerate(gens.split(","), 1):
        out = work / f"gf2_28_blown.g{i}.mtx"
        steps.append((["blowup", "--in", path, "--p", "2", "--k", "2"], out))
        blown.append(str(out))
    steps.append((["census", "tom", "--tom", tom, "--gens", ",".join(blown), "--q", "2",
                   "--out", str(blown_report)], None))
    check = partial(check_ext, native, blown_report, refs["census"]["gf4_14"])
    return [Case("gf4_14", steps, check)]


def setup_h2(seed, work, refs):
    one = FFMatrix.from_rows(PrimeField(2), [[1]])
    cases = []
    for name, gens in inputs.H2_GROUPS.items():
        pick = inputs.random_generating_set(gens, inputs.rng_for(seed, name))
        stem = name.replace("^", "")
        perm = inputs.write_perms(pick, work / f"{stem}.perm")
        mod = inputs.write_matrices([one] * len(pick), work / stem)
        steps = [(["h2", "--perm", perm, "--mod", mod, "--p", "2"], None)]
        cases.append(Case(name, steps, partial(check_h2, H2_EXPECTED[name])))
    return cases


def validate_pair(perm_path, gens):
    """Check the inputs are aligned, through the library's own validator."""
    group_gens = formats.parse_meataxe(Path(perm_path).read_text())
    mats = [formats.parse_meataxe(Path(p).read_text()) for p in gens.split(",")]
    group = PermGroup(group_gens[0].degree, group_gens)
    census.validate_action_homomorphism(group, census.ModuleAction(mats))


def setup_oracle(seed, work, refs):
    cases = []
    for k, (name, perms, mats, q) in enumerate(inputs.oracle_pairs()):
        mats = inputs.conjugate(mats, q, inputs.rng_for(seed, name))
        perm = inputs.write_perms(perms, work / f"pair{k}.perm")
        gens = inputs.write_matrices(mats, work / f"pair{k}")
        tom = str(work / f"pair{k}.tom.json")
        report = work / f"pair{k}.report.json"
        common = ["--gens", gens, "--q", str(q)]
        steps = [
            partial(validate_pair, perm, gens),
            (["tom", "compute", "--perm", perm, "--out", tom], None),
            (["census", "tom", "--tom", tom, *common, "--out", str(report)], None),
            (["census", "brute", "--perm", perm, *common], None),
        ]
        cases.append(Case(name, steps, partial(check_oracle, report, refs["oracle"][name])))
    return cases


SETUP = {
    "tom": setup_tom,
    "census_prime": setup_census_prime,
    "census_ext": setup_census_ext,
    "h2": setup_h2,
    "oracle": setup_oracle,
}

# the host-speed kernel (hostspeed.KERNELS) whose slow-downs match the
# workload's; the others do interpreter work
SPEED_KERNEL = {"h2": "array"}
