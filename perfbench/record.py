"""Regenerate perfbench/data: the stored S6 table and the reference outputs.

Run from the repository root:  python3 perfbench/record.py

The references come from library calls, not from the CLI path the
benchmark times: compute_tom for the tables, census_from_tom for the S6
census reports and census_brute_force (the oracle) for the oracle pairs.
All of them are seed-independent, so seed 0 is used for the inputs.  Print
the new S6 digest and copy it into workloads.S6_TOM_SHA256.  Takes about a
minute on one core.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from burnside.census import ModuleAction, census_brute_force, census_from_tom  # noqa: E402
from burnside.formats import parse_tom, write_census_report, write_tom  # noqa: E402
from burnside.permgroup import PermGroup  # noqa: E402
from burnside.tom import compute_tom  # noqa: E402
from workloads import DATA, S6_TOM, marks_digest  # noqa: E402


def _report(report):
    return json.loads(write_census_report(report))


def main():
    DATA.mkdir(exist_ok=True)
    refs = {"tom": {}, "census": {}, "oracle": {}}
    for name, gens in inputs.TOM_GROUPS.items():
        tom = compute_tom(PermGroup(gens[0].degree, gens))
        refs["tom"][name] = marks_digest(tom)
        if name == "S6":
            S6_TOM.write_text(write_tom(tom))
    s6 = parse_tom(S6_TOM.read_text())
    modules = dict(inputs.CENSUS_MODULES, gf4_14=inputs.EXT_MODULE)
    for name, (q, dim, summands) in modules.items():
        mats = inputs.s6_module(q, summands, dim, inputs.rng_for(0, name))
        refs["census"][name] = _report(census_from_tom(s6, ModuleAction(mats)))
    for name, perms, mats, q in inputs.oracle_pairs():
        group = PermGroup(perms[0].degree, perms)
        refs["oracle"][name] = _report(census_brute_force(group, ModuleAction(mats)))
    (DATA / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    print("S6_TOM_SHA256 =", hashlib.sha256(S6_TOM.read_bytes()).hexdigest())


if __name__ == "__main__":
    main()
