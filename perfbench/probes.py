"""Which program functions the traced run wraps, and the per-layer metrics.

Every time metric is the self time of its span in one pass: time inside the
wrapped call minus time inside wrapped calls it made.  The prediction column
of NOTES.md says which end-to-end metric and workload each should move.
"""

import statistics

from tracer import Tracer

# name, unit, better
PER_LAYER = [
    ("permgroup.subgroup_classes_s", "s", "lower"),
    ("permgroup.elements_s", "s", "lower"),
    ("permgroup.conjugacy_s", "s", "lower"),
    ("permgroup.perm_mul_calls", "count", "lower"),
    ("permgroup.mulclose_calls", "count", "lower"),
    ("permgroup.classes_found", "count", "higher"),
    ("permgroup.seed_yield", "ratio", "higher"),
    ("tom.marks_s", "s", "lower"),
    ("tom.decompose_s", "s", "lower"),
    ("census.brute_force_s", "s", "lower"),
    ("census.brute_vectors", "count", "lower"),
    ("census.validate_s", "s", "lower"),
    ("census.fixed_dim_s", "s", "lower"),
    ("slp.evaluate_s", "s", "lower"),
    ("slp.statements", "count", "lower"),
    *[(f"ffield.matmul_s.q{q}", "s", "lower") for q in (2, 3, 4, 5)],
    *[(f"ffield.matmul_calls.q{q}", "count", "lower") for q in (2, 3, 4, 5)],
    *[(f"ffield.nullspace_s.q{q}", "s", "lower") for q in (2, 3, 4, 5)],
    ("ffield.nullspace_calls", "count", "lower"),
    ("ffield.blow_up_s", "s", "lower"),
    ("ffield.inverse_s", "s", "lower"),
    ("ffield.rank_s", "s", "lower"),
    ("cohomology.pair_s", "s", "lower"),
    ("cohomology.delta1_build_s", "s", "lower"),
    ("cohomology.delta2_build_s", "s", "lower"),
    ("cohomology.rank_s", "s", "lower"),
    ("cohomology.system_bytes", "B", "lower"),
    ("formats.parse_s", "s", "lower"),
    ("formats.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_ALL = ("tom", "census_prime", "census_ext", "h2", "oracle")

# tracer self-test: each metric must be non-zero on the listed workloads
EXPECTED = {
    "permgroup.subgroup_classes_s": ("tom", "oracle"),
    "permgroup.elements_s": ("tom", "oracle"),
    "permgroup.perm_mul_calls": ("tom", "oracle"),
    "permgroup.mulclose_calls": ("tom",),
    "permgroup.classes_found": ("tom",),
    "permgroup.seed_yield": ("tom",),
    "tom.marks_s": ("tom",),
    "permgroup.conjugacy_s": ("oracle",),
    "census.brute_force_s": ("oracle",),
    "census.brute_vectors": ("oracle",),
    "census.validate_s": ("oracle",),
    "ffield.inverse_s": ("oracle",),
    "ffield.rank_s": ("oracle",),
    "slp.evaluate_s": ("census_prime", "census_ext"),
    "slp.statements": ("census_prime", "census_ext"),
    "census.fixed_dim_s": ("census_prime", "census_ext"),
    "tom.decompose_s": ("census_prime", "census_ext"),
    "ffield.nullspace_calls": ("census_prime", "census_ext"),
    "ffield.matmul_s.q2": ("census_prime", "census_ext"),
    "ffield.matmul_calls.q2": ("census_prime", "census_ext"),
    "ffield.nullspace_s.q2": ("census_prime", "census_ext"),
    "ffield.matmul_s.q3": ("census_prime",),
    "ffield.matmul_calls.q3": ("census_prime",),
    "ffield.nullspace_s.q3": ("census_prime",),
    "ffield.matmul_s.q5": ("census_prime",),
    "ffield.matmul_calls.q5": ("census_prime",),
    "ffield.nullspace_s.q5": ("census_prime",),
    "ffield.matmul_s.q4": ("census_ext",),
    "ffield.matmul_calls.q4": ("census_ext",),
    "ffield.nullspace_s.q4": ("census_ext",),
    "ffield.blow_up_s": ("census_ext",),
    "cohomology.pair_s": ("h2",),
    "cohomology.delta1_build_s": ("h2",),
    "cohomology.delta2_build_s": ("h2",),
    "cohomology.rank_s": ("h2",),
    "cohomology.system_bytes": ("h2",),
    "formats.parse_s": _ALL,
    # h2 prints its answer and writes no file
    "formats.write_s": ("tom", "census_prime", "census_ext", "oracle"),
    "cli.self_s": _ALL,
}

# the layer the seed's profile says dominates each workload
EXPECTED_DOMINANT = {
    "tom": "permgroup.subgroup_classes_s",
    "census_ext": "ffield.matmul_s.q4",
    "h2": "cohomology.rank_s",
}

_PARSERS = ("parse_meataxe", "parse_ext_matrix", "parse_tom", "parse_fixed_vector", "parse_slp")
_WRITERS = ("write_meataxe", "write_ext_matrix", "write_tom", "write_slp", "write_census_report")


def _by_q(stem):
    return lambda args: f"{stem}.q{args[0].field.q}"


def _classes_found(tracer, args, result):
    tracer.counts["permgroup.classes_found"] += len(result)


def _statements(tracer, args, result):
    tracer.counts["slp.statements"] += len(args[0].statements)


def _brute_vectors(tracer, args, result):
    action = args[1]
    tracer.counts["census.brute_vectors"] += action.q**action.d


def _system_bytes(tracer, args, result):
    tracer.peak("cohomology.system_bytes", result.nbytes)


def install(tracer: Tracer):
    """Wrap the probed functions; tracer.missing lists targets not found."""
    T = tracer.timed
    fn = tracer.patch_function
    meth = tracer.patch_method

    def timed(name, **kw):
        return lambda f: T(f, name, **kw)

    pg, ff = "burnside.permgroup", "burnside.ffield"
    fn(pg, "subgroup_classes", timed("permgroup.subgroup_classes_s", on_result=_classes_found))
    meth(pg, "PermGroup", "elements", timed("permgroup.elements_s"))
    meth(pg, "PermGroup", "element_words", timed("permgroup.elements_s"))
    meth(pg, "Perm", "__mul__", lambda f: tracer.counted(f, "permgroup.perm_mul_calls"))
    fn(pg, "mulclose", lambda f: tracer.counted(f, "permgroup.mulclose_calls"))
    fn(pg, "is_conjugate_subgroup", timed("permgroup.conjugacy_s"))

    fn("burnside.tom", "compute_tom", timed("tom.marks_s"))
    fn("burnside.tom", "decompose_fixed_vector", timed("tom.decompose_s"))
    fn("burnside.slp", "evaluate", timed("slp.evaluate_s", on_result=_statements))

    meth(ff, "FFMatrix", "__mul__",
         timed(_by_q("ffield.matmul_s"), count=_by_q("ffield.matmul_calls")))
    meth(ff, "FFMatrix", "nullspace",
         timed(_by_q("ffield.nullspace_s"), count="ffield.nullspace_calls"))
    meth(ff, "FFMatrix", "inverse", timed("ffield.inverse_s"))
    meth(ff, "FFMatrix", "rank", timed("ffield.rank_s"))
    fn(ff, "blow_up", timed("ffield.blow_up_s"))

    cs = "burnside.census"
    fn(cs, "fixed_space_dim_dual", timed("census.fixed_dim_s"))
    fn(cs, "census_brute_force", timed("census.brute_force_s", on_result=_brute_vectors))
    fn(cs, "validate_action_homomorphism", timed("census.validate_s"))

    co = "burnside.cohomology"
    meth(co, "GroupModulePair", "__init__", timed("cohomology.pair_s"))
    fn(co, "delta1_matrix", timed("cohomology.delta1_build_s", on_result=_system_bytes))
    fn(co, "delta2_matrix", timed("cohomology.delta2_build_s", on_result=_system_bytes))
    # the self time of h2_dimension is what is left once both systems are
    # built: the two GF(p) ranks
    fn(co, "h2_dimension", timed("cohomology.rank_s"))

    for name in _PARSERS:
        fn("burnside.formats", name, timed("formats.parse_s"))
    for name in _WRITERS:
        fn("burnside.formats", name, timed("formats.write_s"))


def pass_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer values for the pass just recorded (without trace.overhead_s)."""
    selfs = tracer.self_times()
    covered = sum(t for name, t in selfs.items() if name != "cli")
    values = dict(selfs)
    values.update(tracer.counts)
    values.update(tracer.peaks)
    values["cli.self_s"] = wall - covered
    mulclose = tracer.counts["permgroup.mulclose_calls"]
    values["permgroup.seed_yield"] = (
        tracer.counts["permgroup.classes_found"] / mulclose if mulclose else 0.0
    )
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER if name != "trace.overhead_s"}


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def self_test(workload, values, tracer):
    """Problems found: probes that could not be installed or stayed silent."""
    problems = [f"probe target not found: {t}" for t in tracer.missing]
    for name, workloads in EXPECTED.items():
        if workload in workloads and not values.get(name):
            problems.append(f"{name} recorded nothing on {workload}")
    return problems


def shares(workload, values, wall):
    """Lines giving each time metric's share of the traced pass."""
    times = {n: v for n, v in values.items() if n.endswith("_s") or "_s." in n}
    times.pop("trace.overhead_s", None)
    ranked = sorted(times.items(), key=lambda kv: -kv[1])
    lines = [f"share {name} {value / wall:.3f}" for name, value in ranked if value > 0]
    expected = EXPECTED_DOMINANT.get(workload)
    if expected is not None:
        top = ranked[0][0]
        if top == expected:
            lines.append(f"dominant {top}: as the seed profile predicts")
        else:
            lines.append(f"dominant {top}: NOT {expected} as the seed profile predicts")
    return lines
