"""Benchmark of the burnside CLI paths, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

One process runs one workload.  It imports the package from src/.  Seven
times, it times a bare interpreter start and a fresh interpreter importing
the CLI, and generates the inputs from the seed; set-up time is the median
import plus the median generation, scaled by the median bare start.  Then it
repeats passes over the workload's cases through `burnside.cli.main(argv)`
for about S seconds, checking every output after each pass.  A pass longer
than S still runs once.

--trace 0 reports the end-to-end metrics.  Pass times are scaled to a
fixed reference host speed measured while they run (hostspeed.py) and are
medians over the passes; raw times go to the metadata.  --trace 1
spends half the time on plain passes, then wraps the library's public
functions (tracer.py, probes.py) and reports per-layer medians over the
traced passes, each layer's share of the pass, and the tracing overhead,
all in raw seconds.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; earlier lines starting with "#" carry run metadata and shares.
--out appends a record of the run to a JSON-lines file; --compare prints
one row per workload and metric for two such files.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a record of this run to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two files written by --out")
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required")
    return args


# ------------------------------------------------------------------ metadata


def _git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def metadata(args):
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": _src_lines(),
    }


# ------------------------------------------------------------------ passes


def run_pass(cases, tracer, workloads):
    """One pass over the cases; returns (start, wall, cpu, problems per case)."""
    w0, c0 = time.perf_counter(), time.process_time()
    errors = []
    for case in cases:
        try:
            errors.append(workloads.run_case(case, tracer))
        except Exception:  # a crash fails the case, not the benchmark
            errors.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    tracer.active = False
    problems = []
    for case, error in zip(cases, errors):
        if error is None:
            try:
                found = case.check(case.outs)
            except Exception:
                found = [traceback.format_exc()]
        else:
            found = [error]
        problems.append([f"{case.name}: {p}" for p in found])
    return w0, wall, cpu, problems


def measure(cases, seconds, tracer, workloads, on_pass=None):
    """Passes until the next one would end after `seconds`; at least one.

    Returns (start, wall, cpu) per pass, problems per case and pass, and the
    peak RSS in MB after the first pass: what one CLI process would reach.
    """
    passes, problems = [], []
    peak = None
    start = time.perf_counter()
    while True:
        # start each pass with no garbage left from set-up or the last pass,
        # as a fresh CLI process would
        gc.collect()
        if on_pass is not None:
            tracer.reset()
            tracer.active = True
        start_pass, wall, cpu, found = run_pass(cases, tracer, workloads)
        passes.append((start_pass, wall, cpu))
        problems.extend(found)
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if on_pass is not None:
            on_pass(wall)
        if time.perf_counter() - start + statistics.median(p[1] for p in passes) > seconds:
            return passes, problems, peak


def main(argv=None):
    args = _parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "burnside" / "__init__.py").is_file():
        print(f"error: no burnside sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.SETUP:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in declared["per_layer"]] != [n for n, _, _ in probes.PER_LAYER] or [
        m["name"] for m in declared["end_to_end"]
    ] != [n for n, _ in END_TO_END]:
        print("error: BENCHMARK.json metrics differ from run.py/probes.py", file=sys.stderr)
        return 1
    refs = workloads.load_references()

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return _run(args, work, refs, workloads, probes, Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()


def _start_seconds(code):
    """Time for a fresh interpreter to start and run `code`."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def _run(args, work, refs, workloads, probes, tracer):
    # a fresh interpreter importing the CLI, as each CLI run does, and input
    # generation; scaled by a bare interpreter start timed beside them,
    # which tracks the host's speed for this work where the kernels do not
    import_cli = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import burnside.cli"
    import_s, gen_s, bare_s = [], [], []
    for rep in range(SETUP_REPEATS):
        bare_s.append(_start_seconds("pass"))
        import_s.append(_start_seconds(import_cli))
        folder = work / f"inputs{rep}"
        folder.mkdir()
        t = time.perf_counter()
        cases = workloads.SETUP[args.workload](args.seed, folder, refs)
        gen_s.append(time.perf_counter() - t)
    speed = hostspeed.REF_START_S / statistics.median(bare_s)
    setup_s = (statistics.median(import_s) + statistics.median(gen_s)) * speed

    if args.trace:
        # no speed sampler here: its handler would land in the layer spans.
        # Half the time without probes, for the overhead, then with them.
        untraced, problems, _ = measure(cases, args.seconds / 2, tracer, workloads)
        probes.install(tracer)
        per_pass = []
        try:
            traced, more, _ = measure(
                cases, args.seconds / 2, tracer, workloads,
                on_pass=lambda wall: per_pass.append(probes.pass_metrics(tracer, wall)),
            )
        finally:
            tracer.uninstall()
        problems += more
        values = probes.median_metrics(per_pass)
        wall = statistics.median(p[1] for p in traced)
        values["trace.overhead_s"] = wall - statistics.median(p[1] for p in untraced)
        test = probes.self_test(args.workload, values, tracer)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in probes.PER_LAYER}
        notes = probes.shares(args.workload, values, wall)
        passes = untraced + traced
        scaled = []
    else:
        with hostspeed.Sampler(workloads.SPEED_KERNEL.get(args.workload, "interp")) as sampler:
            passes, problems, peak = measure(cases, args.seconds, tracer, workloads)
        scaled = [sampler.scale(*p) for p in passes]
        test = []
        values = {
            "wall_s": statistics.median(w for w, _ in scaled),
            "cpu_s": statistics.median(c for _, c in scaled),
            "peak_rss_mb": peak,
            "setup_s": setup_s,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        notes = []

    failed = sum(1 for found in problems if found) + (1 if test else 0)
    attempted = len(problems) + (1 if args.trace else 0)
    for found in problems:
        for p in found:
            print(f"FAILED {p}", file=sys.stderr)
    for p in test:
        print(f"FAILED tracer self-test: {p}", file=sys.stderr)
    meta = metadata(args)
    meta.update(
        passes=len(passes),
        raw_pass_walls=[p[1] for p in passes],
        raw_pass_cpus=[p[2] for p in passes],
        scaled_pass_walls=[w for w, _ in scaled],
        raw_setup_import_s=import_s,
        raw_setup_gen_s=gen_s,
        raw_setup_bare_s=bare_s,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"meta": meta, "notes": notes, "result": result}) + "\n")
    print("# meta " + json.dumps(meta))
    for line in notes:
        print("# " + line)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ compare


def _load(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            workload = rec["meta"]["workload"]
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
    return values


def compare(base_path, new_path):
    base, new = _load(base_path), _load(new_path)
    print(f"{'workload':<13} {'metric':<30} {'base':>12} {'new':>12} {'new/base':>9}  runs")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:9.3f}" if b else f"{'n/a':>9}"
        print(f"{key[0]:<13} {key[1]:<30} {b:12.6g} {n:12.6g} {ratio}  "
              f"medians of {len(base[key])} base and {len(new[key])} new runs")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:<13} {key[1]:<30} only in {'base' if key in base else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
