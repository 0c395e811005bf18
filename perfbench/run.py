"""Seeded benchmark of spinetorsion: census, torsion sweep, certified-walk
invariance and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up is done several times, each in a fresh child process
(interpreter start, import, building the inputs), and ``setup_s`` is the
median.  Operations then run one at a time, in a closed loop, for at least
``--seconds``; every output is compared with the pinned digests in
``perfbench/digests.json``.  Times are corrected to the machine's unloaded
speed with an interleaved reference loop (speed.py); raw wall times are in
the report line.  The line before the last is that readable report, with
the workload's own metric names; the last line is the result object.

With ``--trace 1`` the measured loop runs with spans around the calls into
every module (see tracer.py), the same operations are then run again
without spans, and the per-layer metrics, per operation, are reported
together with the tracing overhead.  Spans are written to
``.perfbench_work/traces/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 3
DEFAULT_SEED = 1

# End-to-end metrics: (name, unit).  "op" is one operation of the workload:
# a census call, one spine of the sweep, one certified walk step, one CLI
# process.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


# Per-layer metrics, all per operation.  Spans in LAYER_SPANS report calls
# and self seconds, those in SELF_TIME_SPANS self seconds only; the rest are
# derived from counts.
LAYER_SPANS = [
    "spine.triangulation_encoding", "spine.canonical_encoding",
    "spine.enumerate_branchings", "triangulation.Triangulation",
    "spine.BranchedSpine", "moves.available_moves", "moves.apply_positive",
    "moves.apply_negative", "moves.h_cycle_check", "complexes.GroupData",
    "intlinalg.smith_normal_form",
] + ["fields.%s.%s" % (cls, m) for cls in ("FunctionField", "CyclotomicField")
     for m in ("rank", "det", "select_columns", "nullspace", "solve")] + [
    "fields.sympy_gcd", "torsion.torsion", "torsion.auto_twisted_homology",
    "torsion.sign_refined_torsion", "torsion.invariance_suite",
    "moves.transport_representation", "moves.transport_homology",
    "moves.transport_rational_homology", "spinefile.parse", "spinefile.serialize",
]
SELF_TIME_SPANS = ["complexes.CellComplexX", "complexes.TwistedComplex",
                   "complexes.Representation"]
DERIVED = [
    ("fields.FunctionField.rank.cells", "count/op"),
    ("fields.CyclotomicField.rank.cells", "count/op"),
    ("census.candidates", "count/op"), ("census.rejected", "count/op"),
    ("census.triangulation_classes", "count/op"),
    ("census.spine_classes", "count/op"), ("census.class_yield", "ratio"),
    ("moves.rejected", "count/op"), ("moves.h_null_yield", "ratio"),
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("trace.overhead_s", "s"),
]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in LAYER_SPANS:
        out += [(name + ".calls", "count/op"), (name + ".s", "s/op")]
    out += [(name + ".s", "s/op") for name in SELF_TIME_SPANS]
    return out + DERIVED


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_setups(workload, seed, rundir, clock):
    """Set up SETUP_REPEATS times in fresh processes; return the median
    normalised and raw times and the inputs the last one wrote.  A child
    reports the speed factor it measured while building the inputs, which
    normalises its whole run from spawn to exit."""
    from speed import unloaded
    from workloads import spawn
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        status, out, _rss = spawn(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--rundir", rundir],
            child_env(), ROOT)
        seconds = time.perf_counter() - t0
        if status != 0:
            raise SystemExit("set-up failed (exit %d):\n%s" % (status, out))
        speed = json.loads(out.splitlines()[-1])
        raw.append(seconds - speed["spent_s"])
        norm.append(unloaded(raw[-1], speed["factor"]))
    with open(os.path.join(rundir, "inputs.json")) as fh:
        return statistics.median(norm), statistics.median(raw), json.load(fh)


def setup_only(workload, seed, rundir):
    """Build the inputs, write them to the run directory and print the speed
    factor and the sampling time of this process."""
    from speed import SpeedClock
    from workloads import WORKLOADS
    clock = SpeedClock()
    with clock.sampling():
        inputs, region = clock.time(WORKLOADS[workload][0], seed, rundir, ROOT)
    tmp = os.path.join(rundir, "inputs.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(inputs, fh)
    os.replace(tmp, os.path.join(rundir, "inputs.json"))
    print(json.dumps({"factor": clock.factor(region), "spent_s": clock.spent}))


def drive(workload, items, seconds, ctx, limit=None):
    """Run operations over ``items``, pass after pass, until ``seconds`` have
    passed (see workloads.MIN_OPS) or ``limit`` operations are done; return
    them, normalised."""
    ops = run_ops(workload, items, seconds, ctx, limit)
    for op in ops:
        op.settle(ctx["clock"])
    return ops


def run_ops(workload, items, seconds, ctx, limit):
    from workloads import MIN_OPS, STOP_MID_PASS, WORKLOADS
    op = WORKLOADS[workload][2]
    ops = []
    t0 = time.perf_counter()

    def done():
        return time.perf_counter() - t0 >= seconds and len(ops) >= MIN_OPS.get(workload, 0)

    while True:
        for item in items:
            ops.append(op(item, ctx))
            if limit is not None and len(ops) >= limit:
                return ops
            if workload in STOP_MID_PASS and done():
                return ops
        if done():
            return ops


def check(ops, pins):
    """Count operations whose output differs from the pinned digest or that
    broke a seed-independent invariant; also count unpinned ones."""
    failed = unpinned = 0
    for op in ops:
        expected = pins.get(op.key)
        if expected is None:
            unpinned += 1
        bad = op.broken or (expected is not None and expected != op.digest)
        failed += bad
    return failed, unpinned


def run_digest(ops):
    from workloads import sha
    seen = {}
    for op in ops:
        seen.setdefault(op.key, op.digest)
    return sha("".join(k + v for k, v in sorted(seen.items())))


def units_of(workload, ops, field="seconds"):
    """Per-operation latencies in ms and the number of operations; an
    invariance operation is one certified walk step, so a walk's latency is
    its time over its steps and stuck starts add none."""
    if workload != "invariance":
        return [getattr(op, field) * 1e3 for op in ops], len(ops)
    walked = [op for op in ops if op.stats.get("steps")]
    return ([getattr(op, field) * 1e3 / op.stats["steps"] for op in walked],
            sum(op.stats["steps"] for op in walked))


def timing(workload, ops, field):
    lat, count = units_of(workload, ops, field)
    busy = sum(getattr(op, field) for op in ops)
    return {"ops_per_s": count / busy, "op_p50_ms": quantile(lat, 0.5),
            "op_p90_ms": quantile(lat, 0.9)}, lat


def end_to_end(workload, ops, setup_s):
    """The end-to-end metrics and, for the report line, their raw forms."""
    metrics, lat = timing(workload, ops, "seconds")
    if workload == "cli":
        rss_kib = max(op.stats["rss_kib"] for op in ops)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = rss_kib / 1024.0
    raw = timing(workload, ops, "raw")[0]
    info = {"samples": len(lat),
            "samples_above_p90": sum(x > metrics["op_p90_ms"] for x in lat),
            "raw": raw}
    return metrics, info


def workload_report(workload, ops, metrics):
    """Each workload's own metric names, for the readable report line."""
    rep = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "census":
        rep["census_s"] = metrics["op_p50_ms"] / 1e3
    elif workload == "torsion-sweep":
        rep["torsion_spines_per_s"] = metrics["ops_per_s"]
        rep["torsion_p50_ms"] = metrics["op_p50_ms"]
        rep["torsion_p90_ms"] = metrics["op_p90_ms"]
    elif workload == "invariance":
        walked = [op for op in ops if op.stats.get("steps")]
        steps = sum(op.stats["steps"] for op in walked)
        rep["walk_steps_per_s"] = steps / sum(op.stats["walk_s"] for op in walked)
        rep["invariance_steps_per_s"] = steps / sum(op.stats["check_s"] for op in walked)
        rep["stuck_starts"] = sum(op.stats.get("stuck", 0) for op in ops)
    else:
        rep["cli_p50_ms"] = metrics["op_p50_ms"]
        rep["cli_p90_ms"] = metrics["op_p90_ms"]
    return rep


def cli_startup(ctx, repeats=5):
    """Median normalised seconds of a bare interpreter, and the median extra
    seconds that importing the CLI module adds to it."""
    from workloads import spawn

    def median_of(code):
        return statistics.median(
            ctx["clock"].normalise(
                ctx["clock"].time(spawn, [sys.executable, "-c", code], ctx["env"], ROOT)[1])
            for _ in range(repeats))

    bare = median_of("pass")
    return bare, median_of("import spinetorsion.cli") - bare


def traced(workload, items, seconds, ctx, seed, limit):
    """Run the loop with spans, then the same operations without; return
    (ops, per-layer metrics)."""
    from tracer import Tracer, empty_row
    tracer = Tracer()
    with tracer:
        ops = drive(workload, items, seconds, ctx, limit)
    plain = drive(workload, items, seconds, ctx, limit=len(ops))
    t_traced = sum(op.seconds for op in ops)
    t_plain = sum(op.seconds for op in plain)
    n = units_of(workload, ops)[1] or 1
    summ = tracer.summary()

    def row(name):
        return summ.get(name) or empty_row()

    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + ".calls"] = row(name)["calls"] / n
    for name in LAYER_SPANS + SELF_TIME_SPANS:
        metrics[name + ".s"] = row(name)["s"] / n
    candidates = tracer.count_under("triangulation.Triangulation", "census.census_branched")
    rejected = tracer.count_under("triangulation.Triangulation", "census.census_branched",
                                  raised_only=True)
    spine_classes = row("census.census_branched")["measured"]
    metrics["census.candidates"] = candidates / n
    metrics["census.rejected"] = rejected / n
    metrics["census.triangulation_classes"] = row("census.enumerate_triangulations")["measured"] / n
    metrics["census.spine_classes"] = spine_classes / n
    metrics["census.class_yield"] = spine_classes / candidates if candidates else 0.0
    metrics["moves.rejected"] = (row("moves.apply_positive")["raised"]
                                 + row("moves.apply_negative")["raised"]) / n
    checks = row("moves.h_cycle_check")["calls"]
    metrics["moves.h_null_yield"] = row("moves.h_cycle_check")["measured"] / checks \
        if checks else 0.0
    metrics["fields.FunctionField.rank.cells"] = row("fields.FunctionField.rank")["cells"] / n
    metrics["fields.CyclotomicField.rank.cells"] = row("fields.CyclotomicField.rank")["cells"] / n
    if workload == "cli":
        metrics["cli.interpreter_s"], metrics["cli.import_s"] = cli_startup(ctx)
    else:
        metrics["cli.interpreter_s"] = metrics["cli.import_s"] = 0.0
    metrics["trace.overhead_s"] = t_traced - t_plain
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "traces", "%s-seed%d.json" % (workload, seed)),
                {"workload": workload, "seed": seed, "ops": len(ops), "units": n,
                 "traced_s": t_traced, "untraced_s": t_plain})
    return ops, metrics


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "sympy": sympy.__version__, "ground_types": GROUND_TYPES}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", default=DIGESTS,
                    help="pinned digests to check against (default: %(default)s)")
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many operations (self-test sizes)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rundir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "spinetorsion")):
        sys.stderr.write("perfbench: no spinetorsion package under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from speed import SpeedClock
    from workloads import IN_CHILDREN, WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    if args.setup_only:
        setup_only(args.workload, args.seed, args.rundir)
        return 0

    clock = SpeedClock()
    rundir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(rundir)
    try:
        setup_s, setup_raw, inputs = run_setups(args.workload, args.seed, rundir, clock)
        with open(args.digests) as fh:
            pins = json.load(fh).get(args.workload, {})
        items = WORKLOADS[args.workload][1](inputs)
        ctx = {"env": child_env(), "root": ROOT, "clock": clock}
        if args.trace:
            # No sampling here: the handler's time would land in the spans.
            ops, metrics = traced(args.workload, items, args.seconds, ctx, args.seed,
                                  args.max_ops)
            units = dict(per_layer_metrics())
            report, info = {}, {}
        else:
            with contextlib.ExitStack() as stack:
                if args.workload not in IN_CHILDREN:
                    stack.enter_context(clock.sampling())
                ops = drive(args.workload, items, args.seconds, ctx, args.max_ops)
            metrics, info = end_to_end(args.workload, ops, setup_s)
            units = dict(END_TO_END)
            report = workload_report(args.workload, ops, metrics)
            info["raw"]["setup_s"] = setup_raw
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed, unpinned = check(ops, pins)
    report["fail_ratio"] = failed / len(ops)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "operations": len(ops), "unpinned": unpinned,
              "known_defect_steps": sum(op.stats.get("known_defect_steps", 0) for op in ops),
              "digest": run_digest(ops), "report": report,
              "speed_factor_p50": statistics.median(clock.factors),
              "environment": environment()}
    detail.update(info)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
