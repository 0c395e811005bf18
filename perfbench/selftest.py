"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:

- BENCHMARK.json names exactly the metrics and units run.py prints;
- a tiny run of every workload, untraced and traced, prints every metric
  with its unit, fails nothing and passes its pinned digests;
- a deliberately wrong pinned digest makes ``failed`` positive, so the
  correctness gate can fail;
- the known-defect allowance (workloads.KNOWN_DEFECTS) excuses only a
  sign-refined mismatch on the one listed spine;
- the 3-tetrahedron census has 800 classes and matches its pinned digest;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Prints one PASS or FAIL line per check; exits 1 if any check failed.
"""

import json
import os
import shutil
import subprocess
import sys

import run

BENCH_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
FAILURES = []


def report(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name, (": " + detail) if detail else ""))
    if not ok:
        FAILURES.append(name)


def bench(root, workload, trace, *extra):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--max-ops", "2"] + list(extra)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def check_declared():
    with open(BENCH_JSON) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    report("BENCHMARK.json end_to_end matches run.py", declared == run.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    report("BENCHMARK.json per_layer matches run.py", declared == run.per_layer_metrics())
    return spec


def check_tiny_runs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = bench(run.ROOT, workload, trace)
            name = "tiny %s run, trace %d" % (workload, trace)
            if result is None:
                report(name, False, "exit %d: %s" % (proc.returncode, proc.stderr[-500:]))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and got == want and result["attempted"] >= 1
                  and all(isinstance(v["value"], (int, float))
                          for v in result["metrics"].values()))
            report(name, ok, "" if ok else json.dumps(result)[:300])
            report(name + " passes its digests", result["correct"] and result["failed"] == 0,
                   "failed %d of %d" % (result["failed"], result["attempted"]))


def check_gate_can_fail():
    with open(run.DIGESTS) as fh:
        pins = json.load(fh)
    for workload in ("census", "torsion-sweep"):
        pins[workload] = {key: "0" * 64 for key in pins[workload]}
    path = os.path.join(run.WORK, "selftest-wrong-digests.json")
    os.makedirs(run.WORK, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(pins, fh)
    for workload in ("census", "torsion-sweep"):
        _proc, result = bench(run.ROOT, workload, 0, "--digests", path)
        ok = result is not None and result["failed"] > 0 and not result["correct"]
        report("wrong pinned digest fails %s" % workload, ok,
               "" if ok else json.dumps(result)[:300])
    os.remove(path)


def check_known_defect_scope():
    """The known-defect allowance covers a sign-refined mismatch on the
    listed spine only."""
    sys.path.insert(0, run.SRC)
    import spinetorsion as S
    from workloads import KNOWN_DEFECTS, invariance_broken, sha
    census = S.census_branched(2)
    known, other = S.serialize(census[33]), S.serialize(census[0])
    report("census-2 spine 33 is the listed known defect",
           set(KNOWN_DEFECTS) == {sha(known)})
    cases = [
        (known, [(True, False), (True, True)], (False, 1)),
        (known, [(False, True)], (True, 0)),
        (known, [(False, False)], (True, 1)),
        (other, [(True, False)], (True, 0)),
        (other, [(True, None), (True, True)], (False, 0)),
    ]
    for text, steps, want in cases:
        got = invariance_broken(text, steps)
        report("invariance_broken(%s, %s)" % ("spine 33" if text == known else "spine 0",
                                               steps), got == want, "got %s" % (got,))


def check_census3():
    sys.path.insert(0, run.SRC)
    import spinetorsion as S
    from workloads import census_digest
    with open(run.DIGESTS) as fh:
        pinned = json.load(fh)["census"]["census_branched(3)"]
    spines = S.census_branched(3)
    report("census_branched(3) has 800 classes", len(spines) == 800, str(len(spines)))
    report("census_branched(3) matches its pinned digest", census_digest(spines) == pinned)


def check_bare_checkout():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(BENCH_JSON, bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(bare, "census", 0)
    ok = proc.returncode != 0 and result is None and not proc.stdout.strip()
    report("no result and non-zero exit without the package", ok,
           "exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = check_declared()
    check_tiny_runs(spec)
    check_gate_can_fail()
    check_known_defect_scope()
    check_bare_checkout()
    check_census3()
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
