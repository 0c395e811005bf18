"""The four benchmark workloads: how each builds its inputs from a seed, what
one operation is, and what output of an operation is checked.

Every operation returns an ``Op``: its key (a digest of its input), the
digest of its output, the timed regions of its work (see speed.py), and
whether a seed-independent invariant failed (see KNOWN_DEFECTS).  The caller
compares output digests with the pinned ones in ``digests.json``.

Workloads, and why each exists:

- census: ``census_branched(2)`` repeated.  census/triangulation/spine/perms do
  all the work; complexes, fields, torsion and moves are never reached, so
  a change to the isomorphism-signature layer shows here and nowhere else.
  The input is fixed; the seed is ignored.
- torsion-sweep: one pass per spine of parse, complex, H1, anchors, then
  torsion and sign-refined torsion with ``h="auto"`` over Q(t1..tr) and
  Q(zeta_5).  fields/torsion/complexes do the work; census and moves are
  bypassed.  The corpus spans 1-6 tetrahedra and H1 free rank 0-2.
- invariance: the acceptance walk loop.  A 10-step h-null walk (moves,
  certificates, GroupData per candidate) and then ``invariance_suite`` for
  both representations on consecutive related spines with transported lifts.
- cli: one ``python -m spinetorsion.cli`` process at a time, so interpreter
  start-up, import and the command's own work are all in the latency.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import spinetorsion as S
from spinetorsion.errors import Stuck

CENSUS_TETS = 2
WALK_STEPS = 10
WALK_MAX_TETS = 6
SWEEP_WALK_SIZES = (3, 4, 5, 6)
SWEEP_FREE_RANKS = (0, 1, 2)
# The slowest tenth of the sweep's and the CLI's operations, which sets
# op_p90_ms, falls almost wholly on seeded inputs: the 5- and 6-tet walk
# spines of the sweep and the CLI's invariance commands.  Eleven seeded
# files give the CLI enough of those that op_p90_ms does not hang on a few;
# the sweep's walk spines cost ~0.3 s each, so more walks would not fit the
# run budget (three per rank steadied op_p90_ms but made a run ~50 s).
SWEEP_WALKS_PER_RANK = 2
CLI_SAMPLE = 11
CYCLIC_ORDER = 5
FIXTURES = ("ONE_TET", "TWO_VARIANT", "GOLDEN", "TORSION2")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    """One operation.  ``regions`` maps a phase name to its timed regions;
    ``seconds`` (normalised) and ``raw`` are filled in by ``settle``."""
    __slots__ = ("key", "digest", "regions", "broken", "stats", "seconds", "raw")

    def __init__(self, key, digest, regions, broken=False, stats=None):
        self.key = key
        self.digest = digest
        self.regions = regions
        self.broken = broken
        self.stats = stats or {}
        self.seconds = self.raw = None

    def settle(self, clock):
        """Normalise every region; phase times go into ``stats``."""
        self.seconds = self.raw = 0.0
        for phase, regions in self.regions.items():
            norm = sum(clock.normalise(r) for r in regions)
            self.stats[phase + "_s"] = norm
            self.seconds += norm
            self.raw += sum(r[2] for r in regions)


# -- census -------------------------------------------------------------------


def census_setup(seed, workdir, root):
    return {"tets": CENSUS_TETS}


def census_items(inputs):
    return [inputs["tets"]]


def census_op(tets, ctx):
    spines, region = ctx["clock"].time(S.census_branched, tets)
    return Op("census_branched(%d)" % tets, census_digest(spines), {"op": [region]})


def census_digest(spines):
    return sha("count %d\n" % len(spines) + "".join(S.serialize(s) for s in spines))


# -- torsion-sweep ------------------------------------------------------------


def _free_rank(spine):
    return S.GroupData(S.CellComplexX(spine)).free_rank


def sweep_setup(seed, workdir, root):
    """Census n <= 2 plus, for H1 free rank 0, 1 and 2, the first spine of
    each size 3-6 on each of SWEEP_WALKS_PER_RANK seeded h-null walks.  The
    walks start from the first census-2 spine of that rank that reaches
    every size, so the seed moves the walks and not the manifold, whose rank
    sets most of the cost."""
    rng = random.Random(seed)
    starts = S.census_branched(2)
    corpus = [S.serialize(s) for s in S.census_branched(1) + starts]
    for rank in SWEEP_FREE_RANKS:
        for start in (s for s in starts if _free_rank(s) == rank):
            walks = [_sizes_on_walk(start, rng) for _ in range(SWEEP_WALKS_PER_RANK)]
            if all(walks):
                corpus.extend(S.serialize(first[n]) for first in walks
                              for n in SWEEP_WALK_SIZES)
                break
    return {"spines": corpus}


def _sizes_on_walk(start, rng, attempts=5):
    """The first spine of each size in SWEEP_WALK_SIZES on a seeded walk, or
    None when no walk of ``attempts`` reaches them all."""
    for _ in range(attempts):
        try:
            walk = S.random_walk(start, WALK_STEPS, rng.getrandbits(32),
                                 h_null_only=True, max_tets=WALK_MAX_TETS)
        except Stuck:
            return None
        first = {}
        for move in walk:
            first.setdefault(move.after.tet_count, move.after)
        if all(n in first for n in SWEEP_WALK_SIZES):
            return first
    return None


def sweep_items(inputs):
    return inputs["spines"]


def _torsion_pass(text):
    spine = S.parse(text)
    X = S.CellComplexX(spine)
    G = S.GroupData(X)
    A = S.SpiderAnchors(spine, X)
    values = []
    for rep in (S.Representation.free_abelian(G),
                S.Representation.cyclic(G, CYCLIC_ORDER)):
        tc = S.TwistedComplex(spine, X, A, rep)
        values.append(S.torsion(tc, h="auto"))
        values.append(S.sign_refined_torsion(spine, tc, h="auto"))
    return values


def sweep_op(text, ctx):
    values, region = ctx["clock"].time(_torsion_pass, text)
    return Op(sha(text), sha("\n".join(v.to_str() for v in values)), {"op": [region]})


# -- invariance ---------------------------------------------------------------


# A known program defect, pinned as it is: on census-2 spine 33 (canonical
# order, H1 = Z) the sign-refined torsion changes at every certified move,
# for both representations and every walk tried, while torsion up to sign
# agrees.  Keyed by the sha256 of the spine's serialisation.  On this spine
# a sign-refined mismatch is counted as a known-defect step and reported,
# not as a failed operation; any other broken invariant still fails.
KNOWN_DEFECTS = {
    "acec90d2bf64f8f83c55a12babf1d9e62e11c7f0849a5557a8a1425d935649c8":
        "census-2 spine 33: sign-refined torsion changes at every move",
}


def invariance_broken(text, steps):
    """Check the seed-independent invariants of an invariance run on the
    spine ``text``, given (equal up to sign, sign-refined equal) per step:
    return (broken, known-defect steps)."""
    flips = sum(sign_refined is False for _equal, sign_refined in steps)
    known = sha(text) in KNOWN_DEFECTS
    broken = not all(equal for equal, _ in steps) or (flips > 0 and not known)
    return broken, flips if known else 0


def invariance_setup(seed, workdir, root):
    """Census-2 start spines in seeded order, each with its own walk seed.

    The order deals the spines round-robin from three piles, H1 free rank
    0, 1 and 2 or more, each shuffled by the seed: a walk's cost depends
    mostly on that rank, so every run, however many starts it reaches,
    sees the ranks in the same proportions."""
    rng = random.Random(seed)
    starts = S.census_branched(2)
    rng.shuffle(starts)
    piles = [[s for s in starts if min(_free_rank(s), 2) == r] for r in (0, 1, 2)]
    dealt = [pile[i] for i in range(max(map(len, piles)))
             for pile in piles if i < len(pile)]
    return {"starts": [[S.serialize(s), rng.getrandbits(32)] for s in dealt]}


def invariance_items(inputs):
    return inputs["starts"]


def _walk(spine, walk_seed):
    try:
        return S.random_walk(spine, WALK_STEPS, walk_seed, h_null_only=True,
                             max_tets=WALK_MAX_TETS)
    except Stuck:
        return None


def invariance_op(item, ctx):
    """Walk phase, then one check phase per representation, each timed on
    its own so the speed correction stays local."""
    text, walk_seed = item
    key = sha("%s\nseed %d\n" % (text, walk_seed))
    spine = S.parse(text)
    clock = ctx["clock"]
    walk, region = clock.time(_walk, spine, walk_seed)
    if walk is None:
        return Op(key, sha("stuck"), {"walk": [region]}, stats={"stuck": 1})
    regions = {"walk": [region], "check": []}
    lines = [S.serialize_move_log(walk)]
    steps = []
    for kind, order in (("free_abelian", None), ("cyclic", CYCLIC_ORDER)):
        rep, region = clock.time(S.invariance_suite, spine, walk, kind, order)
        regions["check"].append(region)
        lines.append("all_equal %s" % rep.all_equal)
        for st in rep.steps:
            lines.append("%s | %s | %s | %s | %s" % (
                st.description, st.before_value.to_str(),
                st.after_value.to_str(), st.equal, st.sign_refined_equal))
            steps.append((st.equal, st.sign_refined_equal))
    broken, known = invariance_broken(text, steps)
    return Op(key, sha("\n".join(lines)), regions, broken,
              {"steps": len(walk), "known_defect_steps": known})


# -- cli ----------------------------------------------------------------------


def _fixture_texts(root):
    """The four spines of tests/fixtures.py, loaded from the file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_fixtures", os.path.join(root, "tests", "fixtures.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, getattr(module, name)) for name in FIXTURES]


def cli_setup(seed, workdir, root):
    rng = random.Random(seed)
    census = S.census_branched(2)
    files = _fixture_texts(root) + [
        ("census2_%02d" % i, S.serialize(census[i]))
        for i in sorted(rng.sample(range(len(census)), CLI_SAMPLE))]
    walk_seed = rng.getrandbits(32)
    commands = []
    for name, text in files:
        path = os.path.join(workdir, name + ".spine")
        with open(path, "w") as fh:
            fh.write(text)
        for args in (["validate"], ["summary"],
                     ["torsion", "--rep", "free-abelian"],
                     ["torsion", "--rep", "cyclic:5", "--sign-refined"],
                     ["hcheck", "--face", "0"], ["euler"],
                     ["invariance", "--steps", "3", "--seed", str(walk_seed),
                      "--rep", "cyclic:5", "--max-tets", "4"]):
            commands.append([args[0], path] + args[1:])
    return {"commands": commands}


def cli_items(inputs):
    return inputs["commands"]


def spawn(argv, env, cwd):
    """Run one child to completion; return (exit status, stdout and stderr,
    peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=cwd)
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


def cli_op(command, ctx):
    path = command[1]
    with open(path) as fh:
        text = fh.read()
    key = sha(json.dumps([command[0], sha(text)] + command[2:]))
    (status, out, rss), region = ctx["clock"].time(
        spawn, [sys.executable, "-m", "spinetorsion.cli", "--timing"] + command,
        ctx["env"], ctx["root"])
    broken = status not in (0, 1, 2)
    try:
        report = json.loads(out)
    except ValueError:
        report, broken = {"unparsed": out}, True
    report.pop("timing_ms", None)
    steps = [(st.get("equal_up_to_sign") is not False, st.get("sign_refined_equal"))
             for st in report.get("steps", [])]
    bad, known = invariance_broken(text, steps)
    broken |= bad or (report.get("all_equal") is False and not known)
    digest = sha("exit %d\n%s" % (status, json.dumps(report, sort_keys=True)))
    return Op(key, digest, {"op": [region]}, broken,
              {"rss_kib": rss, "known_defect_steps": known})


WORKLOADS = {
    "census": (census_setup, census_items, census_op),
    "torsion-sweep": (sweep_setup, sweep_items, sweep_op),
    "invariance": (invariance_setup, invariance_items, invariance_op),
    "cli": (cli_setup, cli_items, cli_op),
}

# The invariance start list is far longer than a run, so it stops between
# starts; the other workloads stop only after a whole pass, so every run
# sees the same mix of inputs.
STOP_MID_PASS = {"invariance"}
# Workloads keep going past --seconds until they have this many operations:
# whole-pass ones so that op_p90_ms has at least ten samples above it (92 is
# the fewest that do; one pass of either is more), and invariance so that a
# loaded host does not leave a run with a handful of walks, each on a
# different manifold.
MIN_OPS = {"torsion-sweep": 92, "cli": 92, "invariance": 12}
# Workloads whose operations run in child processes, where the speed clock
# must not sample: its reference loop would compete with the child.
IN_CHILDREN = {"cli"}
