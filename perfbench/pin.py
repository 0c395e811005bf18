"""Recompute the pinned output digests in perfbench/digests.json.

    python3 perfbench/pin.py

Runs every operation of every workload once for the default seed (every
invariance start, not only those a timed run reaches) plus the 1-, 2- and
3-tetrahedron census, and writes the digests keyed by input.  Operations
that break a seed-independent invariant are pinned as they are and listed
on stderr; run.py counts them as failed whatever their digest, except for
the known defects that workloads.KNOWN_DEFECTS names.  The program's
outputs are meant never to change, so rerun this only when a change to the
benchmark's inputs makes new keys; review any digest that changes.
"""

import json
import os
import shutil
import sys

import run

HELD_OUT_SEED = 7


def main():
    sys.path.insert(0, run.SRC)
    import spinetorsion as S
    from speed import SpeedClock
    from workloads import WORKLOADS, census_digest

    pins = {"default_seed": run.DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    workdir = os.path.join(run.WORK, "pin")
    os.makedirs(workdir, exist_ok=True)
    ctx = {"env": run.child_env(), "root": run.ROOT, "clock": SpeedClock()}
    try:
        for name, (setup, items, op) in WORKLOADS.items():
            table = {}
            for item in items(setup(run.DEFAULT_SEED, workdir, run.ROOT)):
                result = op(item, ctx)
                if result.broken:
                    print("%s: an invariant fails on %s" % (name, result.key),
                          file=sys.stderr)
                table[result.key] = result.digest
            pins[name] = table
            print("%s: %d digests" % (name, len(table)), file=sys.stderr)
        for tets in (1, 2, 3):
            pins["census"]["census_branched(%d)" % tets] = \
                census_digest(S.census_branched(tets))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
