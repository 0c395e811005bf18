"""The benchmark runs against the package: every workload of
perfbench/run.py, a few operations each, matches its pinned digests.  A
renamed entry point or a changed printed byte fails here, not only in a
benchmark run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload",
                         ["census", "torsion-sweep", "invariance", "cli"])
def test_perfbench_workload_matches_its_digests(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--max-ops", "8", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), out.stdout
    assert summary["attempted"] > 0
