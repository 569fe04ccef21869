"""The benchmark's worker and tracer still run against the library.

The tracer patches ``FiniteWModule.column`` on the class and wraps each
built module's ``_col_fn``, which ``column`` reads on every call; a
refactor that moves either would silently zero its counters.  Each
workload's reduced task set runs once plainly and once traced, in a
fresh interpreter as ``perfbench/run.py`` runs it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"

# a counter each traced workload must move: algebra builds no module, and
# its Jacobi sweep runs on the untraced term kernel, so the socle tasks'
# character combinatorics are what it reaches
MOVED = {"algebra": ["partitions.lr_coefficient.calls"],
         "simplicity": ["modules.column.calls"],
         "fields": ["modules.column.calls", "tensorfields.column.misses"],
         "duality": ["modules.column.calls"]}


def run_worker(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--launched-ns", str(time.monotonic_ns()), "--reduced", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(MOVED))
def test_reduced_pass_gives_every_verdict(workload):
    out = run_worker(workload)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]


@pytest.mark.parametrize("workload", sorted(MOVED))
def test_traced_pass_moves_its_counters(workload):
    out = run_worker(workload, "--trace")
    assert out["failed"] == 0, out["failures"]
    layers = out["layers"]
    for name in MOVED[workload]:
        value, unit = layers[name]
        assert unit == "count" and value > 0, name
