"""superw benchmark: time to a correct verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is a single-threaded
closed loop: one client runs a workload's tasks back to back and checks
every verdict against its frozen value (see workloads.py).  Each pass
runs in a fresh interpreter (worker.py), so superw's process-wide caches
start cold as they do for a command-line user.  Passes repeat until
--seconds are used up (a pass starts only while a typical pass still
fits), and a run always makes at least MIN_PASSES untraced passes.

With --trace 0 it reports the end-to-end metrics:
  wall_s       seconds from the first task to the last verdict at the
               reference host speed, median over the untraced passes
  setup_s      seconds from process launch to the first task (interpreter
               start, import superw, building the tasks) at the reference
               host speed, median over at least seven launches
  peak_rss_mb  peak resident memory of the pass process, median over passes

The host is shared: other machines' work slows this one by up to half, in
spells of a second to minutes, which no run can outlast.  So both times
are given at a reference speed: right after set-up and after each task a
pass times a fixed calibration loop that shares no code with superw, and
each time is scaled by the loop's mean time next to it (see scaled).  The
times as measured are printed on stderr.

With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of tracer.py (times are medians over the traced passes;
counts repeat exactly for a seed), plus trace_overhead_ratio, traced
wall_s over untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
verdict was right, 1 when one was wrong or a task raised, and 2 (with no
result printed) when the benchmark could not run at all, for example
outside a checkout of superw.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

WORKLOADS = ("algebra", "simplicity", "fields", "duality")

# untraced passes a run makes at least, so that the median is of four or
# more; four fit in 25 s on every workload with the host at half speed
MIN_PASSES = 4
# set-up is sampled at least this often per run: every pass gives one
# sample, and set-up-only launches make up the rest
SETUP_SAMPLES = 7
# a run must end within 180 s; no pass may start or run past this
RUN_DEADLINE_S = 170.0

# seconds the worker's calibration loop takes on the reference host, a
# quiet 2-core machine; wall_s and setup_s are scaled to that speed
CALIBRATION_REF_S = 0.0025

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def launch(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run worker.py once and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *extra]
    launched = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--launched-ns", str(launched)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker printed no result:\n{proc.stdout}{proc.stderr}")


def scaled(seconds: float, cal_s: float) -> float:
    """A time measured next to a calibration loop of cal_s seconds, at the
    reference host speed."""
    return seconds * CALIBRATION_REF_S / cal_s


def wall_time(passes: list[dict]) -> float:
    """Time to solution at reference host speed: each task's time scaled by
    the calibration loop's mean time around it, summed over the pass, and
    the median of these over the passes."""
    return statistics.median(
        sum(scaled(t, p["task_cal_s"][label]) for label, t in p["task_s"].items())
        for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    # untimed: compiles superw's bytecode on the first run in a checkout
    launch(workload, seed, deadline, "--setup-only", "--reduced")

    plain: list[dict] = []
    traced: list[dict] = []
    spans = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    took: list[float] = []
    # a pass starts only if a typical pass still fits in the window
    while (len(plain) < (1 if trace else MIN_PASSES) or (trace and not traced)
           or time.monotonic() - start + statistics.median(took) <= seconds):
        t = time.monotonic()
        if trace and len(traced) < len(plain):
            traced.append(launch(workload, seed, deadline, "--trace",
                                 "--spans", str(spans)))
        else:
            plain.append(launch(workload, seed, deadline))
        took.append(time.monotonic() - t)
    passes = plain + traced
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(launch(workload, seed, deadline, "--setup-only"))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}", file=sys.stderr)

    wall = wall_time(plain)
    setup = statistics.median(scaled(p["setup_s"], p["setup_cal_s"]) for p in setups)
    if trace:
        layers = {}
        for name, (value, unit) in traced[0]["layers"].items():
            # counts repeat exactly for a seed; only times need a median
            if unit == "s":
                value = statistics.median(p["layers"][name][0] for p in traced)
            layers[name] = {"value": value, "unit": unit}
        overhead = wall_time(traced) / wall
        layers["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        metrics = layers
    else:
        values = {"wall_s": wall, "setup_s": setup,
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    raw = statistics.median(sum(p["task_s"].values()) for p in plain)
    raw_setup = statistics.median(p["setup_s"] for p in setups)
    print(f"{workload} seed={seed}: wall_s {wall:.4f} at reference speed, "
          f"{raw:.4f} as timed; setup_s {setup:.4f} at reference speed, "
          f"{raw_setup:.4f} as timed, over {len(setups)} "
          f"launches; task seconds per untraced pass "
          f"{[round(sum(p['task_s'].values()), 3) for p in plain]}, per traced "
          f"pass {[round(sum(p['task_s'].values()), 3) for p in traced]}",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superw" / "__init__.py").is_file():
        print(f"error: no superw sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
