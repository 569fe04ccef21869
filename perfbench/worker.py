"""One pass of one workload, in the fresh interpreter that run.py starts.

Usage (run.py passes these; the clock is time.monotonic_ns() read just
before the process was launched):

    python3 perfbench/worker.py --workload W --seed N --launched-ns NS
        [--trace] [--spans FILE] [--reduced] [--setup-only]

Set-up is everything from launch to the first task: interpreter start,
``import superw``, installing the tracer when asked, and building the
tasks.  Right after set-up the pass times a calibration loop, whose
mean time gives the host's speed during set-up.  It then runs every task
back to back, checks each verdict against its frozen value, and prints
one JSON object as its last line: the time of each task, the mean time of
the calibration loop just before and just after it (outside the task
times), peak memory, and any failures.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import superw  # noqa: E402,F401  (part of set-up)

# calibration samples per pass, spread over the gaps between tasks, and
# samples right after set-up
CALIBRATION_SAMPLES = 120
SETUP_CALIBRATION_SAMPLES = 20


def calibrate() -> float:
    """Seconds for a fixed loop of sparse integer updates, the kind of work
    superw's inner loops do.  It shares no code with superw, so its time
    tracks only how fast the host runs this process at that moment."""
    t = time.perf_counter()
    acc: dict = {}
    for i in range(20000):
        k = i * 7919 % 499
        v = acc.get(k, 0) + i % 11 - 5
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the spans of a traced pass here")
    ap.add_argument("--reduced", action="store_true",
                    help="the small task set the self-check uses")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first task")
    args = ap.parse_args(argv)

    tr = None
    if args.trace:
        import tracer
        tr = tracer.install()
    import workloads
    tasks = workloads.make_tasks(args.workload, args.seed, reduced=args.reduced)
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
    before = [calibrate() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    out = {"setup_s": setup_s, "setup_cal_s": statistics.fmean(before)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    failures = []
    task_s = {}
    task_cal_s = {}
    cal_reps = -(-CALIBRATION_SAMPLES // (len(tasks) + 1))
    for index, task in enumerate(tasks, start=1):
        t = time.perf_counter()
        try:
            got = tr.run_task(index, task.label, task.run) if tr else task.run()
        except Exception as exc:  # a task that raises fails; the pass goes on
            failures.append(f"{task.label}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            task_s[task.label] = time.perf_counter() - t
            # modules hold reference cycles (a column builder closes over
            # its module); collect them so that peak memory is that of the
            # largest task, whatever order the seed chose
            gc.collect()
            after = [calibrate() for _ in range(cal_reps)]
            task_cal_s[task.label] = statistics.fmean(before + after)
            before = after
        if got != task.expected:
            failures.append(f"{task.label}: got {got!r}, expected {task.expected!r}")
    out.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               task_s=task_s, task_cal_s=task_cal_s, attempted=len(tasks), failed=len(failures),
               failures=failures[:10])
    if tr is not None:
        out["layers"] = tracer.layer_metrics(tr)
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
