"""Print every end-to-end metric of every workload, and check the verdicts.

    python3 perfbench/check.py [--json FILE]

Measures each workload once with tracing off, seed 1, for BENCHMARK.json's
run_seconds, and prints one line per metric with its unit, plus tasks_failed_frac (tasks that raised or gave
a wrong verdict, over tasks attempted).  Exits 1 if any verdict was wrong
or any run failed.  --json writes the figures, the machine they were
measured on and the line count of each source module (informational; the
roadmap tracks net source lines) to FILE.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, BenchError, measure


def src_lines() -> dict[str, int]:
    src = ROOT / "src" / "superw"
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}


SEED = 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write the figures to this file")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    figures: dict = {}
    for w in WORKLOADS:
        try:
            res = measure(w, SEED, seconds, trace=False)
        except BenchError as exc:
            print(f"{w:<11} run failed: {exc}")
            ok = False
            continue
        ok = ok and res["correct"]
        frac = res["failed"] / res["attempted"]
        for name, m in res["metrics"].items():
            print(f"{w:<11} {name:<18} {m['value']:>12.4f} {m['unit']}")
        print(f"{w:<11} {'tasks_failed_frac':<18} {frac:>12.4f} "
              f"({res['failed']} of {res['attempted']})")
        figures[w] = {name: m["value"] for name, m in res["metrics"].items()}
        figures[w]["tasks_failed_frac"] = frac

    lines = src_lines()
    print(f"src lines: {sum(lines.values())} in {len(lines)} modules")
    if args.json:
        record = {"seed": SEED, "seconds": seconds,
                  "machine": {"nproc": os.cpu_count(),
                              "python": platform.python_version()},
                  "workloads": figures, "src_lines": lines}
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    print("all verdicts correct" if ok else "WRONG VERDICTS OR FAILED RUNS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
