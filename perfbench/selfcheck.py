"""Self-check of the benchmark on a reduced size of every workload.

    python3 perfbench/selfcheck.py

For each workload it runs two traced passes with one seed and checks
that every verdict is right, that every count metric repeats exactly,
that the traced pass emits the per-layer metrics BENCHMARK.json names
with the same units, and that every span lies inside its parent within
one task.  A third pass with another seed checks that no verdict changes
with the seed.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import sys
import time

from run import ROOT, SPANS_DIR, WORKLOADS, launch

SEED, OTHER_SEED = 11, 12
DEADLINE_S = 600


def spans_nest(path) -> list[str]:
    spans = {}
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            spans[s["id"]] = s
    bad = []
    for s in spans.values():
        if s["start_ns"] > s["end_ns"]:
            bad.append(f"span {s['id']} {s['name']} ends before it starts")
        p = spans.get(s["parent"])
        if s["parent"] and p is None:
            bad.append(f"span {s['id']} {s['name']} has no recorded parent")
        elif p is not None and not (p["start_ns"] <= s["start_ns"]
                                    and s["end_ns"] <= p["end_ns"]
                                    and p["task"] == s["task"]):
            bad.append(f"span {s['id']} {s['name']} escapes parent {p['name']}")
    if not spans:
        bad.append("no spans recorded")
    return bad


def check_workload(w: str, declared: dict) -> list[str]:
    deadline = time.monotonic() + DEADLINE_S
    problems = []
    SPANS_DIR.mkdir(exist_ok=True)
    runs = []
    for rep in (1, 2):
        spans = SPANS_DIR / f"selfcheck-{w}-{rep}.jsonl"
        res = launch(w, SEED, deadline, "--reduced", "--trace", "--spans", str(spans))
        runs.append(res)
        problems += [f"wrong verdict: {f}" for f in res["failures"]]
        problems += spans_nest(spans)

    first, second = (r["layers"] for r in runs)
    emitted = {name: unit for name, (_v, unit) in first.items()}
    emitted["trace_overhead_ratio"] = "ratio"
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        units = sorted(k for k in set(emitted) & set(declared) if emitted[k] != declared[k])
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"missing {missing}, undeclared {extra}, unit mismatch {units}")
    for name, (value, unit) in first.items():
        if unit != "s" and second[name][0] != value:
            problems.append(f"count {name} not repeatable: {value} then {second[name][0]}")

    other = launch(w, OTHER_SEED, deadline, "--reduced")
    problems += [f"wrong verdict with seed {OTHER_SEED}: {f}" for f in other["failures"]]
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failed = False
    for w in WORKLOADS:
        problems = check_workload(w, declared)
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
