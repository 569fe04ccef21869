"""Trace window-restricted characters of module families across ranks.

For each requested family the script rebuilds the module at every rank in
[n_from, n_to], restricts to the leading index window, and reports whether
the restricted character has stopped changing.  The interesting output is
the per-rank restricted dimension trace, which flattens exactly when the
family stabilizes.  Bad arguments exit 2 with an ``error:`` line.

Run as

    python scripts/stabilization_sweep.py --n-from 4 --n-to 6 --out sweep.json
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from superw.stability import stabilization_sweep

# family spec: (object kind, lam, mu)
DEFAULT_FAMILIES = [
    ("L-", (1,), ()),
    ("L-", (), (1,)),
    ("L-", (1,), (1,)),
    ("K+", (1,), (1,)),
    ("T", (1,), ()),
]


def parse_family(text: str):
    kind, lam, mu = (text.split(":") + ["", ""])[:3]
    to_parts = lambda s: tuple(int(p) for p in s.split(",") if p)
    return kind, to_parts(lam), to_parts(mu)


def run(args, families) -> list[dict]:
    out = []
    for kind, lam, mu in families:
        t0 = time.perf_counter()
        rep = stabilization_sweep(lam, mu, args.n_from, args.n_to, obj=kind,
                                  window=args.window)
        dt = time.perf_counter() - t0
        trace = [(n, ch.total_dim()) for n, ch in rep.characters]
        flag = "stable" if rep.stabilized else f"mismatch at {rep.first_mismatch}"
        print(f"{kind:>3} ({lam}|{mu}) window {rep.window}: "
              + " -> ".join(f"{d}@n={n}" for n, d in trace)
              + f"  [{flag}, {dt:.1f}s]")
        out.append(rep.to_json())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-from", type=int, default=4)
    ap.add_argument("--n-to", type=int, default=6)
    ap.add_argument("--window", type=int, default=None)
    ap.add_argument("--family", action="append", default=None,
                    metavar="KIND:LAM:MU",
                    help="e.g. L-:1:1 or K+::1; repeatable")
    ap.add_argument("--out", default=None)
    a = ap.parse_args()
    try:
        families = ([parse_family(f) for f in a.family]
                    if a.family else DEFAULT_FAMILIES)
        reports = run(a, families)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if a.out:
        with open(a.out, "w") as fh:
            json.dump(reports, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {a.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
