"""Survey simplicity of induced and tensor-field modules over partition pairs.

For every pair (lam, mu) with |lam| <= max_size and |mu| <= max_size, build
the upward induction and the tensor-field module at the given rank, record
the simplicity verdicts and the typicality pattern of the highest weight,
and tabulate where the three notions agree.  A pair whose highest weight
does not fit the rank in the natural or the interleaved order is skipped
and listed.  Bad arguments exit 2 with an ``error:`` line.

Run as

    python scripts/simplicity_survey.py --n 4 --max-size 2 --out survey.json
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from superw.errors import RankTooSmallError
from superw.glmodules import gl_simple
from superw.induction import kac_plus, typicality
from superw.modules import is_simple
from superw.partitions import Partition, partitions_of, stable_highest_weight
from superw.tensorfields import tensor_field
from superw.weights import ORDER_KINDS


@dataclass
class Row:
    lam: Partition
    mu: Partition
    kac_simple: bool
    field_simple: bool
    typical: bool
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "kac_plus_simple": self.kac_simple,
            "tensor_field_simple": self.field_simple,
            "typical": self.typical,
            "notes": self.notes,
        }


def pairs_up_to(max_size: int):
    shapes = [p for k in range(max_size + 1) for p in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            yield lam, mu


def fits(lam: Partition, mu: Partition, n: int) -> bool:
    """Whether the highest weight of (lam, mu) fits rank n in both index
    orders: the upward induction builds on the natural one, the tensor
    field on the interleaved one."""
    try:
        for order in ORDER_KINDS:
            stable_highest_weight(lam, mu, order, n)
    except RankTooSmallError:
        return False
    return True


def survey(n: int, max_size: int) -> tuple[list[Row], list[tuple[Partition, Partition]]]:
    """The rows of every pair that fits the rank, and the skipped pairs."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if max_size < 0:
        raise ValueError(f"max size must be non-negative, got {max_size}")
    rows, skipped = [], []
    for lam, mu in pairs_up_to(max_size):
        if not fits(lam, mu, n):
            skipped.append((lam, mu))
            continue
        kv = is_simple(kac_plus(gl_simple(lam, mu, n, order="natural"), n))
        fv = is_simple(tensor_field(gl_simple(lam, mu, n, order="interleaved"), n))
        hw = stable_highest_weight(lam, mu, "natural", n)
        ty = typicality(hw, n)
        row = Row(lam=lam, mu=mu, kac_simple=kv.simple, field_simple=fv.simple,
                  typical=ty.typical)
        if kv.simple != ty.typical:
            row.notes.append("upward simplicity disagrees with typicality")
        rows.append(row)
    return rows, skipped


def print_table(rows: list[Row]) -> None:
    print(f"{'lam':>8} {'mu':>8} {'K+ simple':>10} {'T simple':>9} {'typical':>8}")
    for r in rows:
        print(f"{str(r.lam):>8} {str(r.mu):>8} {str(r.kac_simple):>10}"
              f" {str(r.field_simple):>9} {str(r.typical):>8}"
              + ("  " + "; ".join(r.notes) if r.notes else ""))
    agree = sum(1 for r in rows if r.kac_simple == r.typical)
    print(f"{len(rows)} pairs, upward simplicity matches typicality on {agree}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--max-size", type=int, default=2)
    ap.add_argument("--out", default=None)
    a = ap.parse_args()
    try:
        rows, skipped = survey(a.n, a.max_size)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print_table(rows)
    for lam, mu in skipped:
        print(f"skipped ({lam}|{mu}): highest weight does not fit rank {a.n}")
    if a.out:
        with open(a.out, "w") as fh:
            json.dump({"n": a.n, "max_size": a.max_size,
                       "rows": [r.to_json() for r in rows],
                       "skipped": [{"lambda": list(lam.parts), "mu": list(mu.parts)}
                                   for lam, mu in skipped]},
                      fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {a.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
