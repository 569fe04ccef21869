"""Survey simplicity of induced and tensor-field modules over partition pairs.

For every pair (lam, mu) with |lam| <= max_size and |mu| <= max_size, build
the upward induction and the tensor-field module at the given rank, record
the simplicity verdicts and the typicality pattern of the highest weight,
and tabulate where the three notions agree.

Run as

    python scripts/simplicity_survey.py --n 4 --max-size 2 --out survey.json
"""
from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field

from superw.glmodules import gl_simple
from superw.induction import kac_plus, typicality
from superw.modules import is_simple
from superw.partitions import Partition, partitions_of, stable_highest_weight
from superw.tensorfields import tensor_field_simplicity


@dataclass
class SurveyConfig:
    n: int = 4
    max_size: int = 2
    out: str | None = None


@dataclass
class Row:
    lam: Partition
    mu: Partition
    kac_simple: bool
    field_simple: bool
    typical: bool
    seconds: float = 0.0
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "kac_plus_simple": self.kac_simple,
            "tensor_field_simple": self.field_simple,
            "typical": self.typical,
            "seconds": round(self.seconds, 3),
            "notes": self.notes,
        }


def pairs_up_to(max_size: int):
    shapes = [p for k in range(max_size + 1) for p in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            yield lam, mu


def survey(cfg: SurveyConfig) -> list[Row]:
    rows = []
    for lam, mu in pairs_up_to(cfg.max_size):
        t0 = time.perf_counter()
        base = gl_simple(lam, mu, cfg.n, order="natural")
        kv = is_simple(kac_plus(base, cfg.n))
        fv = tensor_field_simplicity(lam, mu, cfg.n)
        hw = stable_highest_weight(lam, mu, "natural", cfg.n)
        ty = typicality(hw, cfg.n)
        row = Row(lam=lam, mu=mu, kac_simple=kv.simple, field_simple=fv.simple,
                  typical=ty.typical, seconds=time.perf_counter() - t0)
        if kv.simple != ty.typical:
            row.notes.append("upward simplicity disagrees with typicality")
        rows.append(row)
    return rows


def print_table(rows: list[Row]) -> None:
    print(f"{'lam':>8} {'mu':>8} {'K+ simple':>10} {'T simple':>9} {'typical':>8}")
    for r in rows:
        print(f"{str(r.lam):>8} {str(r.mu):>8} {str(r.kac_simple):>10}"
              f" {str(r.field_simple):>9} {str(r.typical):>8}"
              + ("  " + "; ".join(r.notes) if r.notes else ""))
    agree = sum(1 for r in rows if r.kac_simple == r.typical)
    print(f"{len(rows)} pairs, upward simplicity matches typicality on {agree}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--max-size", type=int, default=2)
    ap.add_argument("--out", default=None)
    a = ap.parse_args()
    cfg = SurveyConfig(n=a.n, max_size=a.max_size, out=a.out)
    rows = survey(cfg)
    print_table(rows)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            json.dump({"n": cfg.n, "max_size": cfg.max_size,
                       "rows": [r.to_json() for r in rows]},
                      fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {cfg.out}")


if __name__ == "__main__":
    main()
