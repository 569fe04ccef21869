"""Single-binary command line: build, verify, report.

Subcommands mirror the library layers: dims and check exercise the
algebra, socle the multiplicity identity, kac and tensorfield the two
induction pictures, stabilize the cross-rank sweeps, and suite the full
acceptance battery.  Human-readable text goes to stdout; --out FILE
writes the same facts as deterministic JSON (sorted keys, exact ints,
rationals as "p/q" strings).

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or
rank errors.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .glmodules import gl_simple, verify_socle_identity
from .grassmann import format_monomial, format_terms, gmul
from .induction import kac_minus_truncated, kac_plus, typicality
from .linalg import vec_axpy
from .modules import (check_representation, highest_weight_verdict,
                      is_simple, iso_check, psi_invariants, singular_vectors)
from .partitions import Partition, stable_highest_weight
from .stability import stabilization_sweep
from .suite import (jacobi_failures, random_homogeneous, run_suite,
                    sign_bugged_bracket)
from .tensorfields import (coinduction_duality_check, extract_L_minus,
                           lambda_module, tensor_field)
from .walgebra import (BorelOrder, basis_terms, component_dim, format_term,
                       format_welement, parity, term_bracket)


def _dump(args, payload: dict) -> None:
    if getattr(args, "out", None):
        text = json.dumps(payload, sort_keys=True, indent=2)
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from e


def _require_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")


def _pair_fields(lam: Partition, mu: Partition, n: int) -> dict:
    return {"lambda": list(lam.parts), "mu": list(mu.parts), "n": n}


# ------------------------------------------------------------------- dims


def cmd_dims(args) -> int:
    n = args.n
    if not 2 <= n <= 12:
        raise ValueError(f"rank must be between 2 and 12, got {n}")
    rows = [(k, component_dim(n, k)) for k in range(-1, n)]
    total = sum(d for _, d in rows)
    print(f"graded dimensions at rank {n}")
    for k, d in rows:
        print(f"  degree {k:>2}: {d}")
    print(f"  total    : {total}")
    _dump(args, {"n": n, "total": total,
                 "components": [{"degree": k, "dim": d} for k, d in rows]})
    return 0


# ------------------------------------------------------------------ check


def _leibniz_failures(n: int, samples: int, seed: int, limit: int = 1) -> list:
    rng = random.Random(seed)
    act = lambda_module(n).act  # x^f at index f, so a term dict is its vector
    bad = []
    full = (1 << n) - 1
    for _ in range(samples):
        x = random_homogeneous(rng, n)
        a = rng.randrange(full + 1)
        f = {a: rng.randint(1, 3)}
        g = {rng.randrange(full + 1): rng.randint(1, 3),
             rng.randrange(full + 1): rng.randint(-3, 3)}
        g = {m: c for m, c in g.items() if c}
        sgn = -1 if parity(x) and a.bit_count() & 1 else 1
        defect = act(x, gmul(f, g))
        vec_axpy(defect, -1, gmul(act(x, f), g))
        vec_axpy(defect, -sgn, gmul(f, act(x, g)))
        if defect:
            bad.append((x, f, g))
            if len(bad) >= limit:
                break
    return bad


def cmd_check(args) -> int:
    n, samples, seed = args.n, args.samples, args.seed
    _require_rank(n)
    if n > 12:  # the cap of dims; the sampled basis tables hold n * 2^n terms
        raise ValueError(f"rank must be between 1 and 12, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    kernel = sign_bugged_bracket if args.inject_sign_bug else term_bracket
    props = []

    jac = jacobi_failures(n, samples, seed, kernel, limit=1)
    jac_dump = None
    if jac:
        x, y, z = jac[0]
        jac_dump = [format_welement(v) for v in (x, y, z)]
    props.append({"name": "jacobi", "passed": not jac, "samples": samples,
                  "counterexample": jac_dump})

    leib = _leibniz_failures(n, samples, seed + 1)
    leib_dump = None
    if leib:
        x, f, g = leib[0]
        leib_dump = [format_welement(x)] + [
            format_terms(h, lambda m: (m.bit_count(), m), format_monomial) for h in (f, g)]
    props.append({"name": "leibniz", "passed": not leib, "samples": samples,
                  "counterexample": leib_dump})

    rng = random.Random(seed + 2)
    pool = basis_terms(n)
    picked = sorted(rng.sample(pool, min(10, len(pool))))
    rep_bad = check_representation(lambda_module(n), terms=picked)
    rep_dump = None
    if rep_bad:
        x, y, c = rep_bad[0]
        rep_dump = [format_term(x), format_term(y), c]
    props.append({"name": "representation", "passed": not rep_bad,
                  "samples": len(picked) ** 2, "counterexample": rep_dump})

    ok = all(p["passed"] for p in props)
    for p in props:
        tag = "pass" if p["passed"] else "FAIL"
        line = f"  {p['name']:<15} {tag}  ({p['samples']} cases)"
        print(line)
        if p["counterexample"]:
            print(f"    counterexample: {p['counterexample']}")
    _dump(args, {"n": n, "samples": samples, "seed": seed,
                 "sign_bug": bool(args.inject_sign_bug),
                 "properties": props, "all_passed": ok})
    return 0 if ok else 1


# ------------------------------------------------------------------ socle


def cmd_socle(args) -> int:
    _require_rank(args.n)
    rep = verify_socle_identity(args.lam, args.mu, args.n)
    tag = "PASS" if rep.holds else "FAIL"
    print(f"socle layers for ({args.lam}|{args.mu}) at rank {args.n}: {tag}")
    print(f"  product dim {rep.lhs_dim}, layer dim {rep.rhs_dim}")
    for k in sorted(rep.layers):
        for lp, mp, want, got in rep.layers[k]:
            mark = "" if want == got else "  <- mismatch"
            print(f"  layer {k}: ({lp}|{mp}) expected {want} observed {got}{mark}")
    for lp, mp, got in rep.extras:
        print(f"  unexpected constituent ({lp}|{mp}) x{got}")
    _dump(args, rep.to_json())
    return 0 if rep.holds else 1


# -------------------------------------------------------------------- kac


def cmd_kac(args) -> int:
    lam, mu, n, kind = args.lam, args.mu, args.n, args.kind
    _require_rank(n)
    if kind == "plus" and args.degree_cutoff is not None:
        raise ValueError("--degree-cutoff applies to --kind minus only")
    if kind == "plus":
        order, ext = "natural", "max"
        x = gl_simple(lam, mu, n, order=order)
        m = kac_plus(x, n)
    else:
        order, ext = "interleaved", "min"
        x = gl_simple(lam, mu, n, order=order)
        cutoff = args.degree_cutoff if args.degree_cutoff is not None else 2
        m = kac_minus_truncated(x, n, cutoff)
    hw = stable_highest_weight(lam, mu, order, n)
    typ = typicality(hw, n)
    b = BorelOrder(order, n, ext)
    t0, s = m.meta["base_total"], m.meta["layer_sign"]
    # one solve gives the primitives, the singular vectors off the base
    # layer, and for kind plus, whose Borel is is_simple's, the verdict
    sing = singular_vectors(m, b)
    prims = [{"weight": list(w.dense(n)), "degree": (w.total() - t0) * s}
             for w, vecs in sing.items() if w.total() != t0 for _ in vecs]
    prims.sort(key=lambda e: (e["degree"], e["weight"]))

    if kind == "plus":
        verdict = highest_weight_verdict(m, sing)
        vjson = {"simple": verdict.simple, "method": verdict.method}
        if verdict.witness_weight is not None:
            vjson["witness_weight"] = list(verdict.witness_weight.dense(n))
        consistent = verdict.simple == typ.typical and verdict.simple == (not prims)
    else:
        # the truncation cannot certify simplicity, only refute it
        vjson = {"simple": False if prims else None,
                 "method": "primitive in truncation" if prims else "inconclusive"}
        consistent = True

    both = {o: list(stable_highest_weight(lam, mu, o, n).dense(n))
            for o in ("natural", "interleaved")}
    name = f"K{'+' if kind == 'plus' else '-'}({lam}|{mu})"
    print(f"{name} at rank {n}: dim {m.dim}")
    print(f"  highest weight {hw} ({'typical' if typ.typical else 'atypical'})")
    if kind == "plus":
        print(f"  simple: {verdict.simple} (via {verdict.method})")
    else:
        print(f"  simple: {vjson['simple']} ({vjson['method']})")
    for e in prims:
        print(f"  primitive at layer {e['degree']}, weight {e['weight']}")
    if not consistent:
        print("  INCONSISTENT: verdict, typicality, and primitives disagree")

    payload = _pair_fields(lam, mu, n)
    payload.update({"kind": kind, "dim": m.dim,
                    "highest_weight": list(hw.dense(n)),
                    "highest_weight_by_order": both,
                    "typicality": typ.to_json(),
                    "simplicity_verdict": vjson,
                    "primitives": prims})
    if kind == "minus":
        payload["D"] = m.meta["cutoff"]
    _dump(args, payload)
    return 0 if consistent else 1


# ------------------------------------------------------------ tensorfield


def cmd_tensorfield(args) -> int:
    lam, mu, n = args.lam, args.mu, args.n
    _require_rank(n)
    x = gl_simple(lam, mu, n, order="interleaved")
    t = tensor_field(x, n)
    hw = stable_highest_weight(lam, mu, "interleaved", n)
    verdict = is_simple(t)
    print(f"T({lam}|{mu}) at rank {n}: dim {t.dim}, highest weight {hw}")
    print(f"  simple: {verdict.simple} (via {verdict.method})")
    ok = True
    dim_l = None
    psi_ok = None
    if not args.skip_extract:
        sub = extract_L_minus(lam, mu, n)
        dim_l = sub.dim
        psi_ok = iso_check(psi_invariants(sub), x) is not None
        print(f"  submodule dim {dim_l} ({'full' if dim_l == t.dim else 'proper'})")
        print(f"  invariants round-trip: {psi_ok}")
        ok = ok and psi_ok and (verdict.simple == (dim_l == t.dim))
    payload = _pair_fields(lam, mu, n)
    payload.update({"dim_T": t.dim, "dim_L_minus": dim_l,
                    "highest_weight": list(hw.dense(n)),
                    "simple": verdict.simple, "psi_iso": psi_ok})
    if args.duality:
        rep = coinduction_duality_check(x, n)
        print(f"  coinduction duality: {rep.passes}")
        payload["duality"] = rep.passes
        ok = ok and rep.passes
    _dump(args, payload)
    return 0 if ok else 1


# -------------------------------------------------------------- stabilize


def cmd_stabilize(args) -> int:
    rep = stabilization_sweep(args.lam, args.mu, args.n_from, args.n_to,
                              args.object, window=args.window)
    print(f"{args.object} family ({args.lam}|{args.mu}), ranks "
          f"{args.n_from}..{args.n_to}, window {rep.window} ({rep.mode})")
    for n, ch in rep.characters:
        print(f"  n={n}: restricted dim {ch.total_dim()}")
    print(f"  stabilized: {rep.stabilized}")
    if rep.first_mismatch:
        print(f"  first disagreement between n={rep.first_mismatch[0]} "
              f"and n={rep.first_mismatch[1]}")
    _dump(args, rep.to_json())
    return 0 if rep.stabilized else 1


# ------------------------------------------------------------------ suite


def cmd_suite(args) -> int:
    results = run_suite()
    for c in results:
        print(c.line())
    ok = all(c.passed for c in results)
    print("all criteria passed" if ok else "SUITE FAILED")
    _dump(args, {"criteria": [c.to_json() for c in results], "all_passed": ok})
    return 0 if ok else 1


# ------------------------------------------------------------------- main


def _add_pair_flags(p) -> None:
    p.add_argument("-l", "--lambda", dest="lam", type=Partition.parse,
                   default=Partition(), metavar="PARTS",
                   help="first shape, comma format like 2,1 (empty for none)")
    p.add_argument("-m", "--mu", dest="mu", type=Partition.parse,
                   default=Partition(), metavar="PARTS",
                   help="second shape, comma format")


def _add_out(p) -> None:
    p.add_argument("--out", metavar="FILE", help="also write a JSON report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="superw",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="graded dimension table")
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("check", help="bracket and action property sweeps")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--inject-sign-bug", action="store_true",
                   help="negative control: break the bracket and expect failure")
    _add_out(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("socle", help="layer multiplicities of a mixed tensor")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(fn=cmd_socle)

    p = sub.add_parser("kac", help="induced module report")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("plus", "minus"), default="plus")
    p.add_argument("-D", "--degree-cutoff", dest="degree_cutoff", type=int,
                   help="truncation depth for kind=minus (default 2)")
    _add_out(p)
    p.set_defaults(fn=cmd_kac)

    p = sub.add_parser("tensorfield", help="tensor field module report")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--skip-extract", action="store_true",
                   help="skip the submodule extraction and round-trip")
    p.add_argument("--duality", action="store_true",
                   help="also check the coinduced-dual identification")
    _add_out(p)
    p.set_defaults(fn=cmd_tensorfield)

    p = sub.add_parser("stabilize", help="cross-rank restricted characters")
    _add_pair_flags(p)
    p.add_argument("--n-from", dest="n_from", type=int, required=True)
    p.add_argument("--n-to", dest="n_to", type=int, required=True)
    p.add_argument("--object", choices=("L-", "T", "K+"), default="L-")
    p.add_argument("--window", type=int,
                   help="comparison window (default: one below n-from)")
    _add_out(p)
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    _add_out(p)
    p.set_defaults(fn=cmd_suite)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) and not Path(args.out).parent.is_dir():
            raise ValueError(f"no directory {Path(args.out).parent} for --out")
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
