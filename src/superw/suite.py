"""End-to-end checks of the headline structural results.

Each criterion function builds everything it needs from scratch, runs an
exact verification, and returns a small record.  The CLI suite command
and the acceptance tests both run these; neither owns the logic.

The checks are property-based at finite rank: bracket axioms on random
homogeneous triples, multiplicity identities over a swept family of
shapes, dichotomies checked against every shape in a box, and
highest-weight isomorphism certificates for the advertised realizations.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product
from math import comb

from .glmodules import (gl_conatural, gl_natural, gl_simple, gl_trivial,
                        verify_socle_identity)
from .grassmann import merge_sign, removal_sign
from .induction import kac_minus_truncated, kac_plus, typicality
from .modules import (is_simple, iso_check, psi_invariants, quotient_module,
                      singular_space, submodule_generated)
from .partitions import partitions_of, stable_highest_weight
from .stability import stabilization_sweep
from .tensorfields import (adjoint_module, coinduction_duality_check,
                           extract_L_minus, lambda_module)
from .walgebra import (BorelOrder, WElement, basis_terms, bracket,
                       component_dim, graded_jacobi_defect, term_bracket,
                       triangular_terms)
from .weights import Weight

JACOBI_SEED = 20240817

# every pair of shapes with at most two boxes each
PAIRS_LE2 = [(l, m)
             for l in [p for s in range(3) for p in partitions_of(s)]
             for m in [p for s in range(3) for p in partitions_of(s)]]


@dataclass
class Criterion:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index}: {self.name} ({self.seconds:.2f}s) {self.detail}"

    def to_json(self) -> dict:
        # no seconds: `suite --out` must be byte-stable across runs
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "detail": self.detail}


def random_homogeneous(rng: random.Random, n: int) -> WElement:
    pool = basis_terms(n, rng.randrange(-1, n))
    picks = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    return WElement(n, {t: rng.randint(1, 4) * rng.choice((1, -1)) for t in picks})


def jacobi_failures(n: int, samples: int, seed: int = JACOBI_SEED,
                    kernel=term_bracket, limit: int | None = 3) -> list:
    """Triples with a nonzero graded Jacobi defect under kernel, up to limit."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        x, y, z = (random_homogeneous(rng, n) for _ in range(3))
        if graded_jacobi_defect(x, y, z, kernel).terms:
            bad.append((x, y, z))
            if limit is not None and len(bad) >= limit:
                break
    return bad


def sign_bugged_bracket(xt: dict, yt: dict) -> dict:
    """Deliberately wrong ``term_bracket``: the plain commutator of the two
    composition halves, dropping the parity twist on the second.  Used as
    a negative control; it must fail the Jacobi sweep."""
    out: dict = {}

    def accumulate(t, c):
        nc = out.get(t, 0) + c
        if nc:
            out[t] = nc
        else:
            out.pop(t, None)

    for (a, j), ca in xt.items():
        jbit = 1 << (j - 1)
        for (b, l), cb in yt.items():
            c = ca * cb
            if b & jbit:
                rem = b ^ jbit
                s = removal_sign(j, b) * merge_sign(a, rem)
                if s:
                    accumulate((a | rem, l), s * c)
            lbit = 1 << (l - 1)
            if a & lbit:
                rem = a ^ lbit
                s = removal_sign(l, a) * merge_sign(b, rem)
                if s:
                    accumulate((b | rem, j), -s * c)
    return out


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def criterion_1() -> Criterion:
    """Bracket axioms: Jacobi on random triples, graded dimensions, and
    the matrix-unit commutator identification in degree zero."""
    def run():
        bad = jacobi_failures(4, 1000)
        if bad:
            x, y, z = bad[0]
            return False, f"jacobi defect on ({x}, {y}, {z})"
        for n in range(1, 7):
            for k in range(-1, n):
                want = comb(n, k + 1) * n
                if component_dim(n, k) != want or len(basis_terms(n, k)) != want:
                    return False, f"dim mismatch at n={n}, k={k}"
            if sum(component_dim(n, k) for k in range(-1, n)) != n * 2 ** n:
                return False, f"total dim mismatch at n={n}"
        for n in range(1, 5):
            for i, j, k, l in product(range(1, n + 1), repeat=4):
                lhs = bracket(WElement.matrix_unit(n, i, j),
                              WElement.matrix_unit(n, k, l))
                rhs = WElement(n)
                if j == k:
                    rhs = rhs + WElement.matrix_unit(n, i, l)
                if l == i:
                    rhs = rhs - WElement.matrix_unit(n, k, j)
                if (lhs - rhs).terms:
                    return False, f"commutator mismatch E{i}{j},E{k}{l} at n={n}"
        return True, "1000 jacobi triples, dims to n=6, gl commutators to n=4"
    (ok, detail), secs = _timed(run)
    return Criterion(1, "bracket axioms", ok, detail, secs)


def criterion_2() -> Criterion:
    """Socle multiplicity identity across every pair of shapes with at
    most four boxes each, two past the stable rank for the pair."""
    def run():
        shapes = [p for s in range(5) for p in partitions_of(s)]
        count = 0
        for lam, mu in product(shapes, repeat=2):
            n = lam.size + mu.size + 2
            rep = verify_socle_identity(lam, mu, n)
            if not rep.holds:
                return False, f"identity fails at lam={lam}, mu={mu}, n={n}"
            count += 1
        return True, f"{count} shape pairs, all layers matched"
    (ok, detail), secs = _timed(run)
    return Criterion(2, "socle multiplicities", ok, detail, secs)


def criterion_3() -> Criterion:
    """Simplicity dichotomy for upward inductions at rank 4: simple
    exactly away from the one-row duals, where an explicit primitive
    generates a proper submodule."""
    def run():
        verdicts = []
        for lam, mu in PAIRS_LE2:
            k = kac_plus(gl_simple(lam, mu, 4, order="natural"), 4)
            expect = not (lam.size == 0 and len(mu.parts) <= 1)
            got = is_simple(k).simple
            verdicts.append(got)
            if got != expect:
                return False, f"dichotomy mismatch at lam={lam}, mu={mu}: simple={got}"
        for kk in (1, 2):
            m = kac_plus(gl_simple((), (kk,), 4, order="natural"), 4)
            b = BorelOrder("natural", 4, "max")
            target = -(kk + 1) * Weight.eps(4)  # its total puts it in layer one
            hits = singular_space(m, b, target)
            if not hits:
                return False, f"no primitive at weight {target} for mu=({kk})"
            sub = submodule_generated(m, hits[:1])
            if not 0 < sub.dim < m.dim:
                return False, f"primitive span not proper for mu=({kk})"
        n_simple = sum(verdicts)
        return True, f"16 pairs: {n_simple} simple, {16 - n_simple} not; primitives proper"
    (ok, detail), secs = _timed(run)
    return Criterion(3, "upward induction dichotomy", ok, detail, secs)


def criterion_4() -> Criterion:
    """Downward inductions are never simple: for every shape pair the
    vector (x1 x3 d2).v_hw survives in the depth-2 truncation and is
    primitive for the interleaved-order Borel with lower nilradical."""
    def run():
        x_term = (0b101, 2)
        b = BorelOrder("interleaved", 4, "min")
        gens, _ = triangular_terms(b)
        for lam, mu in PAIRS_LE2:
            base = gl_simple(lam, mu, 4, order="interleaved")
            m = kac_minus_truncated(base, 4, cutoff=2)
            hw = stable_highest_weight(lam, mu, "interleaved", 4)
            t0 = m.meta["base_total"]
            tops = [i for i in range(m.dim)
                    if m.weights[i].total() == t0 and m.weights[i] == hw]
            if len(tops) != 1:
                return False, f"ambiguous top vector at lam={lam}, mu={mu}"
            vec = m.column(x_term, tops[0])
            if not vec:
                return False, f"x.v vanishes at lam={lam}, mu={mu}"
            if any(m.weights[i].total() != t0 + 1 for i in vec):
                return False, f"x.v not in layer one at lam={lam}, mu={mu}"
            if any(m.act_term(g, vec) for g in gens):
                return False, f"x.v not primitive at lam={lam}, mu={mu}"
        return True, "16 pairs, each with a proper degree-1 primitive"
    (ok, detail), secs = _timed(run)
    return Criterion(4, "downward induction primitives", ok, detail, secs)


def criterion_5() -> Criterion:
    """Tensor-field realizations: the one-box submodules, each certified
    simple and then the simple side of ``iso_check``, are the reduced
    scalar fields and the full vector-field algebra."""
    def run():
        for n in (3, 4):
            L = extract_L_minus((1,), (), n)
            lam_mod = lambda_module(n)
            q = quotient_module(lam_mod, submodule_generated(lam_mod, [{0: 1}]))
            if L.dim != 2 ** n - 1:
                return False, f"scalar-field dim {L.dim} at n={n}"
            if L.meta["highest_weight"] != Weight.eps(1):
                return False, f"scalar-field weight {L.meta['highest_weight']} at n={n}"
            if not is_simple(L).simple:
                return False, f"scalar-field L- not simple at n={n}"
            if iso_check(q, L) is None:
                return False, f"no intertwiner onto reduced scalars at n={n}"
        for n in (2, 3):
            L = extract_L_minus((), (1,), n)
            if L.dim != n * 2 ** n:
                return False, f"vector-field dim {L.dim} at n={n}"
            if L.meta["highest_weight"] != -Weight.eps(2):
                return False, f"vector-field weight {L.meta['highest_weight']} at n={n}"
            if not is_simple(L).simple:
                return False, f"vector-field L- not simple at n={n}"
            if iso_check(adjoint_module(n), L) is None:
                return False, f"no intertwiner onto adjoint at n={n}"
        return True, "scalars mod constants (n=3,4) and adjoint (n=2,3) matched"
    (ok, detail), secs = _timed(run)
    return Criterion(5, "tensor field realizations", ok, detail, secs)


def criterion_6() -> Criterion:
    """Tensor fields agree with the coinduced dual of the upward
    induction on the dual base, by Frobenius reciprocity."""
    def run():
        bases = [gl_trivial(3), gl_natural(3), gl_conatural(3),
                 gl_simple((1,), (1,), 3)]
        for x in bases:
            rep = coinduction_duality_check(x, 3)
            if not rep.passes:
                return False, f"duality fails for base {x.name}"
        return True, "4 bases at n=3, all with invertible intertwiners"
    (ok, detail), secs = _timed(run)
    return Criterion(6, "coinduction duality", ok, detail, secs)


def criterion_7() -> Criterion:
    """Degree-zero invariants of each extracted submodule recover the
    base simple it was built from, read from the extraction's meta."""
    def run():
        for lam, mu in PAIRS_LE2:
            L = extract_L_minus(lam, mu, 4)
            if iso_check(psi_invariants(L), L.meta["base"]) is None:
                return False, f"invariants differ at lam={lam}, mu={mu}"
        return True, "16 pairs, invariants isomorphic to the base simple"
    (ok, detail), secs = _timed(run)
    return Criterion(7, "invariants round-trip", ok, detail, secs)


def criterion_8() -> Criterion:
    """Window-restricted characters stabilize across ranks 4..7 for the
    advertised families."""
    def run():
        cases = [((1,), (), "L-"), ((), (1,), "L-"), ((1,), (1,), "L-"),
                 ((1,), (1,), "K+")]
        dims = []
        for lam, mu, obj in cases:
            rep = stabilization_sweep(lam, mu, 4, 7, obj)
            if not rep.stabilized:
                return False, f"{obj} family lam={lam}, mu={mu} drifts: {rep.first_mismatch}"
            dims.append(rep.characters[0][1].total_dim())
        return True, f"4 families stable on window 3, restricted dims {dims}"
    (ok, detail), secs = _timed(run)
    return Criterion(8, "stabilization", ok, detail, secs)


def criterion_9() -> Criterion:
    """Negative controls: a sign-bugged bracket must fail the Jacobi
    sweep, and the boundary weights -k eps_n must all test atypical."""
    def run():
        bad = jacobi_failures(4, 200, kernel=sign_bugged_bracket, limit=1)
        if not bad:
            return False, "sign-bugged bracket slipped through the jacobi sweep"
        for k in (0, 1, 2):
            t = typicality(-k * Weight.eps(4), 4)
            if t.typical:
                return False, f"-{k}*eps4 reported typical"
        return True, "bugged bracket caught; boundary weights atypical for k=0,1,2"
    (ok, detail), secs = _timed(run)
    return Criterion(9, "negative controls", ok, detail, secs)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]


def run_suite() -> list[Criterion]:
    return [fn() for fn in CRITERIA]

