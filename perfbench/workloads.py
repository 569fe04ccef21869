"""The benchmark's workloads: task lists built from a seed, each task with
its verdict frozen below.

A task is one question a user of superw asks, answered by the library's
public functions.  The seed chooses the random Jacobi triples, the order
of the tasks, and the ``seed`` argument handed to the functions that take
one; no frozen verdict depends on it.

Library functions are reached through the ``superw`` package at call
time (``sw.is_simple``, not a name bound at import), so a tracer that
replaces them after this module is imported still sees every call.

A full pass of any workload takes 2 to 4 seconds on a 2-core machine, so
a measured run can repeat it several times in fresh processes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

import superw as sw


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    expected: object


def _shapes(max_boxes: int) -> list:
    return [p for s in range(max_boxes + 1) for p in sw.partitions_of(s)]


def _pair_label(lam, mu) -> str:
    return f"{lam}|{mu}"


# ------------------------------------------------------------------ algebra

JACOBI_RANK = 6
# 20000 triples in batches; a batch is one task
JACOBI_BATCHES, JACOBI_BATCH = 40, 500
JACOBI_BATCHES_REDUCED, JACOBI_BATCH_REDUCED = 2, 150

# socle identity at the stable rank n = |lam| + |mu|: holds, and the
# dimension of S_lam(V) (x) S_mu(V*)
SOCLE_EXPECTED = {
    "()|()": (True, 1), "()|(1)": (True, 1), "()|(2)": (True, 3),
    "()|(1,1)": (True, 1), "()|(3)": (True, 10), "()|(2,1)": (True, 8),
    "()|(1,1,1)": (True, 1), "(1)|()": (True, 1), "(1)|(1)": (True, 4),
    "(1)|(2)": (True, 18), "(1)|(1,1)": (True, 9), "(1)|(3)": (True, 80),
    "(1)|(2,1)": (True, 80), "(1)|(1,1,1)": (True, 16), "(2)|()": (True, 3),
    "(2)|(1)": (True, 18), "(2)|(2)": (True, 100), "(2)|(1,1)": (True, 60),
    "(2)|(3)": (True, 525), "(2)|(2,1)": (True, 600),
    "(2)|(1,1,1)": (True, 150), "(1,1)|()": (True, 1), "(1,1)|(1)": (True, 9),
    "(1,1)|(2)": (True, 60), "(1,1)|(1,1)": (True, 36),
    "(1,1)|(3)": (True, 350), "(1,1)|(2,1)": (True, 400),
    "(1,1)|(1,1,1)": (True, 100), "(3)|()": (True, 10), "(3)|(1)": (True, 80),
    "(3)|(2)": (True, 525), "(3)|(1,1)": (True, 350), "(3)|(3)": (True, 3136),
    "(3)|(2,1)": (True, 3920), "(3)|(1,1,1)": (True, 1120),
    "(2,1)|()": (True, 8), "(2,1)|(1)": (True, 80), "(2,1)|(2)": (True, 600),
    "(2,1)|(1,1)": (True, 400), "(2,1)|(3)": (True, 3920),
    "(2,1)|(2,1)": (True, 4900), "(2,1)|(1,1,1)": (True, 1400),
    "(1,1,1)|()": (True, 1), "(1,1,1)|(1)": (True, 16),
    "(1,1,1)|(2)": (True, 150), "(1,1,1)|(1,1)": (True, 100),
    "(1,1,1)|(3)": (True, 1120), "(1,1,1)|(2,1)": (True, 1400),
    "(1,1,1)|(1,1,1)": (True, 400),
}


def _jacobi_defects(triples: list) -> int:
    """How many triples have a nonzero graded Jacobi defect."""
    return sum(1 for x, y, z in triples if sw.graded_jacobi_defect(x, y, z).terms)


def _socle(lam, mu, n: int) -> tuple:
    rep = sw.verify_socle_identity(lam, mu, n)
    return (rep.holds, rep.lhs_dim)


def algebra_tasks(rng: random.Random, reduced: bool) -> list[Task]:
    """Graded Jacobi identity on seeded random homogeneous triples, then the
    socle multiplicity identity on every pair of shapes of at most three
    boxes (two boxes when reduced)."""
    tasks = []
    batches, size = ((JACOBI_BATCHES_REDUCED, JACOBI_BATCH_REDUCED) if reduced
                     else (JACOBI_BATCHES, JACOBI_BATCH))
    for b in range(batches):
        triples = [tuple(sw.suite.random_homogeneous(rng, JACOBI_RANK) for _ in range(3))
                   for _ in range(size)]
        tasks.append(Task(f"jacobi batch {b}",
                          lambda triples=triples: _jacobi_defects(triples), 0))
    shapes = _shapes(2 if reduced else 3)
    for lam, mu in product(shapes, repeat=2):
        n = max(lam.size + mu.size, 1)
        label = _pair_label(lam, mu)
        tasks.append(Task(f"socle {label} n={n}",
                          lambda lam=lam, mu=mu, n=n: _socle(lam, mu, n),
                          SOCLE_EXPECTED[label]))
    return tasks


# --------------------------------------------------------------- simplicity

SIMPLICITY_RANK = 4

# is_simple(kac_plus(gl_simple(lam, mu, 4))) and the module dimension, for
# seven of the sixteen pairs with at most two boxes each: the three that
# are not simple, (1)|() that the operator-span certificate decides, and
# three that the highest-weight certificate decides.  Left out are
# ()|(1,1) and (1,1)|() (7.4 s and 3.5 s of operator spans) and six more
# highest-weight cases, so that a run holds several passes.
SIMPLICITY_EXPECTED = {
    "()|()": (False, 16), "()|(1)": (False, 64), "()|(2)": (False, 160),
    "(1)|()": (True, 64), "(1)|(1)": (True, 240), "(1)|(2)": (True, 576),
    "(2)|()": (True, 160),
}
SIMPLICITY_REDUCED = ("()|()", "()|(2)", "(1)|(1)", "(2)|()")


def _kac_simple(lam, mu, n: int, seed: int) -> tuple:
    m = sw.kac_plus(sw.gl_simple(lam, mu, n, order="natural"), n)
    return (sw.is_simple(m, seed=seed).simple, m.dim)


def simplicity_tasks(rng: random.Random, reduced: bool) -> list[Task]:
    """Simplicity of upward inductions from gl(4) simples."""
    tasks = []
    shapes = _shapes(2)
    for lam, mu in product(shapes, repeat=2):
        label = _pair_label(lam, mu)
        if label not in (SIMPLICITY_REDUCED if reduced else SIMPLICITY_EXPECTED):
            continue
        seed = rng.randrange(1 << 31)
        tasks.append(Task(f"simple K+({label}) n={SIMPLICITY_RANK}",
                          lambda lam=lam, mu=mu, s=seed:
                          _kac_simple(lam, mu, SIMPLICITY_RANK, s),
                          SIMPLICITY_EXPECTED[label]))
    return tasks


# ------------------------------------------------------------------- fields

FIELDS_RANK = 4
SWEEP = ((1,), (1,), 4, 6, "L-")
SWEEP_REDUCED = ((1,), (1,), 4, 5, "L-")
# stabilized, and the restricted dimension at each rank
SWEEP_EXPECTED = (True, (72, 72, 72))
SWEEP_REDUCED_EXPECTED = (True, (72, 72))

# dim L-(lam|mu) at n=4, dim of its degree-zero invariants, and whether
# those invariants are isomorphic to the base simple.  Seven small pairs,
# proper submodules ((1)|(), (2)|()) among them; the sweep above already
# builds the large modules.
FIELDS_EXPECTED = {
    "()|(1)": (64, 4, True), "()|(1,1)": (96, 6, True),
    "(1)|()": (15, 4, True), "(1)|(1)": (240, 15, True),
    "(2)|()": (49, 10, True), "(1,1)|()": (96, 6, True),
    "(1,1)|(1)": (320, 20, True),
}
FIELDS_REDUCED = ("()|(1)", "(1)|()", "(1)|(1)", "(1,1)|()")


def _sweep(lam, mu, n_from: int, n_to: int, obj: str) -> tuple:
    rep = sw.stabilization_sweep(lam, mu, n_from, n_to, obj)
    return (rep.stabilized, tuple(ch.total_dim() for _n, ch in rep.characters))


def _invariants_round_trip(lam, mu, n: int, seed: int) -> tuple:
    L = sw.extract_L_minus(lam, mu, n)
    inv = sw.psi_invariants(L)
    base = sw.gl_simple(lam, mu, n, order="interleaved")
    return (L.dim, inv.dim, sw.gl_iso_check(inv, base, seed=seed) is not None)


def fields_tasks(rng: random.Random, reduced: bool) -> list[Task]:
    """Stabilization of the L-(1|1) family up to n=6, then extraction of
    L-(lam|mu) in the tensor-field module and the invariants round trip."""
    sweep = SWEEP_REDUCED if reduced else SWEEP
    tasks = [Task("sweep L-((1)|(1)) n={}..{}".format(*sweep[2:4]),
                  lambda: _sweep(*sweep),
                  SWEEP_REDUCED_EXPECTED if reduced else SWEEP_EXPECTED)]
    shapes = _shapes(2)
    for lam, mu in product(shapes, repeat=2):
        label = _pair_label(lam, mu)
        if label not in (FIELDS_REDUCED if reduced else FIELDS_EXPECTED):
            continue
        seed = rng.randrange(1 << 31)
        tasks.append(Task(f"L-({label}) n={FIELDS_RANK}",
                          lambda lam=lam, mu=mu, s=seed:
                          _invariants_round_trip(lam, mu, FIELDS_RANK, s),
                          FIELDS_EXPECTED[label]))
    return tasks


# ----------------------------------------------------------------- duality

# (base, rank): whether T(X) is isomorphic to the dual of K+(X*), and dim T(X)
DUALITY_EXPECTED = {
    "C n=6": (True, 64), "V n=5": (True, 160), "V* n=5": (True, 160),
    "V((1)|(1)) n=3": (True, 64),
}
DUALITY_REDUCED = {"C n=3": (True, 8), "V n=3": (True, 24)}


def _duality_bases(reduced: bool) -> list:
    if reduced:
        return [("C n=3", lambda: sw.gl_trivial(3), 3),
                ("V n=3", lambda: sw.gl_natural(3), 3)]
    return [("C n=6", lambda: sw.gl_trivial(6), 6),
            ("V n=5", lambda: sw.gl_natural(5), 5),
            ("V* n=5", lambda: sw.gl_conatural(5), 5),
            ("V((1)|(1)) n=3", lambda: sw.gl_simple((1,), (1,), 3), 3)]


def _duality(make_base, n: int, seed: int) -> tuple:
    rep = sw.coinduction_duality_check(make_base(), n, seed=seed)
    return (rep.passes, rep.dim)


def duality_tasks(rng: random.Random, reduced: bool) -> list[Task]:
    """Coinduction duality: an explicit isomorphism T(X) ~ K+(X*)*."""
    expected = DUALITY_REDUCED if reduced else DUALITY_EXPECTED
    tasks = []
    for label, make_base, n in _duality_bases(reduced):
        seed = rng.randrange(1 << 31)
        tasks.append(Task(f"duality {label}",
                          lambda make_base=make_base, n=n, s=seed:
                          _duality(make_base, n, s),
                          expected[label]))
    return tasks


# ------------------------------------------------------------------ registry

WORKLOADS = {
    "algebra": algebra_tasks,
    "simplicity": simplicity_tasks,
    "fields": fields_tasks,
    "duality": duality_tasks,
}


def make_tasks(workload: str, seed: int, reduced: bool = False) -> list[Task]:
    """Tasks of one workload in the order the seed chooses."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = WORKLOADS[workload](rng, reduced)
    rng.shuffle(tasks)
    return tasks
