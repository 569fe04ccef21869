"""Acceptance battery: one test per release criterion.

Each test runs the corresponding criterion end to end and prints its
pass/fail line, so `pytest -v tests/test_acceptance.py -s` doubles as the
release checklist.  The same battery backs the `superw suite` command.
"""

from superw.modules import SimplicityVerdict
from superw.suite import (criterion_1, criterion_2, criterion_3, criterion_4,
                          criterion_5, criterion_6, criterion_7, criterion_8,
                          criterion_9)


def _run(fn):
    c = fn()
    print(c.line())
    assert c.passed, c.detail
    return c


def test_criterion_1_bracket_axioms():
    c = _run(criterion_1)
    assert c.seconds < 10.0


def test_criterion_2_socle_multiplicities():
    c = _run(criterion_2)
    assert c.seconds < 10.0


def test_criterion_3_upward_induction_dichotomy():
    c = _run(criterion_3)
    assert c.seconds < 300.0


def test_criterion_4_downward_induction_primitives():
    _run(criterion_4)


def test_criterion_5_tensor_field_realizations():
    _run(criterion_5)


def test_criterion_5_certifies_each_L_minus_simple(monkeypatch):
    # L- is the simple side of each isomorphism check, so its simplicity
    # is certified first
    import superw.suite as suite
    monkeypatch.setattr(suite, "is_simple",
                        lambda m: SimplicityVerdict(False, "witness"))
    c = criterion_5()
    assert not c.passed and c.detail == "scalar-field L- not simple at n=3"


def test_criterion_6_coinduction_duality():
    _run(criterion_6)


def test_criterion_7_invariants_round_trip():
    _run(criterion_7)


def test_criterion_8_stabilization():
    c = _run(criterion_8)
    assert c.seconds < 10.0


def test_criterion_9_negative_controls():
    _run(criterion_9)
