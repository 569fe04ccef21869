"""Window-restricted characters and rank stabilization sweeps."""

import json

import pytest

from superw import stability
from superw.glmodules import gl_trivial
from superw.induction import kac_plus
from superw.stability import (_build_family_member, restricted_character,
                              stabilization_sweep)
from superw.tensorfields import lambda_module
from superw.walgebra import basis_terms


def tail_subalgebra_terms(n: int, window: int):
    """Oracle: every basis term supported on indices {window+1..n}, the
    whole tail algebra rather than its generating set."""
    lo_mask = (1 << window) - 1
    return [(m, j) for m, j in basis_terms(n) if not (m & lo_mask) and j > window]


def test_tail_subalgebra_is_a_lower_rank_copy():
    terms = tail_subalgebra_terms(4, 2)
    # every term lives entirely on indices {3, 4}: 4 monomial masks times
    # 2 directions
    assert len(terms) == 8
    assert all(not (mask & 0b11) and j > 2 for mask, j in terms)


def test_annihilator_restriction_of_scalars():
    ch = restricted_character(lambda_module(3), 2, mode="annihilator")
    assert ch.entries == {
        ((0, 0), 0): 1, ((1, 0), 1): 1, ((0, 1), 1): 1, ((1, 1), 2): 1}


def test_coinvariants_of_downward_induction():
    ch = restricted_character(kac_plus(gl_trivial(2), 2), 1, mode="coinvariants")
    assert ch.entries == {((0,), 0): 1, ((-1,), -1): 1}


def test_restricted_character_keeps_zdeg_equal_to_total():
    ch = restricted_character(lambda_module(3), 2, mode="annihilator")
    assert all(sum(w) == z for (w, z) in ch.entries)


def test_empty_pair_downward_family_is_stable():
    rep = stabilization_sweep((), (), 2, 4, obj="K+")
    assert rep.stabilized and rep.first_mismatch is None
    assert [(n, ch.total_dim()) for n, ch in rep.characters] == [(2, 2), (3, 2), (4, 2)]


def test_single_box_extracted_family_is_stable():
    rep = stabilization_sweep((1,), (), 3, 5, obj="L-")
    assert rep.stabilized
    assert all(ch.total_dim() == 3 for _, ch in rep.characters)
    assert rep.window == 2 and rep.mode == "annihilator"


def test_report_json_shape_and_determinism():
    rep = stabilization_sweep((), (), 2, 4, obj="K+")
    data = rep.to_json()
    assert sorted(data.keys()) == ["characters", "lambda", "mode", "mu",
                                   "n_from", "n_to", "object", "stabilized",
                                   "window"]
    row = data["characters"][0]
    assert sorted(row.keys()) == ["entries", "n", "restricted_dim"]
    assert sorted(row["entries"][0].keys()) == ["mult", "weight", "zdeg"]
    assert json.dumps(data) == json.dumps(
        stabilization_sweep((), (), 2, 4, obj="K+").to_json())


def test_sweep_validation():
    with pytest.raises(ValueError):
        stabilization_sweep((1,), (), 4, 4, obj="L-")
    with pytest.raises(ValueError):
        stabilization_sweep((1,), (), 3, 5, obj="L-", window=3)
    with pytest.raises(ValueError):
        stabilization_sweep((1,), (), 3, 5, obj="L-", window=0)
    with pytest.raises(ValueError):
        stabilization_sweep((1,), (), 3, 5, obj="Q")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        restricted_character(lambda_module(3), 2, mode="smooth")


def _oracle_character(monkeypatch, m, window, mode):
    """restricted_character over the whole tail basis instead of the
    shifted generating set."""
    shifted = {(mask << window, j + window)
               for mask, j in basis_terms(m.rank - window)}
    assert shifted == set(tail_subalgebra_terms(m.rank, window))
    with monkeypatch.context() as mp:
        mp.setattr(stability, "generating_terms", basis_terms)
        return restricted_character(m, window, mode=mode)


FAMILIES = [
    ("L-", (1,), (1,)), ("T", (1,), (1,)), ("K+", (1,), (1,)), ("L-", (2,), ()),
    ("K+", (1, 1), ()), ("K+", (), (2,)), ("T", (), (1,)), ("T", (1, 1), ()),
]


@pytest.mark.parametrize("mode", ["annihilator", "coinvariants"])
@pytest.mark.parametrize("obj,lam,mu", FAMILIES)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_generating_set_gives_the_tail_algebra_character(monkeypatch, obj, lam,
                                                         mu, n, mode):
    m = _build_family_member(obj, lam, mu, n)
    for window in (2, 3):
        assert restricted_character(m, window, mode) == \
            _oracle_character(monkeypatch, m, window, mode)


@pytest.mark.parametrize("mode", ["annihilator", "coinvariants"])
@pytest.mark.parametrize("obj,lam,mu",
                         [f for f in FAMILIES if f[0] != "L-"])
def test_generating_set_gives_the_rank_seven_tail_character(monkeypatch, obj,
                                                            lam, mu, mode):
    # tails of rank 3, 4 and 5, where the generating set is n + 3 of the
    # tail's n 2^n terms; L- at rank 7 is too large to extract here
    m = _build_family_member(obj, lam, mu, 7)
    for window in (2, 3, 4):
        assert restricted_character(m, window, mode) == \
            _oracle_character(monkeypatch, m, window, mode)
