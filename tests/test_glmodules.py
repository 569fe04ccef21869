"""Weight modules over the degree-zero part: construction, splitting,
and the contraction-layer identity."""

import pytest

from superw.errors import RankTooSmallError
from superw.glmodules import (check_gl_commutators, decompose, gl_conatural,
                              gl_dual, gl_natural, gl_simple,
                              gl_tensor, gl_trivial, mixed_tensor,
                              schur_module, verify_socle_identity, weyl_dim)
from superw.partitions import Partition, schur_dim
from superw.spanops import iso_check
from superw.weights import Weight


def test_commutators_hold_on_builders():
    for m in (gl_natural(3), gl_conatural(3), mixed_tensor(1, 1, 3),
              schur_module((2,), 2)):
        assert check_gl_commutators(m) == []


def test_natural_and_conatural_are_dual():
    assert iso_check(gl_dual(gl_conatural(3)), gl_natural(3)) is not None
    assert iso_check(gl_dual(gl_natural(2)), gl_conatural(2)) is not None


def test_decompose_mixed_tensor():
    got = decompose(mixed_tensor(1, 1, 3))
    assert got == {Weight(((1, 1), (3, -1))): 1, Weight.zero(): 1}


def test_decompose_square_of_natural():
    got = decompose(gl_tensor(gl_natural(2), gl_natural(2)))
    assert got == {Weight(((1, 2),)): 1, Weight(((1, 1), (2, 1))): 1}


def test_gl_simple_dims():
    assert gl_simple((1,), (), 4).dim == 4
    assert gl_simple((), (1,), 3).dim == 3
    assert gl_simple((1,), (1,), 3).dim == 8
    assert gl_simple((2,), (), 3).dim == 6
    assert gl_simple((), (), 5).dim == 1


def test_gl_simple_conatural_highest_weight():
    m = gl_simple((), (2,), 3)
    assert m.dim == 6
    tops = [v for v in range(m.dim)
            if m.weights[v] == Weight(((3, -2),))]
    assert len(tops) == 1


def test_gl_simple_interleaved_order():
    m = gl_simple((1,), (1,), 4, order="interleaved")
    assert m.dim == 15
    assert any(m.weights[v] == Weight(((1, 1), (2, -1))) for v in range(m.dim))


def test_schur_module_dims_match_tableau_count():
    for parts, n in (((2, 1), 3), ((2,), 4), ((1, 1, 1), 3)):
        assert schur_module(parts, n).dim == schur_dim(parts, n)


def test_weyl_dim_against_schur_dim():
    for parts in ((1,), (2,), (2, 1), (3, 1)):
        for n in (3, 4, 5):
            dense = parts + (0,) * (n - len(parts))
            assert weyl_dim(dense, n) == schur_dim(parts, n)
    assert weyl_dim((2, 0, 0, -2), 4) == 84


def test_socle_identity_single_constituent():
    rep = verify_socle_identity((1,), (), 3)
    assert rep.holds
    assert sorted(rep.layers) == [0]
    ((lp, mp, want, got),) = rep.layers[0]
    assert (lp, mp, want, got) == (Partition((1,)), Partition(), 1, 1)


def test_socle_identity_two_layers():
    rep = verify_socle_identity((1,), (1,), 4)
    assert rep.holds
    assert rep.lhs_dim == 16
    assert rep.layers[1] == [(Partition(), Partition(), 1, 1)]


def test_socle_identity_deeper_pair():
    rep = verify_socle_identity((2,), (1,), 5)
    assert rep.holds
    assert rep.lhs_dim == 15 * 5
    # one box cancels, leaving a single first-layer constituent
    assert rep.layers[1] == [(Partition((1,)), Partition(), 1, 1)]


def test_socle_identity_fails_below_stable_rank():
    rep = verify_socle_identity((1, 1), (1, 1), 2)
    assert not rep.holds
    assert rep.skipped


def test_socle_report_json_shape():
    import json
    rep = verify_socle_identity((1,), (1,), 4)
    data = json.loads(rep.to_json())
    assert data["pass"] is True
    assert data["lambda"] == [1] and data["mu"] == [1] and data["n"] == 4
    ks = [layer["k"] for layer in data["layers"]]
    assert ks == sorted(ks)


def test_mixed_tensor_rank_guard():
    with pytest.raises(RankTooSmallError):
        gl_simple((1, 1, 1), (1, 1), 4)
