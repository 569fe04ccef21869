"""Dense weights against the sparse oracle they replaced.

``Weight`` is the dense tuple of its coordinates with trailing zeros
dropped; ``helpers.SparseWeight`` is the sorted-pairs class it replaced.
Both are built from the same random sparse coordinate lists, with zero,
negative, repeated and cancelling entries, and must agree on every
operation and print the same bytes.
"""

import copy
import json
import pickle
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superw.weights import Weight

from helpers import SparseWeight

PAIRS = st.lists(st.tuples(st.integers(1, 9), st.integers(-3, 3)), max_size=8)
DENSE = st.lists(st.integers(-2, 2), max_size=9)


def same(w: Weight, o: SparseWeight):
    assert w.items() == o.items()
    assert tuple(w) == o.dense(o.max_index())
    assert str(w) == str(o)
    assert repr(w) == repr(o)
    assert json.dumps(w.to_json()) == json.dumps(o.to_json())
    assert bool(w) == bool(o)
    assert w.total() == o.total()
    assert w.max_index() == o.max_index()
    assert [w[i] for i in range(-1, 12)] == [o[i] for i in range(-1, 12)]
    for n in range(11):
        try:
            want = o.dense(n)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                w.dense(n)
            assert str(got.value) == str(e)
        else:
            assert w.dense(n) == want


@given(PAIRS, PAIRS, st.integers(-3, 3))
def test_dense_weights_match_the_sparse_oracle(a, b, k):
    wa, wb, oa, ob = Weight(a), Weight(b), SparseWeight(a), SparseWeight(b)
    same(wa, oa)
    same(wa + wb, oa + ob)
    same(wa - wb, oa - ob)
    same(-wa, -oa)
    same(k * wa, k * oa)
    assert (wa == wb) == (oa == ob)
    if wa == wb:
        assert hash(wa) == hash(wb)


@given(DENSE, st.integers(0, 3))
def test_trailing_zeros_change_no_weight(coords, pad):
    # equal across ranks: zeros past the last nonzero coordinate are dropped
    w = Weight.from_dense(coords + [0] * pad)
    same(w, SparseWeight.from_dense(coords + [0] * pad))
    pairs = Weight([(i + 1, c) for i, c in enumerate(coords)])
    assert w == pairs and hash(w) == hash(pairs)
    assert w == Weight.from_dense(tuple(w))
    assert not w or tuple(w)[-1]
    assert (w + -w) == Weight.zero() and hash(w - w) == hash(Weight.zero())


def test_weight_rejects_an_index_below_one():
    for bad in ([(0, 1)], [(-2, 0)]):
        with pytest.raises(ValueError, match="out of range"):
            Weight(bad)
        with pytest.raises(ValueError, match="out of range"):
            SparseWeight(bad)


def test_weights_key_dicts_across_constructors():
    w = Weight.eps(1) + Weight.eps(3, -2)
    table = {Weight(((3, -2), (1, 1), (2, 0))): "x"}
    assert table[w] == table[Weight.from_dense((1, 0, -2, 0, 0))] == "x"
    assert tuple(w) == (1, 0, -2) and w.max_index() == 3
    assert str(w) == "e1 -2*e3" and repr(w) == "Weight(((1, 1), (3, -2)))"


def test_a_weight_is_the_tuple_of_its_coordinates():
    w = Weight.eps(1) + Weight.eps(3, -2)
    # bounded, so an iteration that never stops fails instead of hanging
    assert list(islice(w, 5)) == [1, 0, -2]
    assert -2 in w and -1 not in w and 0 in w
    assert hash(w) == hash(tuple(w))
    assert w[3] == -2 and w[4] == w[0] == w[-1] == 0
    with pytest.raises(TypeError):
        w[1:2]


def test_weights_scale_on_either_side():
    w = Weight.eps(2, -1) + Weight.eps(5)
    assert w * 3 == 3 * w == Weight(((2, -3), (5, 3)))
    assert w * 0 == Weight.zero()


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda w: pickle.loads(pickle.dumps(w))])
def test_weights_copy_and_pickle(roundtrip):
    w = Weight.eps(1, 2) + Weight.eps(4, -1)
    got = roundtrip(w)
    assert type(got) is Weight and got == w and str(got) == str(w)


@pytest.mark.parametrize("build", [
    lambda: Fraction(1, 2) * Weight.eps(1),
    lambda: 0.5 * Weight.eps(1, 3),
    lambda: Weight.eps(1, 3) * 0.5,
    lambda: Weight([(1.7, 2.9)]),
    lambda: Weight([(1, 2.0)]),
    lambda: Weight.from_dense([1, 0.5]),
], ids=["fraction-scale", "float-scale", "float-right-scale", "float-pair",
        "float-coefficient", "float-dense"])
def test_weights_take_integers_only(build):
    # a rounded or truncated coordinate would be a silently wrong weight
    with pytest.raises(TypeError):
        build()
