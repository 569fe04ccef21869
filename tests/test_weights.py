"""Dense weights against the sparse oracle they replaced.

``Weight`` holds the dense tuple of its coordinates with trailing zeros
dropped; ``helpers.SparseWeight`` is the sorted-pairs class it replaced.
Both are built from the same random sparse coordinate lists, with zero,
negative, repeated and cancelling entries, and must agree on every
operation and print the same bytes.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superw.weights import Weight

from helpers import SparseWeight

PAIRS = st.lists(st.tuples(st.integers(1, 9), st.integers(-3, 3)), max_size=8)
DENSE = st.lists(st.integers(-2, 2), max_size=9)


def same(w: Weight, o: SparseWeight):
    assert w.items() == o.items()
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
    assert w == Weight.from_dense(w.coords)
    assert not w.coords or w.coords[-1]
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
    assert w.coords == (1, 0, -2) and w.max_index() == 3
    assert str(w) == "e1 -2*e3" and repr(w) == "Weight(((1, 1), (3, -2)))"
