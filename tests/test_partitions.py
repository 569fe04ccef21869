"""Shapes, Schur weight multisets, and the layer multiplicity rule.

The tableau-counting routines are checked against a brute-force
semistandard filling enumerator written independently here.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superw.errors import RankTooSmallError
from superw.glmodules import gl_simple
from superw.partitions import (Partition, aspartition, lr_coefficient,
                               partitions_of, schur_dim, schur_weights,
                               socle_layer_mults, stable_highest_weight,
                               weight_to_partition_pair)
from superw.weights import Weight, order_sequence


def ssyt_weights(parts: tuple, n: int) -> dict:
    """All semistandard fillings with entries <= n, by content vector.

    Row by row, cell by cell: weakly increasing along rows, strictly
    down columns.  Exponential, fine for the small shapes used here.
    """
    rows = list(parts)
    out: dict = {}

    def row_fillings(length, lower_bounds):
        if length == 0:
            yield ()
            return
        def rec(i, prev):
            if i == length:
                yield ()
                return
            for v in range(max(prev, lower_bounds[i]), n + 1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest
        yield from rec(0, 1)

    def build(r, prev_row):
        if r == len(rows):
            yield ()
            return
        length = rows[r]
        bounds = [prev_row[i] + 1 if i < len(prev_row) else 1
                  for i in range(length)]
        for row in row_fillings(length, bounds):
            for rest in build(r + 1, row):
                yield (row,) + rest

    for tab in build(0, ()):
        content = [0] * n
        for row in tab:
            for v in row:
                content[v - 1] += 1
        key = tuple(content)
        out[key] = out.get(key, 0) + 1
    return out


SHAPES_3 = [p for s in range(4) for p in partitions_of(s)]


@pytest.mark.parametrize("parts", [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_schur_weights_match_tableau_enumeration(parts, n):
    assert schur_weights(parts, n) == ssyt_weights(parts, n)


@pytest.mark.parametrize("parts", [(1,), (2, 1), (3, 1, 1), (2, 2)])
def test_schur_dim_sums_weights(parts):
    for n in (3, 4):
        assert schur_dim(parts, n) == sum(schur_weights(parts, n).values())


def test_schur_dim_known_values():
    assert schur_dim((1,), 4) == 4
    assert schur_dim((2,), 3) == 6
    assert schur_dim((1, 1), 3) == 3
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((1, 1, 1, 1), 3) == 0


def product_coefficients(lam, mu, n):
    """Expand a product of two Schur weight multisets back into shapes
    by repeatedly stripping the lexicographically largest dominant term."""
    prod: dict = {}
    for w1, m1 in schur_weights(lam, n).items():
        for w2, m2 in schur_weights(mu, n).items():
            key = tuple(a + b for a, b in zip(w1, w2))
            prod[key] = prod.get(key, 0) + m1 * m2
    coeffs = {}
    while any(prod.values()):
        top = max((w for w, m in prod.items() if m), key=lambda w: w)
        mult = prod[top]
        assert list(top) == sorted(top, reverse=True)
        coeffs[top] = mult
        for w, m in schur_weights(top, n).items():
            prod[w] = prod.get(w, 0) - mult * m
    return {k: v for k, v in coeffs.items() if v}


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (2, 1)])
@pytest.mark.parametrize("mu", [(1,), (2,), (1, 1)])
def test_lr_coefficient_matches_character_product(lam, mu):
    n = 6  # large enough that no shape in the product truncates
    want = product_coefficients(lam, mu, n)
    size = sum(lam) + sum(mu)
    for nu in partitions_of(size):
        got = lr_coefficient(lam, mu, nu)
        key = tuple(nu.parts) + (0,) * (n - len(nu.parts))
        assert got == want.get(key, 0), (lam, mu, nu)


def test_lr_pieri_rule():
    # multiplying by a single row adds at most one box per column
    assert lr_coefficient((2, 1), (2,), (4, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 2)) == 1
    assert lr_coefficient((2, 1), (2,), (2, 2, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 1, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (2, 1, 1, 1)) == 0


def test_socle_layer_mults_small():
    assert socle_layer_mults((1,), (1,), 0) == {(Partition((1,)), Partition((1,))): 1}
    assert socle_layer_mults((1,), (1,), 1) == {(Partition(), Partition()): 1}
    assert socle_layer_mults((1,), (1,), 2) == {}
    # one contraction of a two-row shape against a row
    got = socle_layer_mults((2, 1), (1,), 1)
    assert got == {(Partition((2,)), Partition()): 1,
                   (Partition((1, 1)), Partition()): 1}


def test_stable_highest_weight_interleaved():
    w = stable_highest_weight((2, 1), (1,), "interleaved", 6)
    assert w.dense(6) == (2, -1, 1, 0, 0, 0)


def test_stable_highest_weight_natural():
    w = stable_highest_weight((2, 1), (1,), "natural", 6)
    assert w.dense(6) == (2, 1, 0, 0, 0, -1)


def test_stable_highest_weight_rank_guard():
    with pytest.raises(RankTooSmallError):
        stable_highest_weight((1, 1, 1), (1, 1, 1), "interleaved", 4)
    with pytest.raises(RankTooSmallError):
        stable_highest_weight((1, 1), (1, 1), "natural", 3)


@pytest.mark.parametrize("lam,mu", [
    ((1,), ()), ((1, 1), ()), ((2, 1, 1), (1,)), ((1,), (1,)), ((), (1, 1)),
    ((1, 1), (2, 1)), ((1, 1, 1), (1, 1)),
])
def test_interleaved_rank_bound_is_tight(lam, mu):
    # lam sits on the odd indices 1, 3, .., 2 len(lam) - 1 and -mu on the
    # even ones 2, 4, .., 2 len(mu): the least rank holds both, and there
    # the weight is dominant for the interleaved order
    need = max(2 * len(lam) - 1, 2 * len(mu))
    w = stable_highest_weight(lam, mu, "interleaved", need)
    along = [w[i] for i in order_sequence("interleaved", need)]
    assert along == sorted(along, reverse=True)
    with pytest.raises(RankTooSmallError, match=f"need {need}"):
        stable_highest_weight(lam, mu, "interleaved", need - 1)


def test_weight_to_partition_pair_splits_tail():
    lam, mu = weight_to_partition_pair(Weight.from_dense((2, 1, 0, -1)), 4)
    assert lam == Partition((2, 1))
    assert mu == Partition((1,))
    lam, mu = weight_to_partition_pair(Weight.zero(), 3)
    assert lam == Partition() and mu == Partition()


def test_partitions_of_counts():
    assert [len(list(partitions_of(k))) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=6))
def test_parse_format_roundtrip(parts):
    p = Partition(sorted(parts, reverse=True))
    assert Partition.parse(p.format()) == p


def test_aspartition_rejects_increasing():
    with pytest.raises(ValueError):
        aspartition((1, 2))


def test_a_float_part_is_not_truncated_into_a_gl_simple():
    # int(1.9) == 1 would silently build V((1)|())
    with pytest.raises(TypeError):
        gl_simple((1.9,), (), 3)


def test_string_parts_are_not_parsed_by_the_constructor():
    # Partition.parse reads text; the constructor takes integers only
    with pytest.raises(TypeError):
        Partition(["2", "1"])
    assert Partition.parse("2,1") == Partition((2, 1))
