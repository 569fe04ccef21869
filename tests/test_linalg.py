"""Sparse exact elimination and its modular shadow."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superw.linalg import (ModPEchelon, RationalEchelon, kernel_basis,
                           rank_mod_p, vec_axpy, vec_mod)

from helpers import vec_scaled


def dense_rref(rows, ncols):
    """Plain Gauss-Jordan over Fraction, the reference: the reduced row
    echelon form and its pivot columns."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for col in range(ncols):
        ri = len(pivots)
        piv = next((i for i in range(ri, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[ri], mat[piv] = mat[piv], mat[ri]
        inv = 1 / mat[ri][col]
        mat[ri] = [x * inv for x in mat[ri]]
        for i in range(len(mat)):
            if i != ri and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[ri])]
        pivots.append(col)
    return mat, pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_kernel(rows, ncols):
    """Nullspace read off the dense reduced row echelon form: one vector
    per free column."""
    mat, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = {fc: Fraction(1)}
        for ri, pc in enumerate(pivots):
            if mat[ri][fc]:
                v[pc] = -mat[ri][fc]
        basis.append(v)
    return basis


def random_rows(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        r = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for c in range(ncols) if rng.random() < density}
        rows.append({c: v for c, v in r.items() if v})
    return rows


def test_echelon_rank_matches_dense():
    rng = random.Random(5)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        ech = RationalEchelon()
        for r in rows:
            ech.insert(dict(r))
        assert ech.dim == dense_rank(rows, 6)


def test_rank_mod_p_matches_exact():
    rng = random.Random(6)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank_mod_p(rows) == dense_rank(rows, 6)


def test_contains_and_express():
    ech = RationalEchelon()
    ech.insert({0: Fraction(1), 1: Fraction(2)})
    ech.insert({1: Fraction(1), 2: Fraction(1)})
    v = {0: Fraction(2), 1: Fraction(5), 2: Fraction(1)}
    assert not ech.reduce(v)
    coeffs = ech.express(dict(v))
    assert coeffs is not None
    rebuilt = {}
    for piv, c in coeffs.items():
        vec_axpy(rebuilt, c, ech.rows[piv])
    assert rebuilt == v
    assert ech.reduce({2: Fraction(1), 3: Fraction(1)})


def test_reduce_records_coefficients_without_changing_the_residual():
    # v = sum c*row + residual, and the coeffs dict only receives output
    rng = random.Random(19)
    for _ in range(40):
        ech = RationalEchelon()
        for r in random_rows(rng, rng.randint(1, 5), 6):
            ech.insert(r)
        (v,) = random_rows(rng, 1, 6)
        coeffs = {}
        residual = ech.reduce(v, coeffs)
        assert residual == ech.reduce(v)
        assert set(coeffs) <= set(ech.rows)
        rebuilt = dict(residual)
        for piv, c in coeffs.items():
            vec_axpy(rebuilt, c, ech.rows[piv])
        assert rebuilt == {k: x for k, x in v.items() if x}


def test_insert_reports_new_pivot_only():
    ech = RationalEchelon()
    assert ech.insert({0: Fraction(1)}) is not None
    assert ech.insert({0: Fraction(3)}) is None
    assert ech.dim == 1


def test_explicit_zero_at_a_stored_pivot_is_ignored():
    e = RationalEchelon()
    e.insert({0: 1})
    assert e.insert({0: 0, 1: 1}) == 1
    assert e.express({0: 0, 1: 3}) == {1: 3}


def test_explicit_zero_at_the_new_pivot_is_ignored():
    e = RationalEchelon()
    assert e.insert({0: 0, 1: 2}) == 1
    assert e.rows[1] == {1: 1}


def test_kernel_basis_small():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)}]
    basis = kernel_basis(rows, 2)
    assert len(basis) == 1
    (k,) = basis
    # the kernel line is x = -2y
    assert k[0] * Fraction(1) + k[1] * Fraction(2) == 0


def test_kernel_dimension_counts():
    rng = random.Random(7)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = random_rows(rng, rng.randint(1, 6), ncols)
        ker = kernel_basis(rows, ncols)
        assert len(ker) == ncols - dense_rank(rows, ncols)
        for k in ker:
            for r in rows:
                assert sum(r.get(c, 0) * x for c, x in k.items()) == 0


def random_system(rng):
    """Rows over 0..ncols-1 mixing empty rows, rows of explicit zeros, fresh
    rows with int and Fraction entries, and combinations of earlier rows
    (which keep the rank low and the kernel nontrivial)."""
    ncols = rng.randint(0, 7)
    rows = []
    for _ in range(rng.randint(0, 2 * ncols + 1)):
        kind = rng.random()
        if kind < 0.1 or not ncols:
            rows.append({})
        elif kind < 0.2:
            rows.append({c: 0 for c in rng.sample(range(ncols), rng.randint(1, ncols))})
        elif kind < 0.6 or not rows:
            rows.append({c: rng.choice([rng.randint(-3, 3),
                                        Fraction(rng.randint(-4, 4), rng.randint(1, 5))])
                         for c in range(ncols) if rng.random() < 0.6})
        else:
            acc = {}
            for r in rng.sample(rows, rng.randint(1, len(rows))):
                vec_axpy(acc, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), r)
            rows.append(acc)
    return rows, ncols


def test_kernel_basis_matches_dense_gauss_jordan():
    rng = random.Random(11)
    seen = {"no rows": 0, "empty row": 0, "zero row": 0, "fraction": 0,
            "tall": 0, "wide": 0, "full rank": 0, "nonzero kernel": 0}
    for _ in range(1500):
        rows, ncols = random_system(rng)
        ker = kernel_basis(rows, ncols)
        assert ker == dense_kernel(rows, ncols)
        seen["no rows"] += not rows
        seen["empty row"] += {} in rows
        seen["zero row"] += any(r and not any(r.values()) for r in rows)
        seen["fraction"] += any(type(x) is Fraction and x.denominator > 1
                                for r in rows for x in r.values())
        seen["tall"] += len(rows) > ncols
        seen["wide"] += len(rows) < ncols
        seen["full rank"] += ncols > 0 and not ker
        seen["nonzero kernel"] += bool(ker)
    assert min(seen.values()) >= 50, seen


def test_kernel_of_integer_rows_stays_integral():
    # singular vectors seed closures, which run far slower on Fraction
    for rows, ncols in (([], 2), ([{0: 2, 1: -4}], 3), ([{1: 3, 2: 6}], 3)):
        ker = kernel_basis(rows, ncols)
        assert ker == dense_kernel(rows, ncols)
        assert all(type(x) is int for v in ker for x in v.values())


def test_kernel_basis_stops_reading_at_full_rank():
    def rows():
        yield {0: 1, 1: 1}
        yield {}
        yield {1: Fraction(1, 2), 2: 3}
        yield {0: 2, 1: 2}
        yield {2: Fraction(-1, 3)}
        raise AssertionError("read past a full-rank prefix")

    assert kernel_basis(rows(), 3) == []


def test_modp_echelon_agrees_on_int_rows():
    rng = random.Random(8)
    p = 10007
    for _ in range(40):
        rows = [{c: rng.randint(-5, 5) for c in range(5) if rng.random() < 0.6}
                for _ in range(4)]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        ech = ModPEchelon(p)
        for r in rows:
            ech.insert(vec_mod(r, p))
        assert ech.dim == dense_rank(rows, 5)


@pytest.mark.parametrize("vec", [{0: 0, 1: 3}, {0: 7, 1: 3}],
                         ids=["explicit-zero", "multiple-of-p"])
def test_modp_insert_skips_coefficients_that_vanish_mod_p(vec):
    ech = ModPEchelon(7)
    assert ech.insert(vec) == 1
    assert ech.rows == {1: {1: 1}}
    assert ech.dim == 1


def test_modp_insert_of_a_vector_zero_mod_p_is_rejected():
    ech = ModPEchelon(7)
    assert ech.insert({0: 14}) is None
    assert ech.dim == 0 and ech.rows == {}


@given(st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=6),
                       max_size=6))
def test_vec_helpers(v):
    v = {k: c for k, c in v.items() if c}
    doubled = vec_scaled(v, Fraction(2))
    acc = dict(v)
    vec_axpy(acc, Fraction(1), v)
    assert acc == doubled
    vec_axpy(acc, Fraction(-2), v)
    assert not acc
