import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindyn import (
    L1,
    L2,
    LINF,
    DenseVector,
    NonContracting,
    SparseBiSeq,
    banach_fixed_point,
    dense_eig,
)
from lindyn.linalg import array_norm, mat_norm, max_row_norm, row_norms

SQRT2 = math.sqrt(2.0)
# roots of z^2 - z - 1, the characteristic polynomial of [[0, 1], [1, 1]]
PHI = (1.0 + math.sqrt(5.0)) / 2.0
PSI = (1.0 - math.sqrt(5.0)) / 2.0


def test_dense_vector_norms():
    v = DenseVector([3.0, -4.0], L1)
    assert v.norm() == 7.0
    assert DenseVector([3.0, -4.0], L2).norm() == 5.0
    assert DenseVector([3.0, -4.0], LINF).norm() == 4.0


def test_dense_vector_arithmetic_and_tag_guard():
    a = DenseVector([1.0, 2.0], L2)
    b = DenseVector([0.5, -1.0], L2)
    assert np.allclose((a + b).coords, [1.5, 1.0])
    assert np.allclose((a - b).coords, [0.5, 3.0])
    assert np.allclose((-a).coords, [-1.0, -2.0])
    assert np.allclose((a * 2.0).coords, [2.0, 4.0])
    with pytest.raises(Exception):
        a + DenseVector([1.0, 2.0], L1)


def test_sparse_biseq_canonical_and_support():
    x = SparseBiSeq({-2: 1.0, 3: 0.25, 5: 0.0}, L1)
    assert x.support() == (-2, 3)
    assert x[5] == 0.0
    assert x[-2] == 1.0
    y = x - x
    assert y.is_zero()
    assert y.support() == ()


def test_sparse_biseq_norms():
    x = SparseBiSeq({0: 3.0, 2: -4.0}, L1)
    assert x.norm() == 7.0
    assert SparseBiSeq({0: 3.0, 2: -4.0}, L2).norm() == 5.0
    assert SparseBiSeq({0: 3.0, 2: -4.0}, LINF).norm() == 4.0


def test_sparse_biseq_basis_and_restrict():
    e = SparseBiSeq.basis(-3, LINF)
    assert e.support() == (-3,)
    assert e.norm() == 1.0
    x = SparseBiSeq({-1: 1.0, 0: 2.0, 4: 3.0}, LINF)
    left = x.restrict(lambda k: k <= 0)
    assert left.support() == (-1, 0)
    assert left[4] == 0.0


def test_mat_norm_hand_values():
    m = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert mat_norm(m, L1) == 6.0  # max column sum
    assert mat_norm(m, LINF) == 7.0  # max row sum
    assert abs(mat_norm(np.diag([3.0, -5.0]), L2) - 5.0) < 1e-12


def test_banach_fixed_point_babylonian_sqrt2():
    # x -> (x + 2/x)/2 contracts on [1.2, 2] with |f'| <= 1/2 - 1/4 < 0.9
    res = banach_fixed_point(lambda x: 0.5 * (x + 2.0 / x), 1.5, 0.9, 1e-13)
    assert abs(res.point - SQRT2) < 1e-12
    assert res.final_step <= 1e-13


def test_banach_fixed_point_rejects_translation():
    # x -> x + 1 keeps every step at length 1, ratio 1 > declared bound
    with pytest.raises(NonContracting):
        banach_fixed_point(lambda x: x + 1.0, 0.0, 0.5, 1e-9)


def test_banach_fixed_point_validates_bound():
    with pytest.raises(ValueError):
        banach_fixed_point(lambda x: x, 0.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        banach_fixed_point(lambda x: x, 0.0, 0.5, 0.0)


def test_banach_fixed_point_on_vectors():
    m = np.array([[0.5, 0.1], [0.0, 0.4]])
    b = np.array([1.0, 1.0])
    res = banach_fixed_point(
        lambda v: DenseVector(m @ v.coords + b, LINF),
        DenseVector([0.0, 0.0], LINF),
        0.6,
        1e-12,
    )
    exact = np.linalg.solve(np.eye(2) - m, b)
    assert np.allclose(res.point.coords, exact, atol=1e-10)


def test_dense_eig_golden_ratio_companion():
    pairs = dense_eig([[0.0, 1.0], [1.0, 1.0]])
    assert len(pairs) == 2
    # ordered by modulus: |psi| < phi
    assert abs(pairs[0][0] - PSI) < 1e-12
    assert abs(pairs[1][0] - PHI) < 1e-12


def test_dense_eig_deterministic_and_unit():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    first = dense_eig(m)
    second = dense_eig(m)
    for (l1, v1), (l2, v2) in zip(first, second):
        assert l1 == l2
        assert np.array_equal(v1, v2)
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
        assert abs(m @ v1 - l1 * v1).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.sampled_from([L1, L2, LINF]),
)
def test_norm_triangle_and_scaling(xs, ys, tag):
    a = DenseVector(xs, tag)
    b = DenseVector(ys, tag)
    assert (a + b).norm() <= a.norm() + b.norm() + 1e-9 * (a.norm() + b.norm() + 1)
    assert abs((a * -2.5).norm() - 2.5 * a.norm()) <= 1e-9 * (1 + a.norm())


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.floats(-1e3, 1e3), max_size=6),
    st.sampled_from([L1, L2, LINF]),
)
def test_sparse_add_commutes_with_lookup(entries, tag):
    x = SparseBiSeq(entries, tag)
    y = SparseBiSeq({k: 2.0 * v for k, v in entries.items()}, tag)
    s = x + y
    for k in set(entries):
        assert s[k] == x[k] + y[k]


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_row_norms_agree_with_array_norm_bit_for_bit(tag):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5, 8, 17, 32):
        rows = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
        rows *= 10.0 ** rng.uniform(-30, 30, size=(40, 1))
        norms = row_norms(rows, tag)
        assert norms.tolist() == [array_norm(r, tag) for r in rows]
        for n in (1, 2, 7, 40):
            assert max_row_norm(rows[:n], tag) == float(norms[:n].max())
            assert max_row_norm(rows[:n] * 1e-150, tag) == float(row_norms(rows[:n] * 1e-150, tag).max())
    with pytest.raises(ValueError):
        row_norms(rows, "l3")
    assert max_row_norm(rows[:0], tag) == 0.0
    with pytest.raises(ValueError):
        max_row_norm(rows, "l3")


def test_dense_vectors_from_rows_share_one_checked_array():
    rows = np.array([[1.0, 2.0], [3.0, -4.0]], dtype=complex)
    vs = DenseVector.from_rows(rows, L1)
    assert [v.norm() for v in vs] == [3.0, 7.0]
    assert all(np.shares_memory(v.coords, rows) for v in vs)
    with pytest.raises(ValueError):
        vs[0].coords[0] = 5.0
    with pytest.raises(ValueError, match="coordinates must be finite"):
        DenseVector.from_rows(np.array([[1.0, 0.0], [math.inf, 0.0]]), L1)
    with pytest.raises(ValueError):
        DenseVector.from_rows(np.zeros((3, 33)), L1)
    with pytest.raises(ValueError):
        DenseVector.from_rows(np.zeros(3), L1)
