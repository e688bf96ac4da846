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
    NonFinite,
    SparseBiSeq,
    banach_fixed_point,
    dense_eig,
)
from lindyn.linalg import array_norm, mat_norm, max_row_norm, power_stack, row_norms
from lindyn.sampling import random_margin_matrix, rng_from_seed

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


@pytest.mark.filterwarnings("error")
def test_l2_norms_of_huge_finite_coordinates_stay_finite():
    # the squares of 1e200 overflow; the norms do not, and the handled
    # overflow prints no RuntimeWarning (any warning fails this test)
    assert DenseVector([1e200, 0.0], L2).norm() == 1e200
    assert array_norm(np.array([3e200, 4e200j]), L2) == pytest.approx(5e200, rel=1e-15)
    rows = np.array([[1e200, 0.0], [3.0, 4.0], [0.0, 0.0]], dtype=complex)
    assert row_norms(rows, L2).tolist() == [1e200, 5.0, 0.0]
    assert max_row_norm(rows, L2) == 1e200
    # only an overflowing sum is redone, and a non-finite row keeps its max
    assert max_row_norm(rows[1:], L2) == 5.0
    assert row_norms(np.array([[np.inf, 1.0]]), L2).tolist() == [np.inf]


@pytest.mark.filterwarnings("error")
def test_sparse_l2_norm_of_huge_entries_stays_finite():
    # the sum of squares overflowed to inf with a RuntimeWarning
    big = SparseBiSeq({0: 1e200, 1: 1e200}, L2).norm()
    assert big == DenseVector([1e200, 1e200], L2).norm()
    assert big == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    # a finite sum keeps its bits: squares of Python abs of each entry
    entries = {k: complex(0.1 * k + 0.3, 0.7 - 0.2 * k) for k in range(-3, 4)}
    vals = np.array([abs(v) for v in entries.values()])
    assert SparseBiSeq(entries, L2).norm() == math.sqrt(float((vals * vals).sum()))


def test_power_stack_of_one_power_is_q():
    Q = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    got = power_stack(np.full((3, 3), 7.0), Q, 1)
    assert got.shape == (1, 3, 2) and got.dtype == complex
    assert (got[0] == Q).all()


def test_power_stack_matches_sequential_products():
    # counts that end a doubling pass early and on a power of two
    for seed in range(30):
        rng = rng_from_seed(700 + seed)
        d = 2 + seed % 5
        M = random_margin_matrix(d, rng, margin=0.05)
        Q = rng.standard_normal((d, 2))
        for count in (2, 5, 16, 33):
            got = power_stack(M, Q, count)
            X = Q.astype(complex)
            for n in range(count):
                assert np.abs(got[n] - X).max() <= 1e-12 * np.abs(X).max()
                X = M @ X


@pytest.mark.filterwarnings("error")
def test_power_stack_refuses_an_overflow_quietly():
    # 1e200 squared overflows; the refusal names it and prints no warning
    assert power_stack(np.array([[1e200]]), np.eye(1), 2)[1, 0, 0] == 1e200
    with pytest.raises(NonFinite, match="overflow"):
        power_stack(np.array([[1e200]]), np.eye(1), 3)


# The former per-function norms, each with its own branch per tag. The
# shared kernel (_tag_norms) must give the same floats, bit for bit.


def reference_scaled_l2(mags):
    top = mags.max(axis=1)
    out = top.copy()
    ok = np.isfinite(top) & (top > 0)
    scaled = mags[ok] / top[ok, None]
    out[ok] = top[ok] * np.sqrt((scaled * scaled).sum(axis=1))
    return out


def reference_array_norm(arr, tag):
    if arr.size == 0:
        return 0.0
    mags = np.abs(arr)
    if tag == L1:
        return float(mags.sum())
    if tag == L2:
        with np.errstate(over="ignore"):
            sq = (mags * mags).sum()
        return float(np.sqrt(sq)) if math.isfinite(sq) else float(reference_scaled_l2(mags.reshape(1, -1))[0])
    return float(mags.max())


def reference_row_norms(rows, tag):
    mags = np.abs(rows)
    if tag == L1:
        return mags.sum(axis=1)
    if tag == L2:
        with np.errstate(over="ignore"):
            out = np.sqrt((mags * mags).sum(axis=1))
        over = ~np.isfinite(out)
        if over.any():
            out[over] = reference_scaled_l2(mags[over])
        return out
    return mags.max(axis=1)


def reference_sequence_norm(entries, tag):
    if not entries:
        return 0.0
    vals = np.fromiter((abs(v) for v in entries.values()), dtype=float)
    if tag == L1:
        return float(vals.sum())
    if tag == L2:
        with np.errstate(over="ignore"):
            sq = float((vals * vals).sum())
        return math.sqrt(sq) if math.isfinite(sq) else float(reference_scaled_l2(vals[None, :])[0])
    return float(vals.max())


def reference_mat_norm(m, tag):
    if m.size == 0:
        return 0.0
    if tag == L1:
        return float(np.abs(m).sum(axis=0).max())
    if tag == LINF:
        return float(np.abs(m).sum(axis=1).max())
    return float(np.linalg.norm(m, 2))


def _norm_draw(rng, i):
    """Complex entries with moduli 10^U(-200, 200), sizes 0 to 400, and an
    entry of 1e300 in every 7th draw, where a sum of squares overflows."""
    n = int(rng.integers(0, 401))
    vals = np.exp(2j * np.pi * rng.random(n)) * 10.0 ** rng.uniform(-200.0, 200.0, n)
    if i % 7 == 0 and n:
        vals[rng.integers(n)] = 1e300
    return vals


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_vector_norms_match_their_former_bodies_bit_for_bit(tag):
    rng = np.random.default_rng(25)
    for i in range(300):
        vals = _norm_draw(rng, i)
        assert array_norm(vals, tag).hex() == reference_array_norm(vals, tag).hex(), i
        entries = {k: complex(v) for k, v in enumerate(vals)}
        got = SparseBiSeq(entries, tag).norm()
        assert got.hex() == reference_sequence_norm(entries, tag).hex(), i
        # rows of d entries, from empty rows to one of all the values
        d = int(rng.integers(1, 9)) if len(vals) else 0
        rows = vals[: len(vals) - len(vals) % d].reshape(-1, d) if d else vals.reshape(0, 0)
        if d:
            assert row_norms(rows, tag).tobytes() == reference_row_norms(rows, tag).tobytes(), i
    assert array_norm(np.zeros(0), tag) == 0.0 == SparseBiSeq.zero(tag).norm()
    assert row_norms(np.zeros((3, 0)), tag).tolist() == [0.0, 0.0, 0.0]


def test_mat_norm_matches_its_former_body_bit_for_bit():
    rng = np.random.default_rng(26)
    for i in range(300):
        rows, cols = rng.integers(1, 9, size=2) if i % 3 else (rng.integers(1, 9),) * 2
        m = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) * 10.0 ** rng.uniform(
            -100.0, 100.0
        )
        for tag in (L1, L2, LINF):
            assert mat_norm(m, tag).hex() == reference_mat_norm(m, tag).hex(), (i, tag)
    for tag in (L1, L2, LINF):
        assert mat_norm(np.zeros((0, 0)), tag) == 0.0
