import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import reference_max_defect, reference_series, reference_walk

from lindyn import (
    L1,
    L2,
    LINF,
    DenseOp,
    DenseVector,
    NonContracting,
    NotCertified,
    ShadInterval,
    generate_pseudo_orbit,
    pseudo_orbit,
    series_constants,
    shad_bounds,
    shad_calculus,
    shad_conjugate,
    shad_inverse,
    shad_product,
    shadow_contraction,
    shadow_splitting_series,
    shadow_window_solve,
    spectral_split,
    verify_shadow,
)
from lindyn.errors import KindMismatch
from lindyn.gallery import contraction_half, saddle, shifted_weighted_contraction
from lindyn.linalg import SparseBiSeq, max_row_norm, row_norms
from lindyn.operators import CompositionOp
from lindyn.sampling import random_margin_matrix, rng_from_seed
from lindyn.shadowing import PseudoOrbit, ShadowResult, classify, max_defect

SADDLE = saddle()
SPLIT = spectral_split(SADDLE)
# a sequence operator: R o W under l1
_, _, COMP, COMP_SPLIT = shifted_weighted_contraction()

# diag(1/2, 2) under sup norm: A = sum 2^-k = 2, B = sum_{k>=1} 2^-k = 1,
# both projections have norm 1, so upper = 3; the resolvent lower bound is 2
UPPER = 3.0
LOWER = 2.0


def orbit_of(op, seed, n, delta, rng_seed=0):
    return generate_pseudo_orbit(op, seed, (0, n), delta, rng_seed)


def test_pseudo_orbit_factory_verifies_delta():
    p0 = DenseVector([1.0, 0.0], LINF)
    p1 = DenseVector([0.5, 0.3], LINF)  # true image is (0.5, 0), defect 0.3
    po = pseudo_orbit(SADDLE, 0, [p0, p1], 0.3)
    assert po.n1 == 1
    with pytest.raises(ValueError):
        pseudo_orbit(SADDLE, 0, [p0, p1], 0.1)


def test_generated_orbit_respects_delta():
    po = orbit_of(SADDLE, DenseVector([0.3, -0.2], LINF), 50, 1e-3)
    assert max_defect(SADDLE, po) <= 1e-3
    assert len(po.points) == 51


def test_generated_orbit_per_step_defects():
    po = generate_pseudo_orbit(SADDLE, DenseVector([1.0, 1.0], LINF), (0, 10), 1e-3, 42)
    vectors = [DenseVector(row, LINF) for row in po.points]
    for cur, nxt in zip(vectors, vectors[1:]):
        assert (nxt - SADDLE.apply(cur)).norm() <= 1e-3


def test_generated_orbit_long_expanding_window_stays_certified():
    # far out the orbit magnitude passes delta / ulp; perturbations that
    # would round above delta must be dropped, not mis-declared
    po = orbit_of(SADDLE, DenseVector([0.1, 0.4], LINF), 80, 1e-3, rng_seed=5)
    assert max_defect(SADDLE, po) <= 1e-3


def test_generated_orbit_overflow_is_refused():
    # 2^1100 overflows: the walk is refused as a whole, as a non-finite
    # vector is
    with pytest.raises(ValueError, match="coordinates must be finite"):
        generate_pseudo_orbit(SADDLE, DenseVector([1, 1], LINF), (0, 1100), 1e-3, 1)


def test_overflowing_walk_stops_near_its_first_non_finite_point():
    # the orbit overflows near step 1030 of 100000; the walk is refused
    # there instead of running on nan rows to its end, which takes over
    # ten times the bound below
    seed = DenseVector([0.5, 0.5], LINF)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="coordinates must be finite"):
            generate_pseudo_orbit(SADDLE, seed, (0, 100_000), 1e-3, 1)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.15


def test_non_diagonal_operator_orbit_and_shadows_certify():
    # a non-diagonal operator mixes coordinates in every image, so the orbit
    # (which grows past 1e30) re-verifies only if every check rounds its
    # images exactly as the walk did
    rng = rng_from_seed(0)
    op = DenseOp(random_margin_matrix(3, rng, margin=0.2), LINF)
    po = generate_pseudo_orbit(op, DenseVector(rng.standard_normal(3), LINF), (0, 200), 1e-3, 0)
    assert max_row_norm(po.points, LINF) > 1e30
    assert max_defect(op, po) <= 1e-3
    split = spectral_split(op)
    for res in (shadow_splitting_series(op, split, po), shadow_window_solve(op, po)):
        verify_shadow(op, po, res)
        exact = replace(po, points=res.trajectory)
        assert max_defect(op, exact) <= 1e-12 * max_row_norm(res.trajectory, LINF)


# A walk through the band where the orbit magnitude reaches delta / ulp:
# one kick there rounds above delta and is dropped.
DROPPING = (DenseOp([[1.5, 0.3], [0, 0.5]], L2), DenseVector([1, 1], L2), 7)


def _dropped_steps(op, po):
    """The steps n at which x_{n+1} == M x_n exactly."""
    imgs = np.array([op.matrix @ x for x in po.points[:-1]])
    return np.flatnonzero((imgs == po.points[1:]).all(axis=1))


@pytest.mark.parametrize(
    "op, seed, rng_seed",
    [
        # AC02's saddle orbits, which grow past 1e60
        *((SADDLE, DenseVector(v, LINF), 1000 + i)
          for i, v in enumerate(rng_from_seed(2).standard_normal((3, 2)))),
        DROPPING,
    ],
)
def test_rows_walk_is_the_vector_walk_bit_for_bit(op, seed, rng_seed):
    # the rows walk draws all kicks at once and checks them in blocks; the
    # reference walks step by step, drawing as it goes
    po = generate_pseudo_orbit(op, seed, (0, 200), 1e-3, rng_seed)
    ref = reference_walk(op, seed, 200, 1e-3, rng_seed)
    assert po.points.tobytes() == ref.tobytes()
    assert max_defect(op, po) == reference_max_defect(op, ref) <= 1e-3


def test_rows_walk_drops_a_kick_that_rounds_above_delta():
    op, seed, rng_seed = DROPPING
    po = generate_pseudo_orbit(op, seed, (0, 200), 1e-3, rng_seed)
    assert len(_dropped_steps(op, po)) > 0
    assert max_defect(op, po) <= 1e-3


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_dense_array_path_matches_per_vector_path_bit_for_bit(tag):
    # the walk and the defects do the per-step references' arithmetic bit
    # for bit, while the series, a doubling scan on rows and a step
    # recursion in the reference, agree within a bound far below delta
    rng = rng_from_seed(1)
    op = DenseOp(random_margin_matrix(3, rng, margin=0.2), tag)
    seed = DenseVector(rng.standard_normal(3), tag)
    split = spectral_split(op)
    delta = 1e-3
    po = generate_pseudo_orbit(op, seed, (0, 200), delta, 3)
    assert po.points.tobytes() == reference_walk(op, seed, 200, delta, 3).tobytes()
    assert max_defect(op, po) == reference_max_defect(op, po.points)
    res = shadow_splitting_series(op, split, po)
    ref = reference_series(op, split, po.points)
    assert np.abs(res.trajectory - ref).max() <= 1e-12 * delta
    assert abs(res.sup_error - max_row_norm(ref - po.points, tag)) <= 1e-12 * res.sup_error


def _two_factor(tag):
    """A dense composition S T, S T near a random hyperbolic matrix, and
    the DenseOp of its product."""
    rng = rng_from_seed(6)
    H = random_margin_matrix(3, rng, margin=0.2)
    T = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    comp = CompositionOp([DenseOp(H @ np.linalg.inv(T), tag), DenseOp(T, tag)])
    return comp, DenseOp(comp.dense_matrix(), tag)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_dense_composition_runs_on_its_product_bit_for_bit(tag):
    comp, product = _two_factor(tag)
    seed = DenseVector([0.3, -0.2, 0.5], tag)
    po = generate_pseudo_orbit(comp, seed, (0, 120), 1e-3, 2)
    ref = generate_pseudo_orbit(product, seed, (0, 120), 1e-3, 2)
    assert po.points.tobytes() == ref.points.tobytes()
    assert max_defect(comp, po) == max_defect(product, ref) <= 1e-3
    # the window solve lowers the composition to the same product
    window = shadow_window_solve(comp, po).trajectory
    assert window.tobytes() == shadow_window_solve(product, ref).trajectory.tobytes()


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_dense_composition_shadows_verify(tag):
    comp, product = _two_factor(tag)
    seed = DenseVector([0.3, -0.2, 0.5], tag)
    po = generate_pseudo_orbit(comp, seed, (0, 120), 1e-3, 2)
    for res in (shadow_splitting_series(comp, spectral_split(product), po),
                shadow_window_solve(comp, po)):
        verify_shadow(comp, po, res)
    # a sub-stochastic factor after a doubly stochastic one: norm 0.6 under
    # every tag
    contraction = CompositionOp([
        DenseOp([[0.3, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]], tag),
        DenseOp([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.2, 0.2, 0.6]], tag),
    ])
    po = generate_pseudo_orbit(contraction, seed, (0, 120), 1e-3, 2)
    verify_shadow(contraction, po, shadow_contraction(contraction, po))


def test_dense_orbit_refuses_a_split_of_another_tag_or_width():
    po = orbit_of(SADDLE, DenseVector([0.1, 0.4], LINF), 10, 1e-3)
    for split in (spectral_split(DenseOp(SADDLE.matrix, L1)),
                  spectral_split(contraction_half(dim=3)),
                  COMP_SPLIT):
        with pytest.raises(KindMismatch, match="split disagrees"):
            shadow_splitting_series(SADDLE, split, po)
    # and a sequence orbit a spectral one
    seq = orbit_of(COMP, SparseBiSeq.basis(0, L1), 10, 1e-3)
    with pytest.raises(KindMismatch, match="split disagrees"):
        shadow_splitting_series(COMP, SPLIT, seq)


def test_single_point_window_is_vacuous():
    po = generate_pseudo_orbit(SADDLE, DenseVector([1.0, 1.0], LINF), (0, 0), 1e-3, 1)
    assert len(po.points) == 1
    assert max_defect(SADDLE, po) == 0.0


def test_series_constants_saddle():
    sc = series_constants(SADDLE, SPLIT)
    assert abs(sc.series_A - 2.0) < 1e-9
    assert abs(sc.series_B - 1.0) < 1e-9
    # the first Green's term is ||P_S||, 1 on coordinate axes
    assert sc.a_terms[0] == 1.0
    assert abs(sc.upper - UPPER) < 1e-9


def test_shad_bounds_saddle():
    b = shad_bounds(SADDLE, SPLIT)
    assert abs(b.upper - UPPER) < 1e-9
    assert abs(b.lower - LOWER) < 1e-9
    assert b.lower <= b.upper


def test_series_shadow_is_exact_orbit():
    po = orbit_of(SADDLE, DenseVector([0.1, 0.4], LINF), 80, 1e-3, rng_seed=5)
    res = shadow_splitting_series(SADDLE, SPLIT, po)
    # verify_shadow has already checked the orbit property; re-check sup
    assert res.sup_error <= UPPER * po.delta * (1.0 + 1e-9)
    assert res.method == "splitting_series"
    assert max_defect(SADDLE, replace(po, points=res.trajectory)) < 1e-12


def test_series_classifies_and_sums_once_per_operator_and_split(monkeypatch):
    import lindyn.shadowing as shadowing

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(shadowing, "classify", counted("classify", shadowing.classify))
    monkeypatch.setattr(
        shadowing, "series_constants", counted("constants", shadowing.series_constants)
    )
    op = saddle()
    split = spectral_split(op)
    first = [
        shadow_splitting_series(op, split, orbit_of(op, DenseVector([0.1, 0.4], LINF), 30, 1e-3, i))
        for i in range(3)
    ]
    assert calls == ["classify", "constants"]
    # another operator on the same split has its own entry
    other = saddle()
    shadow_splitting_series(other, split, orbit_of(other, DenseVector([0.1, 0.4], LINF), 30, 1e-3))
    po = orbit_of(op, DenseVector([0.1, 0.4], LINF), 30, 1e-3)
    shadow_splitting_series(op, split, po)
    assert calls == ["classify", "constants"] * 2
    assert first[0].constant_used == first[2].constant_used


# ---------------------------------------------------------------------------
# The correction series as a doubling scan on rows
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
# a strongly non-normal saddle: eigenvalues 0.5, 0.6 and 2 with couplings of
# 1e3 (eigenbasis condition 1.7e7, series upper bound 5e6)
NON_NORMAL = np.array([[0.5, 1e3, 0.0], [0.0, 0.6, 1e3], [0.0, 0.0, 2.0]])
# its stable block alone: a contraction with ||L|| near 1e3
NON_NORMAL_STABLE = NON_NORMAL[:2, :2]


def _scan_matches_steps(matrix, tag, seed, steps=200, delta=1e-3):
    # the scan against the step recursion (reference_series) on one orbit:
    # the two evaluations of the same finite sums differ by rounding,
    # bounded by 1e-12 * upper * delta plus a few ulps of each point, which
    # the correction is added to
    rng = rng_from_seed(seed)
    op = DenseOp(matrix, tag)
    split = spectral_split(op)
    seed_vec = DenseVector(rng.standard_normal(len(matrix)), tag)
    po = generate_pseudo_orbit(op, seed_vec, (0, steps), delta, seed)
    rows = shadow_splitting_series(op, split, po)
    ref = reference_series(op, split, po.points)
    verify_shadow(op, po, rows)
    gap = row_norms(rows.trajectory - ref, tag)
    bound = 1e-12 * rows.constant_used * delta + 4 * EPS * row_norms(po.points, tag)
    assert (gap <= bound).all()
    ref_error = max_row_norm(ref - po.points, tag)
    assert abs(rows.sup_error - ref_error) <= 1e-12 * rows.constant_used * delta
    return rows


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(2, 8),
    margin=st.sampled_from([0.2, 1e-2]),
    tag=st.sampled_from([L1, L2, LINF]),
)
def test_series_scan_matches_the_step_recursion(seed, dim, margin, tag):
    _scan_matches_steps(random_margin_matrix(dim, rng_from_seed(seed), margin=margin), tag, seed)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_series_scan_matches_the_step_recursion_when_non_normal(tag):
    _scan_matches_steps(NON_NORMAL, tag, 7)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_series_scan_is_exact_on_a_bounded_non_normal_orbit(tag):
    # all stable, so the orbit stays O(1) (its transient peaks near 1e3) and
    # verify_shadow's tolerance is near its absolute floor of 1e-12
    res = _scan_matches_steps(NON_NORMAL_STABLE, tag, 11)
    assert max_row_norm(res.trajectory, tag) < 1e4


@pytest.mark.parametrize("steps", [0, 1])
def test_series_scan_on_windows_of_one_and_two_points(steps):
    res = _scan_matches_steps(NON_NORMAL, LINF, 3, steps=steps)
    assert len(res.trajectory) == steps + 1
    if steps == 0:
        assert res.sup_error == 0.0


def test_window_particular_orbit_is_the_series_trajectory_bit_for_bit(monkeypatch):
    import lindyn.shadowing as shadowing

    rng = rng_from_seed(4)
    op = DenseOp(random_margin_matrix(3, rng, margin=0.2), L2)
    po = generate_pseudo_orbit(op, DenseVector(rng.standard_normal(3), L2), (0, 120), 1e-3, 4)
    series = shadow_splitting_series(op, spectral_split(op), po)
    out = []

    def spy(k, po):
        out.append(series_orbit(k, po))
        return out[-1]

    series_orbit = shadowing._series_orbit
    monkeypatch.setattr(shadowing, "_series_orbit", spy)
    # under op and under a wrapping operator, whose matrix the window solve
    # wraps in a DenseOp, the particular orbit is the series trajectory:
    # under op it is read from the series memo, under the wrapper computed
    for solver_op in (op, CompositionOp([op])):
        shadow_window_solve(solver_op, po)
        assert out[-1].tobytes() == series.trajectory.tobytes()
    assert len(out) == 2 and out[0] is series.trajectory


def test_window_solve_matches_series():
    po = orbit_of(SADDLE, DenseVector([0.1, 0.4], LINF), 60, 1e-3, rng_seed=9)
    series = shadow_splitting_series(SADDLE, SPLIT, po)
    window = shadow_window_solve(SADDLE, po)
    # one-sided: the optimizer may beat the series orbit, never lose to it
    assert window.sup_error <= series.sup_error + 1e-6


def test_window_solve_accepts_its_own_fast_growing_orbit():
    # the orbit grows past 1e60; posed on the seed, the old descent missed
    # by about 1.4e64, while in defect coordinates the window never loses to
    # the series
    rng = rng_from_seed(20)
    op = DenseOp(random_margin_matrix(3, rng, margin=0.2), LINF)
    po = generate_pseudo_orbit(op, DenseVector(rng.standard_normal(3), LINF), (0, 200), 1e-3, 20)
    res = shadow_window_solve(op, po)
    series = shadow_splitting_series(op, spectral_split(op), po)
    assert res.lower <= res.sup_error <= series.sup_error
    assert res.constant_used * po.delta >= res.sup_error
    assert res.constant_used == pytest.approx(res.sup_error / po.delta, rel=1e-15)
    verify_shadow(op, po, res)


@pytest.mark.parametrize("n", [8, 32, 48, 64])
def test_seed_window_solve_reaches_the_ramp_midpoint(n):
    # diag(1, 3) touches the circle, so the solve is posed on the seed, with
    # basis columns spanning 1 and 3^n: unscaled, the solver stayed at w = 0
    # (lower 0, sup_error n) for n = 48 and 64. The best exact orbit is the
    # constant n / 2.
    op = DenseOp(np.diag([1.0, 3.0]), LINF)
    po = pseudo_orbit(op, 0, [DenseVector([k, 0.0], LINF) for k in range(n + 1)], 1.0)
    res = shadow_window_solve(op, po)
    assert res.lower == pytest.approx(n / 2, rel=1e-12)
    assert res.sup_error == pytest.approx(n / 2, rel=1e-12)


def _reference_bracket(op, po, start, k=64):
    """Independent bounds (lo, hi) on the best exact-orbit distance, posed on
    the seed s (orbits L^n s) and solved by HiGHS. Every optimal seed lies
    within F(x_0) of x_0 in each real coordinate, which boxes the LPs.

    l1 and linf: the k-gon LP, whose value v satisfies
    v <= optimum <= v / cos(pi / k). l2: the LP over the k-gon cuts of each
    coordinate and the supporting cuts along the orbit of start (a seed)
    gives lo, wherever the cuts came from, and that orbit's distance gives
    hi; the two meet only if the orbit is optimal.
    """
    optimize = pytest.importorskip("scipy.optimize")
    tag = op.norm_tag
    xs = po.points
    n, d = xs.shape
    P = np.empty((n, d, d), dtype=complex)
    P[0] = np.eye(d)
    for i in range(1, n):
        P[i] = op.matrix @ P[i - 1]

    def value(s):
        return max(DenseVector(P[i] @ s - xs[i], tag).norm() for i in range(n))

    # real variables: Re s, Im s, t, and under l1 a bound per (n, coordinate)
    extra = n * d if tag == L1 else 0
    width = 2 * d + 1 + extra
    A_ub, b_ub = [], []

    def add(g, t_col):
        # Re g_n^H (P_n s - x_n) <= (column t_col) for every n
        h = np.einsum("nij,ni->nj", P.conj(), g)
        row = np.zeros((n, width))
        row[:, : 2 * d] = np.hstack([h.real, h.imag])
        row[np.arange(n), t_col] = -1.0
        A_ub.append(row)
        b_ub.append(np.einsum("ni,ni->n", g.conj(), xs).real)

    for i in range(d):
        for c in np.exp(2j * np.pi * np.arange(k) / k):
            g = np.zeros((n, d), dtype=complex)
            g[:, i] = c
            add(g, 2 * d + 1 + np.arange(n) * d + i if tag == L1 else 2 * d)
    if tag == L1:
        row = np.zeros((n, width))
        row[:, 2 * d] = -1.0
        for i in range(d):
            row[np.arange(n), 2 * d + 1 + np.arange(n) * d + i] = 1.0
        A_ub.append(row)
        b_ub.append(np.zeros(n))
    box = value(xs[0])
    center = np.concatenate([xs[0].real, xs[0].imag])
    bounds = [(c - box, c + box) for c in center] + [(None, None)] * (1 + extra)
    obj = np.zeros(width)
    obj[2 * d] = 1.0
    if tag == L2:
        r = P @ start - xs
        add(r / np.linalg.norm(r, axis=1)[:, None], 2 * d)
    lp = optimize.linprog(obj, A_ub=np.vstack(A_ub), b_ub=np.concatenate(b_ub), bounds=bounds,
                          method="highs")
    assert lp.status == 0
    if tag == L2:
        return lp.fun, value(start)
    return lp.fun, lp.fun / np.cos(np.pi / k)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_window_bracket_holds_against_a_reference_solve(tag):
    # random non-normal operators of dimension 2 to 4: the window's bracket
    # [lower, sup_error] must meet the reference bracket, and the window
    # orbit may never lose to the series orbit
    rng = rng_from_seed(11)
    for trial in range(6):
        dim = 2 + trial % 3
        op = DenseOp(random_margin_matrix(dim, rng, margin=0.2), tag)
        po = generate_pseudo_orbit(op, DenseVector(rng.standard_normal(dim), tag), (0, 12), 0.05, trial)
        res = shadow_window_solve(op, po)
        series = shadow_splitting_series(op, spectral_split(op), po)
        lo, hi = _reference_bracket(op, po, res.trajectory[0])
        assert hi - lo <= 2e-3 * hi
        assert res.lower <= hi * (1.0 + 1e-9)
        assert lo <= res.sup_error * (1.0 + 1e-9)
        assert res.lower <= res.sup_error <= series.sup_error


def test_shadow_contraction_constant():
    op = contraction_half()
    po = orbit_of(op, DenseVector([1.0, -1.0], LINF), 100, 1e-3, rng_seed=3)
    res = shadow_contraction(op, po)
    # 1/(1 - 1/2) = 2
    assert res.constant_used == 2.0
    assert res.sup_error <= 2.0 * po.delta * (1.0 + 1e-9)
    assert max_defect(op, replace(po, points=res.trajectory)) < 1e-12


def test_shadow_contraction_rejects_expanding_norm():
    po = orbit_of(SADDLE, DenseVector([0.1, 0.1], LINF), 10, 1e-3)
    with pytest.raises(NonContracting):
        shadow_contraction(SADDLE, po)


def test_verify_shadow_rejects_tampered_result():
    po = orbit_of(SADDLE, DenseVector([0.2, 0.2], LINF), 20, 1e-3)
    res = shadow_splitting_series(SADDLE, SPLIT, po)
    bad_traj = res.trajectory.copy()
    bad_traj[5] += [0.1, 0.0]
    tampered = ShadowResult(
        trajectory=bad_traj,
        sup_error=res.sup_error,
        constant_used=res.constant_used,
        method=res.method,
    )
    with pytest.raises(NotCertified):
        verify_shadow(SADDLE, po, tampered)


def test_verify_shadow_names_first_bad_offset():
    po = orbit_of(SADDLE, DenseVector([0.2, 0.2], LINF), 20, 1e-3)
    res = shadow_splitting_series(SADDLE, SPLIT, po)
    bad_traj = res.trajectory.copy()
    bad_traj[5] += [0.1, 0.0]
    tampered = replace(res, trajectory=bad_traj)
    # traj[5] is first wrong as the image of traj[4]
    with pytest.raises(NotCertified, match="at offset 4 breaks orbit exactness"):
        verify_shadow(SADDLE, po, tampered)


def test_verify_shadow_overflow_and_defect_order():
    # the first failing offset decides which error is raised
    op = DenseOp(2.0 * np.eye(2), LINF)

    def check(coords):
        traj = np.array(coords, dtype=complex)
        res = ShadowResult(traj, 0.0, 1.0, "test")
        verify_shadow(op, PseudoOrbit(0, traj, 1.0, LINF), res)

    with pytest.raises(ValueError, match="coordinates must be finite"):
        check([[1e308, 1.0], [1.0, 1.0]])
    with pytest.raises(NotCertified, match="at offset 0 "):
        check([[1.0, 1.0], [3.0, 3.0], [1e308, 1.0], [1.0, 1.0]])


def test_every_entry_point_refuses_an_orbit_of_another_tag_or_dimension():
    # the orbit's tag and width are compared with the operator's once, at
    # each entry point; a mismatch is a KindMismatch, never arithmetic
    op = contraction_half()
    split = spectral_split(op)
    po = orbit_of(op, DenseVector([1.0, -1.0], LINF), 20, 1e-3)
    res = shadow_splitting_series(op, split, po)
    wide = orbit_of(contraction_half(dim=3), DenseVector([1.0, -1.0, 0.5], LINF), 20, 1e-3)
    seq = orbit_of(COMP, SparseBiSeq.basis(0, L1), 20, 1e-3)
    entry_points = {
        "max_defect": lambda orbit: max_defect(op, orbit),
        "verify_shadow": lambda orbit: verify_shadow(op, orbit, res),
        "shadow_splitting_series": lambda orbit: shadow_splitting_series(op, split, orbit),
        "shadow_contraction": lambda orbit: shadow_contraction(op, orbit),
        "shadow_window_solve": lambda orbit: shadow_window_solve(op, orbit),
    }
    for name, call in entry_points.items():
        for orbit in (replace(po, norm_tag=L1), wide, seq):
            with pytest.raises(KindMismatch):
                call(orbit)
    # a sequence orbit of another tag, and a dense orbit of a sequence operator
    with pytest.raises(KindMismatch):
        max_defect(COMP, replace(seq, norm_tag=L2))
    with pytest.raises(KindMismatch):
        max_defect(COMP, po)


def test_vectors_are_checked_where_they_enter():
    p0 = DenseVector([1.0, 0.0], LINF)
    for p1 in (DenseVector([0.5, 0.0], L1), DenseVector([0.5, 0.0, 0.0], LINF)):
        with pytest.raises(KindMismatch):
            pseudo_orbit(SADDLE, 0, [p0, p1], 1.0)
    with pytest.raises(KindMismatch):
        generate_pseudo_orbit(SADDLE, SparseBiSeq.basis(0, LINF), (0, 3), 1e-3, 1)
    with pytest.raises(KindMismatch):
        generate_pseudo_orbit(COMP, DenseVector([1.0, 0.0], L1), (0, 3), 1e-3, 1)
    # the stored points are one read-only array
    po = orbit_of(SADDLE, DenseVector([0.3, -0.2], LINF), 5, 1e-3)
    assert po.points.shape == (6, 2) and po.points.dtype == complex
    assert (po.norm_tag, po.points.flags.writeable) == (LINF, False)
    seq = generate_pseudo_orbit(COMP, SparseBiSeq.basis(0, L1), (0, 5), 1e-3, 1)
    assert seq.points.shape == (6,) and seq.points.dtype == object
    assert all(isinstance(p, SparseBiSeq) for p in seq.points)


def test_window_solve_guards():
    big = DenseVector(np.zeros(9), LINF)
    po = pseudo_orbit(
        contraction_half(dim=9), 0, [big, DenseVector(np.zeros(9), LINF)], 1e-6
    )
    with pytest.raises(ValueError):
        shadow_window_solve(contraction_half(dim=9), po)


def test_interval_calculus():
    iv = ShadInterval(2.0, 3.0)
    # conjugacy by h with ||h|| = ||h^-1|| = 2 rescales by kappa = 4
    conj = shad_conjugate(iv, 2.0, 2.0)
    assert conj.lower == 0.5 and conj.upper == 12.0
    prod = shad_product(ShadInterval(1.0, 2.0), ShadInterval(1.5, 4.0))
    assert prod.lower == 1.5 and prod.upper == 4.0
    inv = shad_inverse(iv, 2.0, 2.0)
    assert inv.lower == 1.0 and inv.upper == 6.0
    # asymmetric norms pin the transport direction: reversing an orbit of the
    # inverse scales defects by ||L||, so the upper side rides op_norm
    skew = shad_inverse(iv, 4.0, 0.5)
    assert skew.lower == 4.0 and skew.upper == 12.0


def test_interval_validation():
    with pytest.raises(ValueError):
        ShadInterval(3.0, 2.0)
    with pytest.raises(ValueError):
        ShadInterval(-1.0, 2.0)


def test_calculus_dispatcher():
    iv = shad_calculus("inverse", interval=ShadInterval(2.0, 3.0), op_norm=2.0, inv_norm=2.0)
    assert iv.lower == 1.0 and iv.upper == 6.0
    with pytest.raises(ValueError):
        shad_calculus("nonsense")
