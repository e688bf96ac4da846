import math

import numpy as np
import pytest

from lindyn import (
    LINF,
    DenseOp,
    DenseVector,
    NotCertified,
    WindowedLinf,
    linf_apply,
    linf_injectivity_margin,
    shad_estimate_linf,
    shadowing_robustness_scan,
    spectral_split,
)
from lindyn.gallery import quarter_rotation, saddle
from lindyn.linf import _margin_objective

from families import exact_linf_constant, saddle_draw

SADDLE = saddle()
ROTATION = quarter_rotation()

# Extremal saddle window: run y_{n+1} = y_n/2 + 1 from y_{-N} = 1 along the
# stable axis. All outputs are 1 (the last slightly below) while the window
# sup saturates at 2, and no window does better, so the margin is 1/2 --
# exactly the reciprocal of the shadowing constant.
SADDLE_MARGIN = 0.5


def orbit_window(op, seed, N):
    back = [seed]
    inv = op.inverse()
    for _ in range(N):
        back.append(inv.apply(back[-1]))
    fwd = [seed]
    for _ in range(N):
        fwd.append(op.apply(fwd[-1]))
    return list(reversed(back[1:])) + fwd


def test_apply_on_exact_orbit_vanishes():
    N = 6
    w = WindowedLinf(SADDLE, N)
    xs = orbit_window(SADDLE, DenseVector([1.0, 0.5], LINF), N)
    out = linf_apply(w, xs)
    assert len(out) == 2 * N
    assert max(v.norm() for v in out) < 1e-9


def test_apply_counts_interior_defects():
    w = WindowedLinf(SADDLE, 2)
    xs = [DenseVector([0.0, 0.0], LINF)] * 4 + [DenseVector([1.0, 0.0], LINF)]
    out = linf_apply(w, xs)
    assert len(out) == 4
    # only the final step has a defect
    assert out[-1].norm() == 1.0
    assert all(v.norm() == 0.0 for v in out[:-1])


def test_margin_zero_window_is_unconstrained():
    assert linf_injectivity_margin(WindowedLinf(SADDLE, 0)) == math.inf


def test_margin_saddle_hits_reciprocal_shadowing_constant():
    got = linf_injectivity_margin(WindowedLinf(SADDLE, 32))
    assert abs(got - SADDLE_MARGIN) < 1e-9


def test_margin_rotation_decays_like_inverse_window():
    # on an isometry the descent stops at the triangular eigen taper's 1/N,
    # above the minimum 1/(N+1) (see the ramp test below)
    for N in (8, 16):
        got = linf_injectivity_margin(WindowedLinf(ROTATION, N))
        assert abs(got - 1.0 / N) < 1e-9


def test_margin_rotation_ramp_reaches_inverse_window_plus_one():
    # the L + 1 outputs of an isometry must climb to a unit point and back,
    # so the largest is at least 1/(N+1); the linear ramp x_n =
    # min(n+1, 2N+1-n)/(N+1) L^n e_1, nonzero at both window ends, attains it
    matrix = ROTATION.dense_matrix()
    for N in (8, 16):
        w = WindowedLinf(ROTATION, N)
        xs = np.zeros((w.window_length, w.dim), dtype=complex)
        x = np.array([1.0, 0.0], dtype=complex)
        for n in range(w.window_length):
            xs[n] = min(n + 1, 2 * N + 1 - n) / (N + 1) * x
            x = matrix @ x
        ramp = _margin_objective(w)(xs.reshape(-1))
        assert abs(ramp - 1.0 / (N + 1)) < 1e-12
        assert ramp < linf_injectivity_margin(w)


def test_margin_is_scale_free():
    w = WindowedLinf(SADDLE, 8)
    m1 = linf_injectivity_margin(w, rng_seed=0)
    m2 = linf_injectivity_margin(w, rng_seed=123)
    assert abs(m1 - m2) < 1e-6


def test_estimate_saddle_matches_lower_bound():
    est = shad_estimate_linf(WindowedLinf(SADDLE, 16), z_samples=16)
    # Shad(diag(1/2,2)) = 2 under the sup norm; the extremal defect, here
    # the constant (1, 1), comes within 2^-30 of it, and no window distance
    # may exceed the exact constant
    assert 2.0 - 1e-8 <= est <= 2.0


def test_estimate_rotation_grows_with_window():
    est8 = shad_estimate_linf(WindowedLinf(ROTATION, 8), z_samples=8)
    est16 = shad_estimate_linf(WindowedLinf(ROTATION, 16), z_samples=8)
    # resonant defects force the best orbit to miss by about N
    assert est8 >= 4.0
    assert est16 >= est8 - 1e-9
    assert est16 >= 8.0


def test_estimate_never_exceeds_the_exact_constant_on_random_saddles():
    # walked forward from 0 the samples reached about 1e22 on the unstable
    # side, where the unit defects no longer resolve, and 5 of these 40
    # estimates came out above the exact constant (by up to 1.19 times);
    # the bounded extremal sample lands within 2e-3 below it
    for s in range(40):
        M = saddle_draw(s)
        op = DenseOp(M, LINF)
        exact = exact_linf_constant(M, spectral_split(op).P_S)
        est = shad_estimate_linf(WindowedLinf(op, 32), 6, rng_seed=s)
        assert 0.998 * exact <= est <= exact * (1.0 + 1e-9)


def test_estimate_without_a_split_walks_the_samples():
    # the Jordan block has no split, so its samples are walked, peaking
    # near 2000: rounding stays far below the unit defects
    op = DenseOp([[1.0, 1.0], [0.0, 1.0]], LINF)
    assert shad_estimate_linf(WindowedLinf(op, 32), 6) == 256.0


def test_estimate_refuses_a_walk_too_large_to_resolve_its_defects():
    # no split (eigenvalue 1), and the walk grows like 3^n to about 1e30
    op = DenseOp([[1.0, 0.0], [0.0, 3.0]], LINF)
    with pytest.raises(NotCertified, match=r"sample walk peaks at \d\.\d+e\+29"):
        shad_estimate_linf(WindowedLinf(op, 32), 6)


def test_estimate_validates_arguments():
    with pytest.raises(ValueError):
        shad_estimate_linf(WindowedLinf(SADDLE, 0))
    with pytest.raises(ValueError):
        shad_estimate_linf(WindowedLinf(SADDLE, 4), z_samples=0)


def test_robustness_scan_small_radii_pass():
    scan = shadowing_robustness_scan(SADDLE, radii=[0.01, 0.05], trials=6)
    assert abs(scan.original_upper - 3.0) < 1e-9
    for radius, passes, trials, worst in scan.rows:
        assert passes == trials
        assert worst <= 2.0 * scan.original_upper


def test_robustness_scan_rejects_negative_radius():
    with pytest.raises(ValueError):
        shadowing_robustness_scan(SADDLE, radii=[-0.1])
