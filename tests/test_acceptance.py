"""End-to-end acceptance checks.

Ten pinned criteria, one test each. Every test prints a single PASS/FAIL
line with its runtime before asserting, so the verdict for each criterion
is visible in the pytest output whether or not the run is green.
"""

import math
import time

import numpy as np

from lindyn.errors import NotCertified
from lindyn.expansivity import EXPANSIVE, expansive_eigen_test
from lindyn.gallery import (
    contraction_half,
    quarter_rotation,
    saddle,
    saddle_cubic_map,
    shifted_weighted_contraction,
)
from lindyn.homoclinic import homoclinic_core_approximate, homoclinic_dichotomy
from lindyn.hypercyclic import adjoint_eigen_obstruction, criterion_witness, rolewicz
from lindyn.linalg import L2, LINF, DenseVector, SparseBiSeq, dense_eig
from lindyn.linf import WindowedLinf, linf_injectivity_margin, shad_estimate_linf
from lindyn.operators import DenseOp
from lindyn.sampling import (
    random_margin_matrix,
    random_spectral_contraction,
    rng_from_seed,
    unit_dense_samples,
    unit_seq_samples,
)
from lindyn.shadowing import (
    generate_pseudo_orbit,
    shad_bounds,
    shadow_contraction,
    shadow_splitting_series,
    shadow_window_solve,
)
from lindyn.splitting import GENERALIZED, classify, spectral_split
from lindyn.stability import (
    BumpPerturbation,
    conjugacy_residual,
    conjugacy_solve,
    grobman_hartman_local,
    inverse_conjugacy,
    verify_contractive_sum,
)


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"AC{num:02d} {word} [{elapsed:.2f}s / {budget:.0f}s] {detail}")


def test_acceptance_01_saddle_bounds_and_window_estimate():
    budget = 5.0
    t0 = time.perf_counter()
    op = saddle()
    b = shad_bounds(op, spectral_split(op))
    est = shad_estimate_linf(WindowedLinf(op, 32))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(b.upper - 3.0) <= 1e-9
        and abs(b.lower - 2.0) <= 1e-9
        and 1.95 <= est <= 3.0
        and elapsed < budget
    )
    _verdict(
        1, ok, elapsed, budget,
        f"bounds upper {b.upper:.12g} lower {b.lower:.12g}, estimate {est:.6g}",
    )
    assert ok


def test_acceptance_02_shadowing_reconstruction():
    budget = 10.0
    delta = 1e-3
    t0 = time.perf_counter()
    op = saddle()
    split = spectral_split(op)
    rng = rng_from_seed(2)
    worst_series = 0.0
    worst_gap = -math.inf
    for i in range(100):
        seed_vec = DenseVector(rng.standard_normal(2), LINF)
        po = generate_pseudo_orbit(op, seed_vec, (0, 200), delta, rng_seed=1000 + i)
        series = shadow_splitting_series(op, split, po)
        window = shadow_window_solve(op, po)
        worst_series = max(worst_series, series.sup_error)
        worst_gap = max(worst_gap, window.sup_error - series.sup_error)
    half = contraction_half()
    po_c = generate_pseudo_orbit(
        half, DenseVector([1.0, -1.0], LINF), (0, 60), delta, rng_seed=7
    )
    contr = shadow_contraction(half, po_c)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_series <= 3.0 * delta
        and worst_gap <= 1e-6
        and contr.sup_error <= delta / (1.0 - 0.5) + 1e-9
        and elapsed < budget
    )
    _verdict(
        2, ok, elapsed, budget,
        f"series sup {worst_series:.3e} vs 3e-3, window-series gap {worst_gap:.2e}, "
        f"contraction sup {contr.sup_error:.3e} vs 2e-3",
    )
    assert ok


def test_acceptance_03_weighted_shift_classification_and_dichotomy():
    budget = 1.0
    t0 = time.perf_counter()
    _, _, comp, split = shifted_weighted_contraction()
    rep = classify(comp, split)
    witness_ok = rep.witness is not None and rep.witness.norm() > 0
    if witness_ok:
        # the witness must live in S and in the image of U
        witness_ok = max(rep.witness.support()) <= split.cutoff
        pre = comp.inverse().apply(rep.witness)
        witness_ok = witness_ok and min(pre.support()) >= split.cutoff + 1
    dich = homoclinic_dichotomy(comp, split)
    w = dich.witness
    decay_exact = True
    inv = comp.inverse()
    for n in range(1, 41):
        if comp.apply_power(n, w).norm() != 2.0 ** (-n):
            decay_exact = False
        if inv.apply_power(n, w).norm() != 2.0 ** (-n):
            decay_exact = False
    elapsed = time.perf_counter() - t0
    ok = (
        rep.klass == GENERALIZED
        and witness_ok
        and dich.verdict == "NontrivialHomoclinic"
        and decay_exact
        and elapsed < budget
    )
    _verdict(
        3, ok, elapsed, budget,
        f"class {rep.klass}, dichotomy {dich.verdict}, decay 2^-n exact for n<=40: {decay_exact}",
    )
    assert ok


def test_acceptance_04_rotation_non_shadowing():
    budget = 10.0
    t0 = time.perf_counter()
    op = quarter_rotation()
    sizes = (8, 16, 32, 64)
    ests = [shad_estimate_linf(WindowedLinf(op, n)) for n in sizes]
    margins = [linf_injectivity_margin(WindowedLinf(op, n)) for n in sizes]
    ratios = [float(margins[i + 1] / margins[i]) for i in range(len(sizes) - 1)]
    elapsed = time.perf_counter() - t0
    ok = (
        ests[-1] >= 10.0
        and all(ests[i + 1] >= ests[i] for i in range(len(sizes) - 1))
        and all(r <= 0.7 for r in ratios)
        and elapsed < budget
    )
    _verdict(
        4, ok, elapsed, budget,
        f"estimates {[round(e, 3) for e in ests]}, margin ratios {[round(r, 3) for r in ratios]}",
    )
    assert ok


def test_acceptance_05_finite_dimensional_equivalence():
    budget = 60.0
    t0 = time.perf_counter()
    rng = rng_from_seed(5)
    disagreements = 0
    for _ in range(200):
        m = random_margin_matrix(4, rng, margin=0.05, min_modulus=1e-6)
        op = DenseOp(m, L2)
        moduli = [abs(lam) for lam, _ in dense_eig(m)]
        eig_hyperbolic = all(abs(mu - 1.0) >= 0.05 for mu in moduli)
        try:
            finite = math.isfinite(shad_bounds(op, spectral_split(op)).upper)
        except NotCertified:
            finite = False
        expansive = expansive_eigen_test(op).verdict == EXPANSIVE
        if not (eig_hyperbolic == finite == expansive):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < budget
    _verdict(5, ok, elapsed, budget, f"200 matrices, {disagreements} route disagreements")
    assert ok


def test_acceptance_06_structural_stability():
    budget = 30.0
    t0 = time.perf_counter()
    op = saddle()
    split = spectral_split(op)
    bump = BumpPerturbation(
        center=DenseVector([0.8, -0.4], LINF),
        radius=1.6,
        amplitude=0.01,
        direction=DenseVector([1.0, 0.3], LINF),
    )
    cert_ok = bump.sup_norm <= 0.01 and bump.lip <= 0.01
    sol = conjugacy_solve(op, split, bump, tol=1e-8)
    rng = rng_from_seed(6)
    points = [u * (3.0 * rng.uniform(0.0, 1.0)) for u in unit_dense_samples(2, LINF, 100, rng)]
    h_sup = max(sol.field(x).norm() for x in points)
    residual = conjugacy_residual(op, bump, sol.field, points)
    inv = inverse_conjugacy(op, split, bump, tol=1e-8)
    round_trip = 0.0
    for x in points:
        hx = x + sol.field(x)
        back = hx + inv.field(hx)
        round_trip = max(round_trip, (back - x).norm())
    elapsed = time.perf_counter() - t0
    ok = (
        cert_ok
        and sol.factor <= 0.03 + 1e-9
        and h_sup <= 0.03
        and residual <= 1e-6
        and round_trip <= 1e-5
        and elapsed < budget
    )
    _verdict(
        6, ok, elapsed, budget,
        f"factor {sol.factor:.4f}, sup|h| {h_sup:.4f}, residual {residual:.2e}, "
        f"round trip {round_trip:.2e}",
    )
    assert ok


def test_acceptance_07_local_linearization_box():
    budget = 30.0
    t0 = time.perf_counter()
    lin = grobman_hartman_local(saddle_cubic_map(), box_radius=1.0, tol=1e-6)
    rng = rng_from_seed(7)
    points = [
        u * (lin.radius * rng.uniform(0.0, 1.0))
        for u in unit_dense_samples(2, LINF, 100, rng)
    ]
    residual = lin.residual(points)
    elapsed = time.perf_counter() - t0
    ok = lin.radius >= 0.05 and residual <= 1e-5 and elapsed < budget
    _verdict(
        7, ok, elapsed, budget,
        f"box radius {lin.radius:.3f}, residual {residual:.2e} on 100 points",
    )
    assert ok


def test_acceptance_08_hypercyclic_witness_and_obstruction():
    budget = 5.0
    eps = 1e-6
    t0 = time.perf_counter()
    cd = rolewicz(2.0)
    rng = rng_from_seed(8)
    targets = unit_seq_samples(0, 4, L2, 3, rng, support=3)
    wit = criterion_witness(cd, targets, eps)
    witness_ok = all(err <= eps for err in wit.visit_errors)
    replay_ok = True
    for target, n in zip(targets, wit.visit_times):
        err = (cd.op.apply_power(n, wit.seed) - target).norm()
        replay_ok = replay_ok and err <= eps
    obstruction_ok = True
    for k in range(20):
        dim = int(rng.integers(1, 5))
        m = rng.standard_normal((dim, dim))
        obs = adjoint_eigen_obstruction(DenseOp(m, L2))
        obstruction_ok = obstruction_ok and len(obs) >= 1
        for o in obs:
            row = np.array(o.functional)
            lhs = row.conj() @ m
            rhs = np.conj(o.eigenvalue) * row.conj()
            scale = max(1.0, float(np.abs(m).max()))
            obstruction_ok = obstruction_ok and float(np.abs(lhs - rhs).max()) <= 1e-8 * scale
    elapsed = time.perf_counter() - t0
    ok = witness_ok and replay_ok and obstruction_ok and elapsed < budget
    _verdict(
        8, ok, elapsed, budget,
        f"visit errors {[f'{e:.1e}' for e in wit.visit_errors]}, replay ok {replay_ok}, "
        f"20 adjoint obstructions ok {obstruction_ok}",
    )
    assert ok


def test_acceptance_09_homoclinic_core_approximation():
    budget = 1.0
    t0 = time.perf_counter()
    _, _, comp, split = shifted_weighted_contraction()
    x = SparseBiSeq({0: 1.0, 1: 0.5}, comp.norm_tag)
    errs = []
    for n in (5, 10, 15):
        approx = homoclinic_core_approximate(comp, split, x, n)
        errs.append(max(approx.stable_remainder, approx.unstable_remainder))
    decay_ok = all(errs[i + 1] <= 0.55 * errs[i] + 1e-15 for i in range(len(errs) - 1))
    elapsed = time.perf_counter() - t0
    ok = decay_ok and elapsed < budget
    _verdict(9, ok, elapsed, budget, f"core errors at n=5,10,15: {errs}")
    assert ok


def test_acceptance_10_contractive_sum_constants():
    budget = 60.0
    delta = 1e-3
    t0 = time.perf_counter()
    rng = rng_from_seed(10)
    violations = 0
    replay_ok = True
    for i in range(50):
        dim = int(rng.integers(2, 5))
        m = random_spectral_contraction(dim, rng)
        op = DenseOp(m, L2)
        rep = verify_contractive_sum(op, trials=20, seq_len=20, rng_seed=100 + i)
        violations += rep.violations
        seed_vec = DenseVector(rng.standard_normal(dim), L2)
        po = generate_pseudo_orbit(op, seed_vec, (0, 40), delta, rng_seed=i)
        res = shadow_splitting_series(op, spectral_split(op), po)
        if res.sup_error > rep.gamma * delta * (1 + 1e-9):
            replay_ok = False
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and replay_ok and elapsed < budget
    _verdict(
        10, ok, elapsed, budget,
        f"50 ops x 20 sequences, {violations} violations, gamma replay ok {replay_ok}",
    )
    assert ok
