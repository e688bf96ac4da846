import dataclasses
import inspect
import math

import numpy as np
import pytest

from lindyn import (
    L1,
    L2,
    LINF,
    BumpPerturbation,
    ConstantField,
    CoordinateSplit,
    DenseOp,
    DenseVector,
    DiagonalOp,
    KindMismatch,
    NonFinite,
    NotCertified,
    NotContraction,
    NotContractiveSpectrum,
    NotInvertible,
    SparseBiSeq,
    TrajectoryBudget,
    classify,
    conjugacy_residual,
    conjugacy_solve,
    gamma_eval,
    generate_pseudo_orbit,
    grobman_hartman_local,
    inverse_conjugacy,
    inverse_residual,
    shad_bounds,
    shadow_splitting_series,
    spectral_split,
    verify_contractive_sum,
    verify_shadow,
)
from lindyn import shadowing, splitting, stability
from lindyn.gallery import (
    contraction_half,
    quarter_rotation,
    rotation_cubic_map,
    saddle,
    saddle_cubic_map,
    shifted_weighted_contraction,
)
from lindyn.linalg import array_norm, row_norms
from lindyn.operators import CompositionOp, MonomialPowers, SignWeights
from lindyn.sampling import (
    random_margin_matrix,
    random_spectral_contraction,
    rng_from_seed,
    unit_dense_samples,
)
from lindyn.stability import (
    PHI_LIP_MAX,
    ConjugacyField,
    compute_horizons,
    perturbed_backward_map,
)

SADDLE = saddle()
SPLIT = spectral_split(SADDLE)

# amplitude 0.01 at radius 1.6 keeps the certified Lipschitz constant under
# 0.01: 0.01 * (8 / (3 sqrt 3)) / 1.6
BUMP = BumpPerturbation(
    center=DenseVector([0.8, -0.4], LINF),
    radius=1.6,
    amplitude=0.01,
    direction=DenseVector([1.0, 0.3], LINF),
)


def sample_points(count, seed=0, scale=2.0):
    rng = rng_from_seed(seed)
    return [u * (scale * rng.uniform(0.0, 1.0)) for u in unit_dense_samples(2, LINF, count, rng)]


def test_bump_certificates():
    assert BUMP.sup_norm == 0.01
    assert BUMP.lip == 0.01 * PHI_LIP_MAX / 1.6
    assert BUMP.lip <= 0.01
    assert abs(PHI_LIP_MAX - 8.0 / (3.0 * math.sqrt(3.0))) < 1e-15
    assert BUMP.support_radius == BUMP.center.norm() + 1.6


def test_bump_vanishes_outside_support():
    far = np.array([10.0, 10.0], dtype=complex)
    assert array_norm(BUMP(far), LINF) == 0.0
    at_center = BUMP(BUMP.center.coords)
    assert abs(array_norm(at_center, LINF) - 0.01 * BUMP.direction.norm()) < 1e-15


def test_bump_sampled_lipschitz_stays_under_certificate():
    worst = BUMP.verify_lipschitz(pairs=400, rng_seed=1)
    assert worst <= BUMP.lip * (1.0 + 1e-9)


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpPerturbation(BUMP.center, -1.0, 0.01, BUMP.direction)
    with pytest.raises(ValueError):
        BumpPerturbation(BUMP.center, 1.0, 0.01, DenseVector([2.0, 0.0], LINF))


def test_gamma_constant_field_closed_form():
    # Gamma(const v) = (I - L|_S)^-1 P_S v - (I - L^-1|_U)^-1 L^-1 P_U v,
    # which for diag(1/2, 2) is (2 v1, -v2)
    v = DenseVector([0.3, -0.7], LINF)
    out = gamma_eval(SADDLE, SPLIT, ConstantField(v), DenseVector([5.0, 5.0], LINF))
    assert np.allclose(out.coords, [0.6, 0.7], atol=1e-12)


def test_gamma_functional_equation():
    # Gamma(alpha)(Lx) = L Gamma(alpha)(x) + alpha(x) pointwise
    for x in sample_points(12, seed=4):
        lhs = gamma_eval(SADDLE, SPLIT, BUMP, SADDLE.apply(x)).coords
        rhs = SADDLE.apply(gamma_eval(SADDLE, SPLIT, BUMP, x)).coords + BUMP(x.coords)
        assert array_norm(lhs - rhs, LINF) < 1e-9


class RecordingField:
    """A field that logs every point it is evaluated at."""

    def __init__(self, base):
        self.base = base
        self.norm_tag = base.norm_tag
        self.sup_norm = base.sup_norm
        self.support_radius = base.support_radius
        self.seen = []

    def __call__(self, x):
        self.seen.append(x.tobytes())
        return self.base(x)


def dense_case(name, tag):
    """An operator, its splitting, a bump of norm tag tag and query points
    inside, around and far outside the bump's support."""
    if name == "saddle":
        op = DenseOp(SADDLE.matrix, tag)
        rng = rng_from_seed(3)
    else:
        rng = rng_from_seed(int(name[-1]))
        dim = 2 if name.startswith("random2") else 3
        op = DenseOp(random_margin_matrix(dim, rng, margin=0.2), tag)
    dim = op.dim
    raw = rng.standard_normal(dim) + 0.5
    bump = BumpPerturbation(
        center=DenseVector(0.3 * rng.standard_normal(dim), tag),
        radius=1.5,
        amplitude=0.01,
        direction=DenseVector(raw, tag) * (1.0 / DenseVector(raw, tag).norm()),
    )
    points = [u * (3.0 * rng.uniform(0.0, 1.0)) for u in unit_dense_samples(dim, tag, 4, rng)]
    points += [DenseVector(np.zeros(dim), tag), DenseVector(np.full(dim, 40.0), tag)]
    return op, spectral_split(op), bump, points


DENSE_CASES = ["saddle", "random2_1", "random2_2", "random3_1", "random3_4"]


def raw(v):
    return (v.coords if isinstance(v, DenseVector) else v).tobytes()


def reference_gamma(op, split, alpha, x, horizons, traj_forward=None, traj_backward=None):
    """Gamma on DenseVectors, the reference for gamma_eval: the same Horner
    sums in the same order through op.apply, op.inverse().apply and the
    split's projections applied to each vector, with alpha and the
    trajectory maps called on coordinates."""
    tag, inv = op.norm_tag, op.inverse()

    def P_S(v):
        return DenseVector(split.P_S @ v.coords, tag)

    def P_U(v):
        return DenseVector(split.P_U @ v.coords, tag)

    def vector_map(traj, default):
        return default if traj is None else (lambda v: DenseVector(traj(v.coords), tag))

    def values(P, R, count, from_x):
        pts, pt = [], x
        for i in range(count):
            if i or not from_x:
                pt = R(pt)
            pts.append(pt)
        # the whole trajectory is walked before alpha sees any point
        return [
            P(x * 0j) if p.norm() > alpha.support_radius else P(DenseVector(alpha(p.coords), tag))
            for p in pts
        ]

    acc_f = x * 0j
    backward = vector_map(traj_backward, inv.apply)
    for v in reversed(values(P_S, backward, len(horizons.a_terms), False)):
        acc_f = P_S(op.apply(acc_f)) + v
    acc_b = x * 0j
    forward = vector_map(traj_forward, op.apply)
    for u in reversed(values(P_U, forward, len(horizons.b_terms), True)):
        acc_b = P_U(inv.apply(acc_b + u))
    return acc_f - acc_b


class ReferenceComposedField:
    """beta o (id + h) on coordinates, for a reference field h on DenseVectors."""

    def __init__(self, beta, h, h_bound):
        self.beta, self.h = beta, h
        self.support_radius = beta.support_radius + h_bound

    def __call__(self, y):
        v = DenseVector(y, self.beta.norm_tag)
        if v.norm() > self.support_radius:
            return (v * 0j).coords
        return self.beta((v + self.h(v)).coords)


class ReferenceConjugacyField:
    """A ConjugacyField's Picard field on DenseVectors through
    reference_gamma, memoized on the same keys."""

    def __init__(self, field):
        self.field = field
        self._memo = {}

    def eval(self, x, depth):
        f = self.field
        if depth <= 0:
            return x * 0j
        key = stability._memo_key(x.coords, depth)
        if key is not None and key in self._memo:
            return self._memo[key]
        alpha = f.beta
        if depth > 1:
            alpha = ReferenceComposedField(f.beta, lambda y: self.eval(y, depth - 1), f.h_bound)
        out = reference_gamma(f.op, f.split, alpha, x, f.horizons, f.traj_forward, f.traj_backward)
        if key is not None:
            self._memo[key] = out
        return out

    def __call__(self, x):
        return self.eval(x, self.field.depth)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("name", DENSE_CASES)
def test_gamma_array_path_matches_per_vector_path_bit_for_bit(name, tag):
    op, split, bump, points = dense_case(name, tag)
    horizons = compute_horizons(op, split, bump.sup_norm)
    const = ConstantField(bump.direction * 0.01)
    for field in (const, bump):
        fast, slow = RecordingField(field), RecordingField(field)
        for x in points:
            assert raw(gamma_eval(op, split, fast, x, horizons)) == raw(
                reference_gamma(op, split, slow, x, horizons)
            )
        # the field sees the same points in the same order
        assert fast.seen == slow.seen
    assert len(fast.seen) > 0


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("name", DENSE_CASES)
def test_conjugacy_fields_on_array_path_match_bit_for_bit(name, tag):
    op, split, bump, points = dense_case(name, tag)
    horizons = compute_horizons(op, split, bump.sup_norm, tail_tol=1e-8)
    fast = ConjugacyField(op, split, bump, 2, horizons)
    slow = ReferenceConjugacyField(fast)
    # the inverse field walks its trajectory maps, which map coordinates
    inv_fast = inverse_conjugacy(op, split, bump, tol=1e-6).field
    inv_slow = ReferenceConjugacyField(inv_fast)
    for x in points:
        hx = fast(x)
        assert raw(hx) == raw(slow(x))
        assert raw(fast(op.apply(x))) == raw(slow(op.apply(x)))
        assert raw(inv_fast(x + hx)) == raw(inv_slow(x + hx))
    # the memos hold the same keys, inserted in the same order
    for a, b in ((fast, slow), (inv_fast, inv_slow)):
        assert list(a._memo) == list(b._memo)
        assert [raw(v) for v in a._memo.values()] == [raw(v) for v in b._memo.values()]
    assert any(key[0] == 1 for key in fast._memo)


def test_gamma_array_path_refuses_overflow():
    huge = DenseVector([1e306, 1e306], LINF)
    for op in (SADDLE, CompositionOp([SADDLE])):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            gamma_eval(op, SPLIT, BUMP, huge)


def test_gamma_refuses_what_is_not_dense_before_any_horizon(monkeypatch):
    def no_horizons(*args, **kwargs):
        raise AssertionError("horizons computed before the checks")

    monkeypatch.setattr(stability, "compute_horizons", no_horizons)
    _, _, seq_op, cut = shifted_weighted_contraction()
    e0 = SparseBiSeq.basis(0, L1)
    field = ConstantField(DenseVector([0.01, 0.0], LINF))
    x = DenseVector([0.5, -0.5], LINF)
    other = DenseOp([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], LINF)
    cases = [
        # a sequence operator, with its own point or a dense one
        (seq_op, cut, field, e0),
        (seq_op, cut, field, x),
        # a point that is not a dense vector of the operator's tag and dimension
        (SADDLE, SPLIT, field, e0),
        (SADDLE, SPLIT, field, x.coords),
        (SADDLE, SPLIT, field, DenseVector([0.5, -0.5], L1)),
        (SADDLE, SPLIT, field, DenseVector([0.5, -0.5, 0.0], LINF)),
        # a split of another tag, dimension or kind
        (SADDLE, spectral_split(DenseOp(SADDLE.matrix, L1)), field, x),
        (SADDLE, spectral_split(other), field, x),
        (SADDLE, CoordinateSplit(0, LINF), field, x),
        # a field of another tag
        (SADDLE, SPLIT, ConstantField(DenseVector([0.01, 0.0], L1)), x),
    ]
    for op, split, alpha, point in cases:
        with pytest.raises(KindMismatch):
            gamma_eval(op, split, alpha, point)


def walks(op, x, horizons):
    """The points Gamma at x walks: len(a_terms) steps back from x, and x
    with len(b_terms) - 1 steps forward, as coordinate arrays."""
    A, A_inv = op.dense_matrix(), op.inverse().dense_matrix()
    back, pt = [], x.coords
    for _ in horizons.a_terms:
        pt = A_inv @ pt
        back.append(pt)
    fwd, pt = [], x.coords
    for i in range(len(horizons.b_terms)):
        if i:
            pt = A @ pt
        fwd.append(pt)
    return back, fwd


class SpotField:
    """value at the given points, matched bit for bit, and zero elsewhere;
    its support radius is the largest norm among them (or radius, if given).
    It logs every point it is evaluated at."""

    def __init__(self, points, value, radius=None):
        self.spots = {p.tobytes() for p in points}
        self.value = value.coords
        self.norm_tag = value.norm_tag
        self.sup_norm = value.norm()
        self.support_radius = (
            max(array_norm(p, self.norm_tag) for p in points) if radius is None else radius
        )
        self.seen = []

    def __call__(self, x):
        self.seen.append(x.tobytes())
        return self.value if x.tobytes() in self.spots else x * 0j


def check_gamma_edge(op, split, horizons, make_field, x, alpha_x):
    """Gamma at x of a fresh field from make_field against reference_gamma,
    bit for bit and point for point, and Gamma(Lx) = L Gamma(x) + alpha(x)
    to 1e-12; returns Gamma(x) and the points the field saw."""
    fast, slow = make_field(), make_field()
    gx = gamma_eval(op, split, fast, x, horizons)
    assert raw(gx) == raw(reference_gamma(op, split, slow, x, horizons))
    assert fast.seen == slow.seen
    seen = list(fast.seen)
    glx = gamma_eval(op, split, fast, op.apply(x), horizons)
    assert array_norm(glx.coords - op.apply(gx).coords - alpha_x, op.norm_tag) <= 1e-12
    return gx, seen


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("name", ["saddle", "random2_2"])
def test_gamma_sums_run_from_the_last_point_in_reach(name, tag):
    op, split, bump, points = dense_case(name, tag)
    horizons = compute_horizons(op, split, bump.sup_norm)
    # the functional equation misses by the first terms past the horizons,
    # each below 2.5e-10 |alpha|, so |alpha| = 1e-3 keeps it within 1e-12
    value = bump.direction * 1e-3
    for x in [p for p in points if p.norm() > 0]:
        back, fwd = walks(op, x, horizons)
        lx_back, lx_fwd = walks(op, op.apply(x), horizons)
        nearest = min(array_norm(p, tag) for p in back + fwd + lx_back + lx_fwd)
        assert nearest > 0.0
        # reaches no point walked from x or Lx: never called, and every term
        # is a signed zero
        gx, seen = check_gamma_edge(
            op, split, horizons, lambda: SpotField([], value, radius=0.5 * nearest), x, 0.0
        )
        assert seen == [] and not np.any(gx.coords)
        # reaches as far as the last point of each walk, and is nonzero only
        # there: each sum runs whole, and its first term counts
        gx, seen = check_gamma_edge(
            op, split, horizons, lambda: SpotField([back[-1], fwd[-1]], value), x, 0.0
        )
        assert back[-1].tobytes() in seen and fwd[-1].tobytes() in seen
        assert np.any(gx.coords)
        # every point in reach
        check_gamma_edge(
            op, split, horizons, lambda: RecordingField(ConstantField(value)), x, value.coords
        )


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("backward", [True, False])
def test_a_walk_that_leaves_reach_and_comes_back_is_walked_past_its_return(backward, tag):
    # L = V diag(1/2, 2) V^-1 with eigenvectors v_s = (1, 0), v_u = (1, eps).
    # From x = a v_s + b v_u, with the growing side's coefficient 4^-k0 times
    # the other's, the walk shrinks by about half a step until step k0, where
    # its two components cancel to 2^-k0 (0, +-eps), and grows after it. A
    # spot there is the only point in reach: every point before it, the first
    # one a walk exit tests included, is out of reach.
    eps, k0 = 1e-2, 9
    V = np.array([[1.0, 1.0], [0.0, eps]])
    op = DenseOp(V @ np.diag([0.5, 2.0]) @ np.linalg.inv(V), tag)
    split = spectral_split(op)
    x = DenseVector(V @ np.array([-(4.0**-k0), 1.0] if backward else [1.0, -(4.0**-k0)]), tag)
    # off both eigenvectors, so both projections keep a part of it
    value = DenseVector([0.0, 1e-3], tag)
    horizons = compute_horizons(op, split, value.norm())
    back, fwd = walks(op, x, horizons)
    walk, returns_at = (back, k0 - 1) if backward else (fwd, k0)
    spot = walk[returns_at]
    norms = [array_norm(p, tag) for p in walk]
    assert returns_at >= stability.WALK_EXIT_STRIDE and returns_at + 1 < len(walk)
    assert min(norms[:returns_at] + norms[returns_at + 1 :]) > norms[returns_at]
    fast, slow = SpotField([spot], value), SpotField([spot], value)
    gx = gamma_eval(op, split, fast, x, horizons)
    assert spot.tobytes() in fast.seen
    assert raw(gx) == raw(reference_gamma(op, split, slow, x, horizons))
    assert np.any(gx.coords)


def test_a_walk_exit_reads_the_largest_green_term_up_to_its_steps_left():
    # The stable side is the Jordan block J = [[0.9, 1], [0, 0.9]], whose
    # Green's terms ||J^k|| = 0.9^k (1 + k / 0.9) read 1.0, 1.9, 2.61, 3.16,
    # ... and peak at 4.26 at k = 9. The backward walk from x = L^13 s, with
    # s = (1, 1, 0), tests its exit first at its fourth point y = L^9 s,
    # where ||P_S y|| = 4.26 ||s||. That is above 2 t(1) ||s|| but not above
    # 2 max_k t(k) ||s||, so only an exit that reads the largest term up to
    # the steps left walks on to s, nine steps later: the one point in reach.
    op = DenseOp([[0.9, 1.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 3.0]], LINF)
    split = spectral_split(op)
    value = DenseVector([0.0, 1e-3, 0.0], LINF)
    horizons = compute_horizons(op, split, value.norm())
    terms = splitting._series_memo(op, split)["S"].memoized()
    assert terms[1] < terms[2] < terms[9] and max(terms) == terms[9]
    x = DenseVector(np.linalg.matrix_power(op.dense_matrix(), 13) @ [1.0, 1.0, 0.0], LINF)
    back, _ = walks(op, x, horizons)
    spot = back[12]
    norms = [array_norm(p, LINF) for p in back]
    assert min(norms[:12] + norms[13:]) > norms[12]
    assert 2.0 * norms[12] * terms[1] < array_norm(split.P_S @ back[3], LINF)
    assert array_norm(split.P_S @ back[3], LINF) < 2.0 * norms[12] * terms[9]
    fast, slow = SpotField([spot], value), SpotField([spot], value)
    gx = gamma_eval(op, split, fast, x, horizons)
    assert fast.seen == [spot.tobytes()]
    assert raw(gx) == raw(reference_gamma(op, split, slow, x, horizons))
    assert np.any(gx.coords)


def hyperbolic_draw(k):
    """Draw k of the walk-exit property test: a dense hyperbolic operator of
    dimension 2-4 under l1, l2 or linf, its odd draws with eigenvectors
    nearly parallel, a bump whose pointwise inverse factor is at most 0.3,
    three points y, y', y'' of norm below 2 and the points L^m y and L^-m y,
    whose walks pass through y, with 4 <= m <= 7."""
    rng = rng_from_seed(2700 + k)
    dim, tag = 2 + k % 3, (L1, L2, LINF)[k // 3 % 3]
    V = rng.standard_normal((dim, dim))
    if k % 2:
        V = V[:, :1] + 0.05 * V
    stable = int(rng.integers(1, dim))
    mods = np.concatenate([rng.uniform(0.3, 0.8, stable), rng.uniform(1.3, 3.0, dim - stable)])
    lam = mods * rng.choice([-1.0, 1.0], dim)
    op = DenseOp(V @ np.diag(lam) @ np.linalg.inv(V), tag)
    u = DenseVector(rng.standard_normal(dim), tag)
    amplitude = min(0.01, 0.3 * 1.5 / (PHI_LIP_MAX * op.inverse().operator_norm()))
    bump = BumpPerturbation(
        DenseVector(0.3 * rng.standard_normal(dim), tag), 1.5, amplitude, u * (1.0 / u.norm())
    )
    points = [v * (2.0 * rng.uniform(0.0, 1.0)) for v in unit_dense_samples(dim, tag, 3, rng)]
    m = 4 + k % 4
    points += [op.apply_power(m, points[0]), op.apply_power(-m, points[0])]
    return op, spectral_split(op), bump, points


def test_walk_exits_keep_gamma_and_both_conjugacies_bit_for_bit():
    # the references walk every trajectory whole; the draws hold walks that
    # leave the bump's reach and come back, which a walk exit must not cut
    returns = 0
    for k in range(24):
        op, split, bump, points = hyperbolic_draw(k)
        horizons = compute_horizons(op, split, bump.sup_norm, tail_tol=1e-8)
        for x in points:
            fast, slow = RecordingField(bump), RecordingField(bump)
            gx = gamma_eval(op, split, fast, x, horizons)
            assert raw(gx) == raw(reference_gamma(op, split, slow, x, horizons))
            assert fast.seen == slow.seen
            for walk in walks(op, x, horizons):
                out = [array_norm(p, op.norm_tag) > bump.support_radius for p in walk]
                returns += True in out and False in out[out.index(True) :]
        fast = ConjugacyField(op, split, bump, 2 + k % 2, horizons)
        inv_fast = inverse_conjugacy(op, split, bump, tol=1e-6).field
        slow, inv_slow = ReferenceConjugacyField(fast), ReferenceConjugacyField(inv_fast)
        for x in points[::3]:
            hx = fast(x)
            assert raw(hx) == raw(slow(x))
            assert raw(inv_fast(x + hx)) == raw(inv_slow(x + hx))
        for a, b in ((fast, slow), (inv_fast, inv_slow)):
            assert list(a._memo) == list(b._memo)
            assert [raw(v) for v in a._memo.values()] == [raw(v) for v in b._memo.values()]
    assert returns > 0


def test_walks_end_where_no_later_point_comes_back(monkeypatch):
    # AC06's bump conjugacy on the saddle: a query walks a small share of the
    # horizon steps its budget counts
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    x = DenseVector([0.3, -0.2], LINF)
    walked = []
    check = stability.check_finite

    def counting_check(arr):
        if arr.ndim == 2:
            walked.append(len(arr))
        return check(arr)

    monkeypatch.setattr(stability, "check_finite", counting_check)
    sol.field(x)
    monkeypatch.undo()
    assert 0 < 4 * sum(walked) < sol.field._walked
    # the inverse field's perturbed maps declare where they are L and L^-1;
    # the same maps undeclared are walked whole, to the same bits
    inv = inverse_conjugacy(SADDLE, SPLIT, BUMP, tol=1e-8).field
    per_miss = len(inv.horizons.a_terms) + len(inv.horizons.b_terms)
    out = {}
    for declared in (True, False):
        calls = []

        def counted(traj):
            def walk(p):
                calls.append(1)
                return traj(p)

            if declared:
                walk.linear_outside = traj.linear_outside
            return walk

        field = ConjugacyField(
            SADDLE, SPLIT, inv.beta, 1, inv.horizons,
            counted(inv.traj_forward), counted(inv.traj_backward),
        )
        out[declared] = raw(field(x))
        out[declared, "calls"] = len(calls)
    assert 0 < 4 * out[True, "calls"] < per_miss
    assert out[False, "calls"] == per_miss - 1
    assert out[True] == out[False]


def test_a_query_walks_each_distinct_start_once(monkeypatch):
    # AC06's bump conjugacy at its own depth, 5. The fields of depths 2-5
    # have one reach, so their misses at one start share its walks; every
    # value, memo key and memo insertion is the reference's, which walks
    # every miss whole
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    assert sol.depth == 5
    fast = ConjugacyField(SADDLE, SPLIT, BUMP, sol.depth, sol.horizons)
    slow = ReferenceConjugacyField(fast)
    walked, check = [], stability.check_finite

    def counting_check(arr):
        walked.append(arr.ndim == 2)
        return check(arr)

    for x in [DenseVector([0.3, -0.2], LINF)] + sample_points(2, seed=5, scale=1.0):
        before = len(fast._memo)
        walked.clear()
        monkeypatch.setattr(stability, "check_finite", counting_check)
        hx = fast(x)
        monkeypatch.undo()
        # each miss without shared walks would walk two trajectories
        assert 0 < sum(walked) < len(fast._memo) - before
        assert raw(hx) == raw(slow(x))
        assert raw(fast(SADDLE.apply(x))) == raw(slow(SADDLE.apply(x)))
    assert list(fast._memo) == list(slow._memo)
    assert [raw(v) for v in fast._memo.values()] == [raw(v) for v in slow._memo.values()]
    assert {key[0] for key in fast._memo} == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_shared_walks_are_keyed_by_direction_reach_and_start(tag):
    # Gamma at one start under one walk dict, for fields whose reach takes
    # in a point of each walk or not: each reach and direction gets its own
    # walks, and each call equals gamma_eval, which keeps no walks
    op, split, bump, points = dense_case("saddle", tag)
    horizons = compute_horizons(op, split, bump.sup_norm)
    parts = stability._dense_parts(op, split, bump)
    bounds = stability._walk_bounds(op, split, parts)
    counts = len(horizons.a_terms), len(horizons.b_terms)
    x = points[0]
    back, fwd = walks(op, x, horizons)
    spots = [back[1], fwd[1]]
    norms = [array_norm(p, tag) for p in spots]
    near, far = max(norms), 0.5 * min(norms)
    shared = {}
    for radius in (far, near, far, near):
        fast, slow = (SpotField(spots, bump.direction * 1e-3, radius) for _ in range(2))
        gx = stability._gamma(parts, bounds, fast, x.coords, *counts, None, None, shared)
        assert raw(gx) == raw(gamma_eval(op, split, slow, x, horizons))
        assert fast.seen == slow.seen
        assert np.any(gx) == (radius == near)
    assert len(shared) == 4


def test_a_query_whose_walk_overflows_is_refused_again_when_repeated():
    # no refused walk is kept for a later query
    huge = DenseVector([1e306, 1e306], LINF)
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    inv = inverse_conjugacy(SADDLE, SPLIT, BUMP, tol=1e-8)
    for field in (sol.field, inv.field):
        for _ in range(2):
            with pytest.raises(NonFinite):
                field(huge)
        assert field._memo == {}
        # the field still answers queries
        assert field(DenseVector([0.3, -0.2], LINF)).norm() <= field.h_bound


def test_conjugacy_field_keeps_the_hooks_of_the_benchmark_trace():
    # perfbench's trace wraps ConjugacyField.eval(x, depth) and reads the
    # size of _memo for its memo hit ratio
    assert list(inspect.signature(ConjugacyField.eval).parameters) == ["self", "x", "depth"]
    field = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8).field
    assert type(field._memo) is dict and not field._memo
    x = np.array([0.3, -0.2], dtype=complex)
    out = field.eval(x, 1)
    assert len(field._memo) == 1
    assert field.eval(x, 1) is out and len(field._memo) == 1


def test_memo_keys_are_those_of_the_per_entry_formula():
    def per_entry_key(coords, depth):
        if np.abs(coords).max(initial=0.0) > stability.MEMO_COORD_CAP:
            return None
        scaled = np.round(coords / stability.MEMO_QUANTUM)
        return (depth, tuple(int(v.real) for v in scaled), tuple(int(v.imag) for v in scaled))

    rng = rng_from_seed(27)
    for _ in range(2000):
        dim = int(rng.integers(1, 5))
        parts = 10.0 ** rng.uniform(-14.0, 6.0, (2, dim)) * rng.choice([-1.0, 1.0], (2, dim))
        # signed zeros
        parts[rng.uniform(size=(2, dim)) < 0.2] *= 0.0
        coords = parts[0] + 1j * parts[1]
        for arr in (coords, parts[0]):
            key, ref = stability._memo_key(arr, 3), per_entry_key(arr, 3)
            assert key == ref and hash(key) == hash(ref)
            if key is not None:
                assert all(type(v) is int for v in key[1] + key[2])
    cap = stability.MEMO_COORD_CAP
    for arr in (np.array([cap, -cap], dtype=complex), np.array([0.0, np.nextafter(cap, np.inf)])):
        assert stability._memo_key(arr, 1) == per_entry_key(arr, 1)


def test_conjugacy_field_checks_its_inputs_once_when_built():
    horizons = compute_horizons(SADDLE, SPLIT, BUMP.sup_norm)
    other = DenseOp([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], LINF)
    cases = [
        (CoordinateSplit(0, LINF), BUMP),
        (spectral_split(DenseOp(SADDLE.matrix, L1)), BUMP),
        (spectral_split(other), BUMP),
        (SPLIT, ConstantField(DenseVector([0.01, 0.0], L1))),
    ]
    for split, beta in cases:
        with pytest.raises(KindMismatch):
            ConjugacyField(SADDLE, split, beta, 2, horizons)
    field = ConjugacyField(SADDLE, SPLIT, BUMP, 2, horizons)
    for x in (DenseVector([0.5, -0.5], L1), DenseVector([0.5, -0.5, 0.0], LINF)):
        with pytest.raises(KindMismatch):
            field(x)
    assert field._memo == {}


def test_a_deep_conjugacy_query_builds_no_vector_inside(monkeypatch):
    # AC06's bump on the saddle, one level deeper than its solution
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    field = ConjugacyField(SADDLE, SPLIT, BUMP, 5, sol.horizons)
    x = DenseVector([0.3, -0.2], LINF)
    built = []
    init = DenseVector.__init__

    def counting_init(self, coords, norm_tag):
        built.append(1)
        init(self, coords, norm_tag)

    monkeypatch.setattr(DenseVector, "__init__", counting_init)
    hx = field(x)
    monkeypatch.undo()
    assert len(built) <= 2
    assert {key[0] for key in field._memo} == {1, 2, 3, 4, 5}
    assert 0.0 < hx.norm() <= sol.h_bound


def test_a_deep_conjugacy_query_past_the_walk_cap_is_refused(monkeypatch):
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    x = DenseVector([0.3, -0.2], LINF)
    field = ConjugacyField(SADDLE, SPLIT, BUMP, 5, sol.horizons)
    field(x)
    walked = field._walked
    per_miss = len(sol.horizons.a_terms) + len(sol.horizons.b_terms)
    assert walked > 5 * per_miss
    monkeypatch.setattr(stability, "QUERY_WALK_CAP", walked - 1)
    with pytest.raises(TrajectoryBudget):
        ConjugacyField(SADDLE, SPLIT, BUMP, 5, sol.horizons)(x)
    monkeypatch.setattr(stability, "QUERY_WALK_CAP", walked)
    fresh = ConjugacyField(SADDLE, SPLIT, BUMP, 5, sol.horizons)
    assert raw(fresh(x)) == raw(field(x))


def test_conjugacies_refuse_a_singular_operator_as_not_invertible():
    # every eigenvalue is stable, so the split is exact (P_S = I), and the
    # Picard factor is 9.6e305: the missing inverse must be named first
    op = DenseOp([[1e-13, 1e-50, -1e-8], [0.0, 0.0, 1e308], [0.0, 0.0, -1e-20]], L1)
    split = spectral_split(op)
    bump = BumpPerturbation(
        center=DenseVector(np.zeros(3), L1),
        radius=1.6,
        amplitude=0.01,
        direction=DenseVector([1.0, 0.0, 0.0], L1),
    )
    with pytest.raises(NotInvertible):
        conjugacy_solve(op, split, bump)
    with pytest.raises(NotInvertible):
        inverse_conjugacy(op, split, bump)


@pytest.mark.parametrize("name", DENSE_CASES)
def test_dense_input_never_takes_the_vector_kind(name, monkeypatch):
    # a per-vector walk of dense input gives the same bits, only slower, so
    # the bit-for-bit tests cannot see it; its DenseOp.apply calls can. A
    # dense composition (here with the identity, so the split is op's) runs
    # on its product's rows too. classify on a spectral split calls no apply
    # either.
    op, split, bump, points = dense_case(name, LINF)
    comp = CompositionOp([op, DenseOp(np.eye(op.dim), LINF)])
    horizons = compute_horizons(op, split, bump.sup_norm)

    def refuse(*args):
        raise AssertionError("per-vector call on dense input")

    monkeypatch.setattr(DenseOp, "apply", refuse)
    for dense_op in (op, comp):
        classify(dense_op, split)
        po = generate_pseudo_orbit(dense_op, points[0], (0, 60), 1e-3, 5)
        res = shadow_splitting_series(dense_op, split, po)
        verify_shadow(dense_op, po, res)
        assert res.sup_error <= res.constant_used * po.delta + 1e-9
    for x in points:
        gx = gamma_eval(op, split, bump, x, horizons)
        assert gx.norm() <= horizons.upper * bump.sup_norm + 1e-12


def test_conjugacy_solution_certificates():
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-6)
    # gamma bound for the saddle is A + B = 3 with unit projections
    assert abs(sol.factor - 3.0 * BUMP.lip) < 1e-9
    assert abs(sol.h_bound - 0.03) < 1e-9
    assert sol.reached_tol
    for x in sample_points(30, seed=2):
        assert sol.field(x).norm() <= sol.h_bound + 1e-9


def test_conjugacy_residual_small():
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-6)
    res = conjugacy_residual(SADDLE, BUMP, sol.field, sample_points(25, seed=3))
    assert res <= 1e-6


def test_conjugacy_field_vanishes_far_out():
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-6)
    far = DenseVector([50.0, -50.0], LINF)
    assert sol.field(far).norm() == 0.0


def test_perturbed_backward_map_inverts():
    backward = perturbed_backward_map(SADDLE, BUMP)
    for z in sample_points(10, seed=6):
        y = backward(z.coords)
        assert array_norm(SADDLE.matrix @ y + BUMP(y) - z.coords, LINF) < 1e-10


def test_inverse_conjugacy_round_trip():
    sol = conjugacy_solve(SADDLE, SPLIT, BUMP, tol=1e-8)
    inv = inverse_conjugacy(SADDLE, SPLIT, BUMP, tol=1e-8)
    assert inv.backward_factor < 0.9
    for x in sample_points(20, seed=8):
        hx = x + sol.field(x)
        back = hx + inv.field(hx)
        assert (back - x).norm() <= 1e-5


def test_inverse_residual_small():
    inv = inverse_conjugacy(SADDLE, SPLIT, BUMP, tol=1e-8)
    res = inverse_residual(SADDLE, BUMP, inv.field, sample_points(15, seed=9))
    assert res <= 1e-6


def test_query_budget_counts_each_query_alone(monkeypatch):
    # the inverse field is one Gamma per memo miss, so each query at a new
    # point walks both horizons once
    inv = inverse_conjugacy(SADDLE, SPLIT, BUMP, tol=1e-8)
    per_miss = len(inv.horizons.a_terms) + len(inv.horizons.b_terms)
    points = sample_points(5, seed=12)
    monkeypatch.setattr(stability, "QUERY_WALK_CAP", per_miss)
    for x in points:
        inv.field(x)
    assert len(inv.field._memo) == len(points)
    monkeypatch.setattr(stability, "QUERY_WALK_CAP", per_miss - 1)
    with pytest.raises(TrajectoryBudget):
        inv.field(points[0] * 0.5)


def test_horizons_code_only_the_term_cap_as_a_trajectory_budget(monkeypatch):
    # a series past its term cap is a budget; a side whose radius is not
    # below 1 keeps its own code
    growing = DiagonalOp(SignWeights(neg_and_zero=2.0, pos=3.0), L1)
    with pytest.raises(NotCertified, match="restricted radius") as exc:
        compute_horizons(growing, CoordinateSplit(cutoff=0, norm_tag=L1), BUMP.sup_norm)
    assert not isinstance(exc.value, TrajectoryBudget)
    monkeypatch.setattr(shadowing, "SERIES_TERM_CAP", 3)
    with pytest.raises(TrajectoryBudget):
        compute_horizons(SADDLE, SPLIT, BUMP.sup_norm)


def test_conjugacy_requires_contraction():
    fat = BumpPerturbation(
        center=DenseVector([0.0, 0.0], LINF),
        radius=0.05,
        amplitude=1.0,
        direction=DenseVector([1.0, 0.0], LINF),
    )
    with pytest.raises(NotContraction):
        conjugacy_solve(SADDLE, SPLIT, fat)


def test_local_linearization_saddle_cubic():
    lin = grobman_hartman_local(saddle_cubic_map(), box_radius=1.0, tol=1e-6)
    assert lin.radius >= 0.25
    assert lin.factor <= 0.5
    origin = DenseVector([0.0, 0.0], LINF)
    assert lin.conjugacy(origin).norm() <= 1e-12
    pts = [p * (lin.radius / 2.5) for p in sample_points(20, seed=11, scale=1.0)]
    assert lin.residual(pts) <= 1e-6


def test_local_linearization_rejects_rotation():
    with pytest.raises(NotCertified):
        grobman_hartman_local(rotation_cubic_map(), box_radius=0.5)


def cut_off_nonlinearity(map_obj, radius):
    """chi(|z| / r) h(z) on the rows z of an array, built here from the map,
    its Jacobian at the fixed point 0 and the cut-off profile."""
    tag = map_obj.norm_tag
    J = map_obj.jac(np.zeros(2))

    def f(Z):
        s = np.clip(row_norms(Z, tag) / radius - 1.0, 0.0, 1.0)
        return (map_obj(Z.T).T - Z @ J.T) * ((1.0 - s * s) ** 2)[:, None]

    return f


@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_local_linearization_bounds_a_dense_probe(tag, r):
    # 20,000 complex finite differences of step 1e-6 r at points of the 2r
    # ball: each is a lower bound on the Lipschitz constant of the cut-off
    # nonlinearity, and each value one on its sup
    map_obj = saddle_cubic_map(tag)
    lin = grobman_hartman_local(map_obj, box_radius=r)
    assert lin.radius == r
    f = cut_off_nonlinearity(map_obj, r)
    rng = rng_from_seed(28)
    n = 20_000

    def rows(scale):
        Z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        return Z * (scale / row_norms(Z, tag))[:, None]

    Z = rows(2.0 * r * rng.uniform(0.0, 1.0, n) ** 0.5)
    D = rows(np.full(n, 1e-6 * r))
    fz = f(Z)
    lip = np.max(row_norms(f(Z + D) - fz, tag) / row_norms(D, tag))
    assert lin.cutoff_lip >= lip > 0.1 * lin.cutoff_lip
    assert lin.cutoff_sup >= np.max(row_norms(fz, tag)) > 0.0


def test_local_linearization_constants_are_the_closed_forms():
    # b(2) = (0.02, 0.04) and B(2) = diag(0.02, 0.06) under linf; Gamma's
    # series bound on diag(1/2, 2) is 2 + 1 = 3
    lin = grobman_hartman_local(saddle_cubic_map(), box_radius=1.0)
    lip = 0.06 + 0.04 * 8.0 / (3.0 * math.sqrt(3.0))
    assert lin.radius == 1.0
    assert math.isclose(lin.cutoff_sup, 0.04, rel_tol=1e-12)
    assert math.isclose(lin.cutoff_lip, lip, rel_tol=1e-12)
    assert math.isclose(lin.factor, 3.0 * lip, rel_tol=1e-12)
    assert math.isclose(lin.factor, 0.36475, rel_tol=1e-5)


def test_local_linearization_refuses_a_map_without_bounds():
    with pytest.raises(NotCertified, match="declares no bounds"):
        grobman_hartman_local(dataclasses.replace(saddle_cubic_map(), bounds=None))


def test_contractive_sum_half():
    rep = verify_contractive_sum(contraction_half(), trials=10, seq_len=12)
    # sum of 2^-k
    assert abs(rep.gamma - 2.0) < 1e-9
    assert rep.spectral_radius == 0.5
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0 + 1e-9


def test_contractive_sum_of_a_nilpotent_contraction_keeps_every_power():
    # spectral radius 0, but ||L|| = 5: the sum is 1 + 5, closed at the zero
    # term L^2, not at the radius after the first term
    rep = verify_contractive_sum(DenseOp([[0.0, 5.0], [0.0, 0.0]], L2), trials=50, seq_len=12)
    assert rep.gamma == 6.0
    assert rep.spectral_radius == 0.0
    assert rep.violations == 0


def test_contractive_sum_closes_on_a_subnormal_power():
    # draw 137 of the contractive_sum suite at seed 0: two conjugate pairs of
    # modulus 0.87, so the ratio of consecutive power norms keeps reaching 1;
    # closed at that ratio the sum ran on until a power turned subnormal
    # (5,206 terms), and the block-geometric bound closes it after 222
    rng = rng_from_seed(0)
    for _ in range(138):
        dim = int(rng.integers(2, 5))
        m = random_spectral_contraction(dim, rng)
    op = DenseOp(m, L2)
    rep = verify_contractive_sum(op, trials=20, seq_len=20, rng_seed=137)
    upper = shad_bounds(op, spectral_split(op)).upper
    assert abs(rep.gamma - upper) <= 1e-9 * upper
    assert rep.violations == 0


def test_contractive_sum_refuses_a_sequence_operator_before_it_sums(monkeypatch):
    # the series once ran its 10,000 terms before the dense matrix was read,
    # and the refusal was NOT_CERTIFIED rather than KIND_MISMATCH
    taken = []
    products = MonomialPowers.products

    def counted(self, n, stay=False):
        taken.append(n)
        return products(self, n, stay)

    monkeypatch.setattr(MonomialPowers, "products", counted)
    op = DiagonalOp(SignWeights(neg_and_zero=0.9999, pos=0.9999), L1)
    with pytest.raises(KindMismatch) as refusal:
        verify_contractive_sum(op)
    assert refusal.value.code == "KIND_MISMATCH"
    assert taken == []


def test_contractive_sum_rejects_saddle():
    with pytest.raises(NotContractiveSpectrum):
        verify_contractive_sum(SADDLE)


def test_contractive_sum_rejects_rotation():
    with pytest.raises(NotContractiveSpectrum):
        verify_contractive_sum(quarter_rotation())
