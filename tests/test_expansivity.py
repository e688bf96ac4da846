import math
from functools import partial

import numpy as np
import pytest

from lindyn import (
    EXPANSIVE,
    L1,
    L2,
    LINF,
    NOT_EXPANSIVE,
    DenseOp,
    KindMismatch,
    NotCertified,
    SparseBiSeq,
    central_window_growth,
    ecs_membership,
    expansive_eigen_test,
    expansivity_scan,
    uniform_expansivity_search,
)
from lindyn import expansivity
from lindyn.expansivity import GROWTH_RANDOM_SEEDS, _growth_objective
from lindyn.gallery import quarter_rotation, saddle, shifted_weighted_contraction
from lindyn.linalg import DenseVector, array_norm, power_stack
from lindyn.optim import coordinate_directions, descend, diagonal_directions, min_max_norm
from lindyn.sampling import dense_basis, random_margin_matrix, rng_from_seed, unit_dense_samples

SADDLE = saddle()
ROTATION = quarter_rotation()


def test_eigen_verdicts():
    rep = expansive_eigen_test(SADDLE)
    assert rep.verdict == EXPANSIVE
    assert abs(rep.circle_gap - 0.5) < 1e-12
    assert rep.moduli == (0.5, 2.0)

    rep = expansive_eigen_test(ROTATION)
    assert rep.verdict == NOT_EXPANSIVE
    assert rep.circle_gap < 1e-12


def test_eigen_gap_resolution():
    # modulus 1 + 1e-10 sits inside the 1e-6 resolution band
    op = DenseOp([[0.5, 0.0], [0.0, 1.0 + 1e-10]], LINF, invertible=True)
    assert expansive_eigen_test(op, gap=1e-6).verdict == NOT_EXPANSIVE
    assert expansive_eigen_test(op, gap=1e-12).verdict == EXPANSIVE


def test_eigen_needs_dense():
    _, _, comp, _ = shifted_weighted_contraction()
    with pytest.raises(KindMismatch):
        expansive_eigen_test(comp)


def test_uniform_search_saddle():
    rep = uniform_expansivity_search(SADDLE, m_max=16)
    # every unit vector has a coordinate of modulus 1, pushed to 2 within
    # a couple of doubling steps in one time direction
    assert 1 <= rep.m <= 3
    assert rep.threshold == 2.0
    assert all(1 <= n <= rep.m for _, n in rep.table)


def test_uniform_search_basis_vectors_need_one_step():
    e1 = DenseVector([1.0, 0.0], LINF)
    e2 = DenseVector([0.0, 1.0], LINF)
    rep = uniform_expansivity_search(SADDLE, m_max=4, samples=[e1, e2])
    assert rep.m == 1


def test_uniform_search_rotation_refuses():
    # an isometry never reaches the threshold in either direction
    with pytest.raises(NotCertified):
        uniform_expansivity_search(ROTATION, m_max=8)


def test_window_growth_saddle_doubles():
    table = central_window_growth(SADDLE, [0, 1, 2, 4])
    assert table[0].value == 1.0
    assert abs(table[1].value - 2.0) < 1e-9
    assert abs(table[2].value - 4.0) < 1e-9
    assert abs(table[4].value - 16.0) < 1e-9


def test_window_growth_rotation_flat():
    table = central_window_growth(ROTATION, [1, 2, 4])
    for g in table.values():
        assert abs(g.value - 1.0) < 1e-9


def test_window_growth_guards():
    with pytest.raises(ValueError):
        central_window_growth(DenseOp([[1.0] * 9] * 9, LINF), [1])
    with pytest.raises(ValueError):
        central_window_growth(SADDLE, [-1])


def test_ecs_membership_stable_direction():
    x = DenseVector([1.0, 0.0], LINF)
    rep = ecs_membership(SADDLE, x, c=1.0, beta=0.5, horizon=30)
    assert rep.member
    assert rep.first_violation_n is None
    assert abs(rep.max_ratio - 1.0) < 1e-12


def test_ecs_membership_unstable_direction_fails_fast():
    y = DenseVector([0.0, 1.0], LINF)
    rep = ecs_membership(SADDLE, y, c=1.0, beta=0.5, horizon=10)
    assert not rep.member
    assert rep.first_violation_n == 1
    assert rep.max_ratio > 1.0


@pytest.mark.parametrize("beta, horizon", [(2.0, 2000), (0.5, 2000), (0.9, 8000)])
def test_ecs_membership_long_horizons_return_a_verdict(beta, horizon):
    # beta**n once overflowed (beta 2) or underflowed to a zero bound
    x = DenseVector([1.0, 0.0], LINF)
    rep = ecs_membership(SADDLE, x, c=1.0, beta=beta, horizon=horizon)
    assert rep.member
    assert rep.first_violation_n is None
    assert rep.max_ratio == 1.0


def test_ecs_zero_vector_trivial():
    rep = ecs_membership(SADDLE, DenseVector([0.0, 0.0], LINF), 1.0, 0.5, 5)
    assert rep.member and rep.max_ratio == 0.0


def test_scan_rotation_reports_absence():
    rep = expansivity_scan(ROTATION, n_list=(1, 2), m_max=8)
    assert rep.eigen.verdict == NOT_EXPANSIVE
    assert rep.uniform is None
    assert dict(rep.window_growth)[2].value == pytest.approx(1.0, abs=1e-9)


def test_scan_weighted_shift_not_uniformly_expansive():
    # e_0 is homoclinic for the weighted shift: both orbit directions decay,
    # so no window ever pushes it past the threshold
    _, _, comp, _ = shifted_weighted_contraction()
    rep = expansivity_scan(comp, m_max=32)
    assert rep.eigen is None
    assert rep.uniform is None
    assert rep.window_growth == ()


def test_uniform_search_refuses_homoclinic_sample():
    _, _, comp, _ = shifted_weighted_contraction()
    with pytest.raises(NotCertified):
        uniform_expansivity_search(comp, m_max=32, samples=[SparseBiSeq.basis(0, "l1")])


# ---------------------------------------------------------------------------
# The growth bracket from pinned solves
# ---------------------------------------------------------------------------


def _descent_reference(op, n_list, rng_seed=0):
    """The growth as the descent alone reaches it: from the basis and
    GROWTH_RANDOM_SEEDS random unit seeds, drawn for each N in turn."""
    matrix = op.dense_matrix()
    dim, tag, top = matrix.shape[0], op.norm_tag, max(n_list)
    eye = np.eye(dim)
    forward = power_stack(matrix, eye, top + 1)
    backward = power_stack(np.linalg.inv(matrix), eye, top + 1) if op.invertible() else forward[:1]
    rng = rng_from_seed(rng_seed)
    out = {}
    for N in n_list:
        growth = _growth_objective(np.concatenate([forward[: N + 1], backward[1 : N + 1]]), tag)
        seeds = [b.coords for b in dense_basis(dim, tag)]
        seeds += [s.coords for s in unit_dense_samples(dim, tag, GROWTH_RANDOM_SEEDS, rng)]
        dirs = coordinate_directions(dim) + diagonal_directions(dim)
        found = descend([(growth, [s.astype(complex) for s in seeds])], dirs, scale=0.5)[0]
        out[N] = min(value for _, value in found)
    return out


def _growth_objective_at(op, N, w):
    """max_{|n| <= N} ||L^n w|| / ||w||, stepping w through L and L^-1."""
    matrix, tag = op.dense_matrix(), op.norm_tag
    steps = [matrix.__matmul__] + ([partial(np.linalg.solve, matrix)] if op.invertible() else [])
    top = array_norm(w, tag)
    for step in steps:
        x = w
        for _ in range(N):
            x = step(x)
            top = max(top, array_norm(x, tag))
    return top / array_norm(w, tag)


def _is_closed(g):
    return g.value - g.lower <= 1e-9 * g.value


def test_window_growth_is_exact_where_the_descent_stalled():
    # the ninth draw of this stream at N = 4: the descent stalled at 220.31
    rng = rng_from_seed(11)
    for t in range(9):
        matrix = random_margin_matrix(2 + t % 3, rng, margin=0.2)
    g = central_window_growth(DenseOp(matrix, LINF), [4])[4]
    assert g.value == pytest.approx(15.5666, abs=1e-4)
    assert _is_closed(g)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_window_growth_brackets_and_is_not_above_the_descent(tag):
    opened = 0
    # draw 1 is 3x3, where the descent is slow at N = 4
    for k, n_list in ((0, (1, 2, 4)), (1, (1, 2)), (4, (1, 2, 4))):
        matrix = random_margin_matrix(2 + k % 2, rng_from_seed(1200 + k), margin=0.2)
        op = DenseOp(matrix, tag)
        table = central_window_growth(op, n_list, rng_seed=k)
        reference = _descent_reference(op, n_list, rng_seed=k)
        for N, g in table.items():
            assert 1.0 <= g.lower <= g.value <= reference[N] * (1.0 + 1e-9)
            assert g.value == pytest.approx(_growth_objective_at(op, N, g.w), rel=1e-12)
            assert np.linalg.norm(g.w, ord={L1: 1, L2: 2, LINF: np.inf}[tag]) == pytest.approx(1.0)
            if tag == LINF:
                assert _is_closed(g)
            opened += not _is_closed(g)
    if tag != LINF:
        # some brackets stay open, so the descent runs
        assert opened


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("lam", [0.4, -2.5j])
def test_window_growth_of_a_scalar_is_exact_without_a_solve(tag, lam, monkeypatch):
    def no_empty_solve(A, e, tag):
        assert A.shape[-1] > 0
        return min_max_norm(A, e, tag)

    monkeypatch.setattr(expansivity, "min_max_norm", no_empty_solve)
    table = central_window_growth(DenseOp([[lam]], tag), (1, 2, 4))
    for N, g in table.items():
        exact = max(abs(lam) ** N, abs(lam) ** -N)
        assert g.value == pytest.approx(exact, rel=1e-12)
        assert g.lower == g.value


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("matrix", [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]])
def test_window_growth_of_a_singular_matrix(tag, matrix):
    # v with L v = 0 keeps every forward power at or below ||v||: exactly 1
    op = DenseOp(matrix, tag)
    assert not op.invertible()
    for g in central_window_growth(op, (1, 2, 4)).values():
        assert g.lower == pytest.approx(1.0, rel=1e-12)
        assert g.value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_window_growth_on_large_powers_stays_a_bracket(tag):
    # powers up to 1e160, whose squares overflow unless the solves are scaled
    # (a RuntimeWarning fails the test too)
    op = DenseOp([[1e40, 3e39], [-2e39, 1e40]], tag)
    table = central_window_growth(op, (4,))
    for N, g in table.items():
        assert 1.0 <= g.lower <= g.value < math.inf
        assert g.value == pytest.approx(_growth_objective_at(op, N, g.w), rel=1e-9)
