import pytest

from lindyn import (
    EXPANSIVE,
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
from lindyn.linalg import DenseVector
from lindyn.gallery import quarter_rotation, saddle, shifted_weighted_contraction

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
    assert table[0] == 1.0
    assert abs(table[1] - 2.0) < 1e-9
    assert abs(table[2] - 4.0) < 1e-9
    assert abs(table[4] - 16.0) < 1e-9


def test_window_growth_rotation_flat():
    table = central_window_growth(ROTATION, [1, 2, 4])
    for val in table.values():
        assert abs(val - 1.0) < 1e-9


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
    assert dict(rep.window_growth)[2] == pytest.approx(1.0, abs=1e-9)


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
