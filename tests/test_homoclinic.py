import pytest

from lindyn import (
    L1,
    CoordinateSplit,
    DiagonalOp,
    NotAChain,
    NotCertified,
    NotHomoclinic,
    SparseBiSeq,
    chain_combine,
    chain_scale,
    homoclinic_core_approximate,
    homoclinic_core_member,
    homoclinic_dichotomy,
    is_homoclinic,
    pseudo_orbit,
)
from lindyn.gallery import shifted_weighted_contraction
from lindyn.operators import SignWeights
from lindyn.shadowing import max_defect

W, R, COMP, SPLIT = shifted_weighted_contraction()


def e(k, value=1.0):
    return SparseBiSeq.basis(k, L1, value)


# finite tail of the canonical homoclinic profile: entries 2^-j at -j
def decay_profile(depth=20):
    out = SparseBiSeq.zero(L1)
    for j in range(depth):
        out = out + e(-j, 2.0**-j)
    return out


def test_basis_point_is_homoclinic():
    ev = is_homoclinic(COMP, e(0), horizon=40)
    assert ev.verdict
    # both orbit tails decay exactly geometrically
    assert ev.forward_decay[-1] == 2.0**-40
    assert ev.backward_decay[-1] == 2.0**-40


def test_expanding_basis_directions_are_not_homoclinic():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    ev = is_homoclinic(op, e(0), horizon=30)
    # forward decays but backward blows up as 2^n
    assert not ev.verdict
    assert ev.backward_decay[-1] == 2.0**30


def test_core_membership_exact_support():
    x = e(0) + e(1, 0.5)
    assert homoclinic_core_member(COMP, SPLIT, x, n=1, m=1)
    # at n=0 the backward point is x itself, which still touches S
    assert not homoclinic_core_member(COMP, SPLIT, x, n=0, m=1)


def test_core_approximants_exact_for_crossing_vector():
    x = e(0) + e(1, 0.5)
    approx = homoclinic_core_approximate(COMP, SPLIT, x, n=1)
    # the split at distance 1 is exact: both remainders vanish identically
    assert approx.stable_remainder == 0.0
    assert approx.unstable_remainder == 0.0
    assert (approx.unstable_approx - x).norm() == 0.0


def test_core_approximants_decay_profile():
    prof = decay_profile()
    # the profile needs a longer horizon: its backward norm is 2^(19-n)
    for n in (3, 6):
        approx = homoclinic_core_approximate(COMP, SPLIT, prof, n=n, horizon=64)
        expected = sum(2.0**-j for j in range(n, 20))  # exact binary sum
        assert approx.stable_remainder == expected


def test_core_approximate_refuses_non_homoclinic():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    with pytest.raises(NotHomoclinic):
        homoclinic_core_approximate(op, CoordinateSplit(0, L1), e(0), n=2)


def test_dichotomy_finds_witness_for_weighted_shift():
    rep = homoclinic_dichotomy(COMP, SPLIT)
    assert rep.verdict == "NontrivialHomoclinic"
    assert rep.witness is not None
    assert rep.evidence.verdict
    assert rep.checked >= 1


def test_dichotomy_refuses_on_hyperbolic_diagonal():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    with pytest.raises(NotCertified):
        homoclinic_dichotomy(op, CoordinateSplit(0, L1), index_range=8)


def test_chain_scale_scales_defect():
    po = pseudo_orbit(COMP, 0, [e(0), COMP.apply(e(0))], 0.0)
    scaled = chain_scale(po, -2.0)
    assert scaled.delta == 0.0
    assert scaled.points[0].entries == {0: -2.0}


def test_chain_combine_splices_through_zero():
    delta = 1e-2
    c1 = [e(0, 0.4 * delta)]
    c2 = [e(1, 0.4 * delta)]
    combined = chain_combine(COMP, [c1, c2], delta)
    assert combined.delta == delta
    assert max_defect(COMP, combined) <= delta
    # zero padding sits between the pieces
    assert any(p.is_zero() for p in combined.points)


def test_chain_combine_names_bad_chain():
    delta = 1e-2
    bad = [e(0), e(0)]  # internal defect about 1.5
    with pytest.raises(NotAChain) as exc:
        chain_combine(COMP, [[e(0, 0.1 * delta)], bad], delta)
    assert exc.value.data["index"] == 1


def test_chain_combine_rejects_wide_junction():
    delta = 1e-2
    big = [e(1, 10.0 * delta)]  # maps to 20 delta at the junction
    with pytest.raises(NotAChain) as exc:
        chain_combine(COMP, [big, [e(0, 0.1 * delta)]], delta)
    assert exc.value.data["index"] == -1
