import numpy as np
import pytest

from lindyn import (
    L1,
    L2,
    LINF,
    CompositionOp,
    CoordinateSplit,
    DenseVector,
    DiagonalOp,
    NotAChain,
    NotCertified,
    NotHomoclinic,
    ShiftOp,
    SparseBiSeq,
    chain_combine,
    chain_scale,
    homoclinic_core_approximate,
    homoclinic_core_member,
    homoclinic_dichotomy,
    is_homoclinic,
    pseudo_orbit,
)
from lindyn.gallery import saddle, shifted_weighted_contraction
from lindyn.operators import ApproachOneWeights, SignWeights
from lindyn.shadowing import max_defect

from families import late_tails, random_monomial

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
    # both walk tails have modulus 1/2: L's runs left into weights 1/2, and
    # L^-1's right into weights 1/(1/alpha) = 1/2
    for x in (e(0), e(5, -3.0), e(-7) + e(2, 1j), decay_profile()):
        assert is_homoclinic(COMP, x) is True
    assert is_homoclinic(COMP, SparseBiSeq.zero(L1)) is True


def test_expanding_basis_directions_are_not_homoclinic():
    # shift 0: e_0 decays forward as 2^-n but grows backward as 2^n
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    assert is_homoclinic(op, e(0)) is False
    assert is_homoclinic(op, SparseBiSeq.zero(L1)) is True
    # L^-1's walk runs right into the weights 1/2 of L^-1, but L's runs
    # left into weights 2
    shifted = CompositionOp([ShiftOp(1, L1), DiagonalOp(SignWeights(neg_and_zero=2.0, pos=2.0), L1)])
    assert is_homoclinic(shifted, e(0)) is False


def test_a_dense_operator_has_only_the_trivial_homoclinic_point():
    op = saddle(L1)
    assert is_homoclinic(op, DenseVector([1.0, 0.0], L1)) is False
    assert is_homoclinic(op, DenseVector([0.0, 0.0], L1)) is True


def test_a_tail_of_modulus_one_is_refused():
    # weights rise to modulus 1: the walk's norms are 2 / (n + 2) forward,
    # but no limit decides that
    op = CompositionOp([ShiftOp(1, L1), DiagonalOp(ApproachOneWeights(), L1)])
    with pytest.raises(NotCertified, match="modulus 1"):
        is_homoclinic(op, e(0))
    # a tail of modulus 2 decides against decay, whatever the other one does
    grows = CompositionOp([ShiftOp(1, L1), DiagonalOp(SignWeights(neg_and_zero=2.0, pos=1.0), L1)])
    assert is_homoclinic(grows, e(0)) is False


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_features_past_any_horizon_do_not_make_a_homoclinic_point(tag):
    op, split = late_tails(tag), CoordinateSplit(0, tag)
    x = SparseBiSeq.basis(0, tag)
    assert op.apply_power(81, x).norm() == 2.0**-81
    assert is_homoclinic(op, x) is False
    with pytest.raises(NotCertified, match="modulus 1.5, L\\^-1's 0.666667"):
        homoclinic_dichotomy(op, split)
    with pytest.raises(NotHomoclinic):
        homoclinic_core_approximate(op, split, x, n=2)


def walk_ratio(op, x):
    """The norm ratio of one step of op's walk of the basis vector x, taken
    once the walk has passed every feature of op's weights."""
    mono = op.monomial
    edge = min(mono.features) if mono.shift < 0 else max(mono.features)
    while (x.support()[0] - edge) * mono.shift <= 0:
        x = op.apply(x)
    return op.apply(x).norm() / x.norm()


def test_homoclinic_verdicts_match_walks_past_the_features():
    for seed in range(30):
        tag = (L1, L2, LINF)[seed % 3]
        op, x = random_monomial(np.random.default_rng(700 + seed), tag), SparseBiSeq.basis(0, tag)
        ratios = (walk_ratio(op, x), walk_ratio(op.inverse(), x))
        # past the features each step multiplies the norm by the tail's limit modulus
        tails = (op.monomial.walk_limit_abs, op.inverse().monomial.walk_limit_abs)
        assert ratios == pytest.approx(tails, rel=1e-12)
        if max(ratios) > 1.0 + 1e-9:
            assert is_homoclinic(op, x) is False
        elif max(ratios) >= 1.0 - 1e-9:
            with pytest.raises(NotCertified):
                is_homoclinic(op, x)
        else:
            assert is_homoclinic(op, x) is True
            assert homoclinic_dichotomy(op, CoordinateSplit(0, tag)).witness.entries == {0: 1.0}


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
    for n in (3, 6):
        approx = homoclinic_core_approximate(COMP, SPLIT, prof, n=n)
        expected = sum(2.0**-j for j in range(n, 20))  # exact binary sum
        assert approx.stable_remainder == expected


def test_core_approximate_refuses_non_homoclinic():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    with pytest.raises(NotHomoclinic):
        homoclinic_core_approximate(op, CoordinateSplit(0, L1), e(0), n=2)


def test_dichotomy_finds_witness_for_weighted_shift():
    rep = homoclinic_dichotomy(COMP, SPLIT)
    assert rep.verdict == "NontrivialHomoclinic"
    assert rep.witness.entries == {0: 1.0}


def test_dichotomy_refuses_on_hyperbolic_diagonal():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    with pytest.raises(NotCertified, match="no walk moves"):
        homoclinic_dichotomy(op, CoordinateSplit(0, L1))


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
