import time

import numpy as np
import pytest

from lindyn import (
    GENERALIZED,
    HYPERBOLIC,
    L1,
    L2,
    LINF,
    UNDETERMINED,
    CircleEigenvalue,
    CoordinateSplit,
    DenseOp,
    DiagonalOp,
    HypothesisFailed,
    InvalidSplitting,
    KindMismatch,
    NotCertified,
    NotInvertible,
    ShiftOp,
    SparseBiSeq,
    classify,
    composition_gh_check,
    resolvent_norm_S,
    resolvent_norm_U_inv,
    shad_bounds,
    spectral_split,
)
from lindyn.gallery import (
    diagonal_sup_one,
    quarter_rotation,
    saddle,
    shifted_weighted_contraction,
)
from lindyn.operators import (
    ApproachOneWeights,
    BackwardScaledOp,
    CompositionOp,
    SignWeights,
    TableWeights,
)
from lindyn.sampling import random_margin_matrix, rng_from_seed
from lindyn.splitting import RestrictedPowers

# Upper triangular [[3/2, 1], [0, 1/3]]: stable eigenvector of 1/3 solves
# (7/6) v1 + v2 = 0, i.e. (-6/7, 1); unstable eigenvector of 3/2 is (1, 0).
# Writing x = a (1, 0) + b (-6/7, 1) gives b = x2, so the stable projector is
TRIANGULAR = [[1.5, 1.0], [0.0, 1.0 / 3.0]]
P_S_EXPECTED = np.array([[0.0, -6.0 / 7.0], [0.0, 1.0]])

W, R, COMP, CUT0 = shifted_weighted_contraction()


def test_spectral_split_projector_oracle():
    split = spectral_split(DenseOp(TRIANGULAR, LINF, invertible=True))
    assert np.allclose(split.P_S, P_S_EXPECTED, atol=1e-12)
    assert np.allclose(split.P_U, np.eye(2) - P_S_EXPECTED, atol=1e-12)
    # projector identities
    assert np.allclose(split.P_S @ split.P_S, split.P_S, atol=1e-12)
    assert np.allclose(split.P_S @ split.P_U, np.zeros((2, 2)), atol=1e-12)


def test_spectral_split_commutes_with_operator():
    m = np.array(TRIANGULAR)
    split = spectral_split(DenseOp(TRIANGULAR, LINF, invertible=True))
    # invariance: L P_S = P_S L P_S (S is L-invariant), same for U
    assert np.allclose(m @ split.P_S, split.P_S @ m @ split.P_S, atol=1e-12)
    assert np.allclose(m @ split.P_U, split.P_U @ m @ split.P_U, atol=1e-12)


def test_spectral_split_rejects_circle_spectrum():
    with pytest.raises(CircleEigenvalue):
        spectral_split(quarter_rotation())


def test_spectral_split_is_memoized_on_the_operator():
    # at the default gap one split, or one refusal, per operator, whose
    # matrix is read-only; another gap computes its own
    op = DenseOp(TRIANGULAR, LINF)
    split = spectral_split(op)
    assert spectral_split(op) is split
    assert spectral_split(op, 1e-3) is not split
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 2.0
    rotation = quarter_rotation()
    for _ in range(2):
        with pytest.raises(CircleEigenvalue):
            spectral_split(rotation)


def test_spectral_split_refuses_eigenvalues_rounded_across_the_circle():
    # a Jordan block at 0.99999 with coupling 1e7, in a rotated basis: its
    # computed eigenvalues split to about 0.957 and 1.043, while the sign
    # function puts both dimensions on the stable side
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    M = rot @ np.array([[0.99999, 1e7], [0.0, 0.99999]]) @ rot.T
    with pytest.raises(InvalidSplitting, match="rank 2, against 1 stable"):
        spectral_split(DenseOp(M, L2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_split_gates_a_projection_whose_norm_squared_overflows():
    # ||P_S|| is about 6.7e199: the residual gate once squared it into a
    # RuntimeWarning; the projection itself is exact
    split = spectral_split(DenseOp([[0.5, 1e200], [0.0, 2.0]], L2))
    assert split.P_S[0, 0] == 1.0 and (split.P_S[1] == 0.0).all()
    assert split.P_S[0, 1] == pytest.approx(-1e200 / 1.5, rel=1e-12)


def test_restricted_power_norms_exact_on_axes():
    op = saddle()
    split = spectral_split(op)
    for n in (1, 2, 5):
        assert RestrictedPowers(op, split, "S")(n) == 2.0 ** (-n)
        assert RestrictedPowers(op, split, "U")(n) == 2.0 ** (-n)


def test_restricted_power_norms_bound_skew_basis():
    # skew eigenbasis: the routine promises an upper bound within the basis
    # conditioning factor, and the right Gelfand limit
    op = DenseOp(TRIANGULAR, LINF, invertible=True)
    split = spectral_split(op)
    for n in (1, 2, 5):
        exact = 3.0 ** (-n)
        got = RestrictedPowers(op, split, "S")(n)
        assert exact - 1e-12 <= got <= 4.0 * exact
        exact_u = 1.5 ** (-n)
        got_u = RestrictedPowers(op, split, "U")(n)
        assert exact_u - 1e-12 <= got_u <= 4.0 * exact_u
    assert abs(RestrictedPowers(op, split, "S").radius() - 1.0 / 3.0) < 0.05
    assert abs(RestrictedPowers(op, split, "U").radius() - 2.0 / 3.0) < 0.05


def test_restricted_radii_saddle():
    op = saddle()
    split = spectral_split(op)
    assert abs(RestrictedPowers(op, split, "S").radius() - 0.5) < 1e-9
    assert abs(RestrictedPowers(op, split, "U").radius() - 0.5) < 1e-9


def test_resolvent_norms_saddle():
    # both sides restrict (L - I)^-1: 1/|1/2 - 1| = 2 on the stable line,
    # 1/|2 - 1| = 1 on the unstable one
    op = saddle()
    split = spectral_split(op)
    assert abs(resolvent_norm_S(op, split) - 2.0) < 1e-9
    assert abs(resolvent_norm_U_inv(op, split) - 1.0) < 1e-9


def test_resolvent_refuses_a_side_open_toward_a_unit_tail():
    # the weights' moduli rise to 1, so neither side's sum converges, and a
    # walk of every anchor to its term cap would take seconds
    op = CompositionOp([ShiftOp(1, L1), DiagonalOp(ApproachOneWeights(), L1)])
    split = CoordinateSplit(0, L1)
    start = time.perf_counter()
    for side in (resolvent_norm_S, resolvent_norm_U_inv):
        with pytest.raises(NotCertified, match="tail of modulus 1 >= 1"):
            side(op, split)
    assert time.perf_counter() - start < 1.0


def test_resolvent_refuses_a_unit_diagonal_weight():
    # I - L is singular on the tail of weights 1, so there is no resolvent
    op = DiagonalOp(TableWeights.from_mapping({0: 0.5}, 1.0), L1)
    with pytest.raises(NotCertified, match="equal to 1"):
        resolvent_norm_S(op, CoordinateSplit(0, L1))


def test_classify_saddle_hyperbolic():
    op = saddle()
    rep = classify(op, spectral_split(op))
    assert rep.klass == HYPERBOLIC
    assert rep.witness is None
    assert rep.r_S < 1.0 < 1.0 / rep.r_U_inv


def test_classify_weighted_shift_generalized():
    rep = classify(COMP, CUT0)
    assert rep.klass == GENERALIZED
    assert rep.witness is not None
    assert rep.witness.entries == {0: 1.0}


def test_classify_coordinate_hyperbolic_diagonal():
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    rep = classify(op, CoordinateSplit(cutoff=0, norm_tag=L1))
    assert rep.klass == HYPERBOLIC
    assert rep.witness is None
    assert abs(rep.r_S - 0.5) < 1e-12
    assert abs(rep.r_U_inv - 0.5) < 1e-12


def test_classify_sup_one_boundary_is_undetermined():
    op, split = diagonal_sup_one()
    rep = classify(op, split)
    assert rep.klass == UNDETERMINED
    assert abs(rep.r_S - 1.0) < 1e-9


def test_classify_rejects_upward_shift():
    # (L x)_k = x_{k-1} pushes support up and out of S
    with pytest.raises(InvalidSplitting):
        classify(ShiftOp(-1, L1), CoordinateSplit(cutoff=0, norm_tag=L1))


def test_classify_kind_mismatch():
    s = saddle()
    mismatches = [
        (s, CoordinateSplit(cutoff=0, norm_tag=LINF)),
        (COMP, spectral_split(s)),
        (DenseOp(s.matrix, L1), spectral_split(s)),
        # the norm tag is checked before invertibility
        (BackwardScaledOp(2.0, L1), CoordinateSplit(cutoff=0, norm_tag=LINF)),
    ]
    for op, split in mismatches:
        with pytest.raises(KindMismatch):
            classify(op, split)


def test_classify_refuses_a_non_invertible_operator():
    with pytest.raises(NotInvertible):
        classify(BackwardScaledOp(2.0, L1), CoordinateSplit(cutoff=0, norm_tag=L1))


def report_fields(rep):
    witness = None if rep.witness is None else rep.witness.entries
    return (
        rep.klass,
        rep.r_S,
        rep.r_U_inv,
        witness,
        rep.circle_gap,
    )


def test_classify_full_reports():
    # every field of the report, on both split types and every verdict path
    jordan = DenseOp([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 3.0]], LINF)
    diag = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), L1)
    cases = {
        "saddle": (saddle(), spectral_split(saddle())),
        # a defective stable side: the sign-function projection splits it
        "jordan": (jordan, spectral_split(jordan)),
        "shift": (COMP, CUT0),
        "diagonal": (diag, CoordinateSplit(cutoff=0, norm_tag=L1)),
        "sup_one": diagonal_sup_one(),
    }
    want = {
        "saddle": (HYPERBOLIC, 0.5, 0.5, None, 0.5),
        "jordan": (HYPERBOLIC, 0.5, 1.0 / 3.0, None, 0.5),
        "shift": (GENERALIZED, 0.5, 0.5, {0: 1.0}, 0.5),
        "diagonal": (HYPERBOLIC, 0.5, 0.5, None, 0.5),
        "sup_one": (UNDETERMINED, 1.0, 1.5, None, 0.0),
    }
    for name, (op, split) in cases.items():
        assert report_fields(classify(op, split)) == want[name], name
    op = DenseOp(random_margin_matrix(3, rng_from_seed(7)), L2)
    klass, r_S, r_U_inv, witness, gap = report_fields(classify(op, spectral_split(op)))
    assert (klass, witness) == (HYPERBOLIC, None)
    assert (r_S, r_U_inv, gap) == pytest.approx(
        (0.08969435910507796, 0.7203647771310131, 0.388185585617729), rel=1e-12
    )


def test_composition_certificate_weighted_shift():
    rep = composition_gh_check(W, R, CUT0)
    assert rep.klass == GENERALIZED
    assert rep.witness is not None
    assert rep.witness.entries == {0: 1.0}
    assert abs(rep.r_S - 0.5) < 1e-12
    assert abs(rep.r_U_inv - 0.5) < 1e-12


def test_composition_certificate_names_failed_hypothesis():
    bad_w = DiagonalOp(SignWeights(neg_and_zero=2.0, pos=0.5), L1)
    with pytest.raises(HypothesisFailed) as exc:
        composition_gh_check(bad_w, R, CUT0)
    assert exc.value.data["name"] in ("stable_contraction", "unstable_contraction")

    with pytest.raises(HypothesisFailed) as exc:
        composition_gh_check(W, ShiftOp(-1, L1), CUT0)
    assert exc.value.data["name"] == "R_stable_invariant"
    # factors of different norm tags do not compose
    with pytest.raises(KindMismatch, match="norm tag"):
        composition_gh_check(W, ShiftOp(1, L2), CUT0)


def test_composition_certificate_agrees_with_direct_route():
    cert = composition_gh_check(W, R, CUT0)
    direct = classify(COMP, CUT0)
    assert cert.klass == direct.klass
    diff = cert.witness - direct.witness
    assert diff.norm() < 1e-12


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_diagonal_resolvents_sum_each_weight_in_closed_form(tag):
    # a diagonal operator has no shift, so each side's resolvent is the
    # largest 1 / |1 - c| (from k = 0) or |c| / |1 - c| (from k = 1) over
    # its weights and tails: 1 / (1 - 1/2) on S and (1/2) / (1 - 1/2) on U
    op = DiagonalOp(SignWeights(neg_and_zero=0.5, pos=2.0), tag)
    split = CoordinateSplit(cutoff=0, norm_tag=tag)
    assert classify(op, split).klass == HYPERBOLIC
    bounds = shad_bounds(op, split)
    assert (bounds.lower, bounds.upper) == (2.0, 3.0)
    assert resolvent_norm_S(op, split) == 2.0
    assert resolvent_norm_U_inv(op, split) == 1.0


def _rotated_jordan(g, c):
    """R J R^T for J = [[g, c, 0], [0, g, 0], [0, 0, 0.3]] and R the
    rotation by 0.7 in the first two coordinates."""
    cos, sin = np.cos(0.7), np.sin(0.7)
    R = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
    return R @ np.array([[g, c, 0.0], [0.0, g, 0.0], [0.0, 0.0, 0.3]]) @ R.T


@pytest.mark.parametrize(
    "g, c, why",
    [
        (1 + 2e-5, 5e4, "the sign iteration meets a singular iterate"),
        (1 + 3e-5, 1e5, "the projection has rank 3, against 1 stable eigenvalues"),
    ],
)
def test_near_circle_refusals_say_the_split_is_ill_conditioned(g, c, why):
    # a Jordan block just outside the circle with a large coupling: its
    # Green's sum is near c / (g - 1)^2, past 1e14, and no split is trusted
    with pytest.raises(InvalidSplitting) as info:
        spectral_split(DenseOp(_rotated_jordan(g, c), L2))
    message = str(info.value)
    assert info.value.code == "INVALID_SPLITTING"
    assert message.startswith("the split is ill-conditioned near the unit circle")
    assert message.endswith(why)
    gap = float(message.split("the spectrum lies ")[1].split(" ")[0])
    assert 0.0 < gap < 1e-4
