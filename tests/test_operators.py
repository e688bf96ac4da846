import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindyn import (
    L1,
    L2,
    LINF,
    CompositionOp,
    DenseOp,
    DiagonalOp,
    KindMismatch,
    NonFinite,
    NotInvertible,
    ShiftOp,
    SparseBiSeq,
    op_from_config,
    op_to_config,
    operator_report,
)
from lindyn.gallery import shifted_weighted_contraction
from lindyn.operators import (
    ApproachOneWeights,
    BackwardScaledOp,
    InverseWeights,
    SignWeights,
    TableWeights,
    monomial_power_sup,
    scalar_from_json,
)
from lindyn.errors import ConfigInvalid

from families import late_tails

W, R, COMP, SPLIT = shifted_weighted_contraction()


def e(k, tag=L1, value=1.0):
    return SparseBiSeq.basis(k, tag, value)


def test_shift_moves_support_down():
    assert ShiftOp(1, L1).apply(e(0)).entries == {-1: 1.0}
    assert ShiftOp(-2, L1).apply(e(0)).entries == {2: 1.0}


def test_weighted_composition_powers_exact():
    # weights are 1/2 at indices <= 0 and 2 above, shift is one step down,
    # so the forward orbit of e_0 picks up only the 1/2 side
    assert COMP.apply_power(3, e(0)).entries == {-3: 0.125}
    assert COMP.inverse().apply_power(3, e(0)).entries == {3: 0.125}
    assert COMP.apply_power(-3, e(0)).entries == {3: 0.125}
    # the crossing step: e_1 sits on the expanding side, lands on e_0
    assert COMP.apply(e(1)).entries == {0: 2.0}


def test_power_norm_exact_values():
    # ||L^3|| is the best product of three consecutive weights, 2*2*2
    assert COMP.power_norms()(3) == 8.0
    assert COMP.operator_norm() == 2.0
    assert COMP.inverse().operator_norm() == 2.0
    assert COMP.power_norms()(0) == 1.0


def test_monomial_composition_shift():
    mono = COMP.monomial
    assert mono is not None
    assert mono.shift == -1
    assert monomial_power_sup(mono, 1) == 2.0
    # restricted sup over the contracting side only
    assert monomial_power_sup(mono, 1, None, 0) == 0.5


def test_dense_op_apply_and_powers():
    m = DenseOp([[0.5, 0.0], [0.0, 2.0]], LINF)
    from lindyn import DenseVector

    v = DenseVector([1.0, 1.0], LINF)
    assert np.allclose(m.apply_power(4, v).coords, [0.0625, 16.0])
    assert m.power_norms()(4) == 16.0
    assert m.operator_norm() == 2.0


def test_dense_op_dim_guard():
    with pytest.raises(ValueError):
        DenseOp(np.eye(33), LINF)
    with pytest.raises(Exception):
        DenseOp([[1.0, 2.0]], LINF)  # not square


def test_kind_and_tag_mismatch():
    with pytest.raises(KindMismatch):
        W.apply(e(0, tag=L2))
    with pytest.raises(KindMismatch):
        CompositionOp([ShiftOp(1, L1), ShiftOp(1, L2)])


def test_approach_one_weights_not_invertible_sup():
    op = DiagonalOp(ApproachOneWeights(), L1)
    assert op.operator_norm() == 1.0
    # weight at k is -(|k|+1)/(|k|+2): moduli rise to 1 without reaching it
    assert op.apply(e(0)).entries == {0: -0.5}
    assert op.invertible()


def test_backward_scaled_not_invertible():
    from lindyn import BackwardScaledOp

    op = BackwardScaledOp(2.0, L2)
    assert op.apply(e(1, L2)).entries == {0: 2.0}
    assert op.apply(e(0, L2)).is_zero()
    assert not op.invertible()
    with pytest.raises(NotInvertible):
        op.inverse()
    with pytest.raises(KindMismatch):
        op.apply(e(-1, L2))


def test_table_weights_inverse():
    rule = TableWeights.from_mapping({0: 3.0}, default=1.0)
    op = DiagonalOp(rule, L1)
    inv = op.inverse()
    x = SparseBiSeq({0: 1.0, 5: 2.0}, L1)
    assert inv.apply(op.apply(x)).entries == x.entries


def test_inverse_of_a_zero_tail_is_refused():
    # weights 0 on indices <= 0: the reciprocal weights are unbounded
    rule = InverseWeights(SignWeights(neg_and_zero=0.0, pos=2.0))
    with pytest.raises(NotInvertible):
        DiagonalOp(rule, L1)
    with pytest.raises(NotInvertible):
        DiagonalOp(SignWeights(neg_and_zero=0.0, pos=2.0), L1).inverse()


def test_inverse_of_a_zero_feature_weight_is_refused():
    # a zero weight at a feature index, not a tail: no reciprocal exists
    with pytest.raises(NotInvertible):
        DiagonalOp(InverseWeights(TableWeights.from_mapping({0: 0.0}, 1.0)), "l1").operator_norm()


def test_operator_report_radius_below_norm():
    rep = operator_report(COMP)
    assert rep.op_norm == 2.0
    assert rep.inv_norm == 2.0
    # the weights tend to 1/2 on the left and 2 on the right, and L^n e_k
    # for k far right has norm 2^n: r(L) is the right tail's modulus
    assert rep.spectral_radius == 2.0


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_sequence_radii_are_the_tail_moduli(tag):
    op = late_tails(tag)
    assert op.spectral_radius() == 1.5
    assert operator_report(op).spectral_radius == 1.5
    # shift 0: the largest weight modulus, attained or approached
    assert DiagonalOp(TableWeights.from_mapping({3: -4.0}, 0.5), tag).spectral_radius() == 4.0
    assert DiagonalOp(ApproachOneWeights(), tag).spectral_radius() == 1.0
    assert BackwardScaledOp(0.6, tag).spectral_radius() == 0.6


def test_config_round_trip():
    for op in (W, R, COMP, DenseOp([[0.0, -1.0], [1.0, 0.0]], L2)):
        cfg = op_to_config(op)
        rebuilt = op_from_config(cfg)
        assert op_to_config(rebuilt) == cfg
        assert rebuilt.norm_tag == op.norm_tag


def test_config_round_trip_every_kind_and_rule():
    rules = (
        SignWeights(neg_and_zero=0.5, pos=2.0),
        TableWeights.from_mapping({-1: 3.0, 2: 0.25 + 1j}, default=1.0),
        ApproachOneWeights(),
    )
    ops = [DiagonalOp(rule, L1) for rule in rules] + [
        DenseOp([[2.0, 1.0j], [0.0, 0.5]], LINF),
        ShiftOp(-2, L2),
        BackwardScaledOp(2.0 - 1.0j, L1),
        CompositionOp([ShiftOp(1, L1), DiagonalOp(rules[1], L1)]),
    ]
    for op in ops:
        cfg = op_to_config(op)
        rebuilt = op_from_config(cfg)
        assert type(rebuilt) is type(op)
        assert rebuilt.norm_tag == op.norm_tag
        assert op_to_config(rebuilt) == cfg
        if isinstance(op, DiagonalOp):
            assert rebuilt.rule == op.rule


def test_inverse_weights_are_refused_as_config():
    inv = DiagonalOp(TableWeights.from_mapping({0: 3.0}, default=1.0), L1).inverse()
    with pytest.raises(ConfigInvalid) as exc:
        op_to_config(inv)
    assert exc.value.code == "CONFIG_INVALID"


def test_dense_composition_refuses_an_overflowing_product():
    big, nil = DenseOp([[0.0, 0.0], [1e308, 0.0]], L1), DenseOp([[0.0, 2.0], [0.0, 0.0]], L1)
    op = CompositionOp([big, nil])
    with pytest.raises(NonFinite):
        op.dense_matrix()


def test_config_errors_carry_location():
    with pytest.raises(ConfigInvalid):
        op_from_config({"kind": "dense", "matrix": [[1.0]]})  # no norm
    with pytest.raises(ConfigInvalid) as exc:
        op_from_config({"kind": "nope", "norm": L1})
    assert "kind" in exc.value.data["location"]
    with pytest.raises(ConfigInvalid):
        op_from_config({"kind": "shift", "offset": True, "norm": L1})


def test_scalar_from_json_shapes():
    assert scalar_from_json(2, "p") == 2.0 + 0.0j
    assert scalar_from_json([0.0, 1.0], "p") == 1.0j
    with pytest.raises(ConfigInvalid):
        scalar_from_json(True, "p")
    with pytest.raises(ConfigInvalid):
        scalar_from_json("x", "p")


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.floats(-100, 100), max_size=5),
    st.integers(1, 4),
)
def test_apply_power_matches_repeated_apply(entries, n):
    x = SparseBiSeq(entries, L1)
    out = x
    for _ in range(n):
        out = COMP.apply(out)
    assert COMP.apply_power(n, x).entries == out.entries


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.floats(-100, 100), max_size=5))
def test_operator_norm_dominates_samples(entries):
    x = SparseBiSeq(entries, L1)
    bound = COMP.operator_norm() * x.norm()
    assert COMP.apply(x).norm() <= bound * (1.0 + 1e-12) + 1e-15
