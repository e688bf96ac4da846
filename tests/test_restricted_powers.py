"""The memoized power-norm sequences against the per-n formulas they replace.

The reference functions below are the former per-n code: every power
rebuilt its invariants and every weight product ran from scratch. On
coordinate splits and coordinate-axes spectral sides the sequences must give
the same floats, bit for bit, whatever order n comes in. On other dense
sides the Green's-function terms ||L^n P_S|| and ||L^-n P_U|| replaced the
eigenbasis formulas, which the references compute from np.linalg.eig: they
must bound every restricted power from above and never give a larger
shadowing upper bound than the old formulas did.
"""

import math
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from lindyn import (
    L1,
    L2,
    LINF,
    BackwardScaledOp,
    CompositionOp,
    CoordinateSplit,
    DenseOp,
    DiagonalOp,
    KindMismatch,
    NonFinite,
    NotCertified,
    ShiftOp,
    classify,
    shad_bounds,
    spectral_split,
    verify_contractive_sum,
)
from lindyn import splitting
from lindyn.linalg import array_norm, mat_norm, mat_norms
from lindyn.operators import (
    ApproachOneWeights,
    InverseWeights,
    MatrixPowers,
    MonomialPowers,
    SignWeights,
    TableWeights,
    _candidate_anchors,
    monomial_power_sup,
)
from lindyn.sampling import random_margin_matrix, rng_from_seed
from lindyn.shadowing import SERIES_TAIL, _sum_until_tail
from lindyn.splitting import (
    RestrictedPowers,
    SpectralSplit,
    resolvent_norm_S,
    resolvent_norm_U_inv,
)

from families import exact_linf_constant, jordan_family

N = 24


def check_orders(make_sequence, want):
    """A fresh sequence per order, asked for n = 0..N rising, rising twice
    over one object, and falling, against want[n]."""
    ns = range(len(want))
    rising = make_sequence()
    assert_same_floats([rising(n) for n in ns], want)
    assert_same_floats([rising(n) for n in ns], want)
    falling = make_sequence()
    assert_same_floats([falling(n) for n in reversed(ns)], want[::-1])


def ref_product_abs(mono, j, n):
    p = 1.0
    for i in range(n):
        p *= abs(mono.coeff(j + i * mono.shift))
    return p


def ref_power_sup(mono, n, lo=None, hi=None):
    if n == 0:
        return 1.0
    cands, into_left, into_right = _candidate_anchors(mono, n, lo, hi)
    best = 0.0
    for j in cands:
        best = max(best, ref_product_abs(mono, j, n))
    if into_left:
        best = max(best, mono.left_limit_abs**n)
    if into_right:
        best = max(best, mono.right_limit_abs**n)
    return best


def eigen_side(op, side):
    """The eigenvectors and eigenvalues of a dense side, from np.linalg.eig,
    and the coordinate axes spanning it when each eigenvector is one axis
    (None otherwise)."""
    lam, V = np.linalg.eig(op.dense_matrix())
    keep = np.abs(lam) < 1.0 if side == "S" else np.abs(lam) > 1.0
    V, lam = V[:, keep], lam[keep]
    nonzero = np.abs(V) > 1e-12 * np.abs(V).max(axis=0, initial=0.0)
    axes = [int(np.argmax(col)) for col in nonzero.T]
    one_each = (nonzero.sum(axis=0) == 1).all() and len(set(axes)) == len(axes)
    return V, lam, tuple(axes) if one_each else None


def ref_restricted_power(op, split, n, side, inverse):
    if isinstance(split, SpectralSplit):
        V, lam, axes = eigen_side(op, side)
        if V.shape[1] == 0:
            return 0.0
    if n == 0:
        return 1.0
    if isinstance(split, CoordinateSplit):
        base = op.inverse() if inverse else op
        mono = base.monomial
        if side == "S":
            return ref_power_sup(mono, n, None, split.cutoff)
        return ref_power_sup(mono, n, split.cutoff + 1, None)
    matrix = op.dense_matrix()
    if inverse:
        matrix = np.linalg.inv(matrix)
        lam = 1.0 / lam
    if V.shape[1] == matrix.shape[0]:
        return mat_norm(np.linalg.matrix_power(matrix, n), split.norm_tag)
    if axes is not None:
        sub = matrix[np.ix_(axes, axes)]
        return mat_norm(np.linalg.matrix_power(sub, n), split.norm_tag)
    scaled = V * (lam**n)[None, :]
    if split.norm_tag == L2:
        C = np.linalg.pinv(V) @ np.linalg.qr(V)[0]
        return float(np.linalg.norm(scaled @ C, 2))
    return mat_norm(scaled, split.norm_tag) * mat_norm(np.linalg.pinv(V), split.norm_tag)


def assert_same_floats(got, want):
    assert [x.hex() for x in got] == [x.hex() for x in want]


RULES = {
    "sign": SignWeights(neg_and_zero=0.5, pos=3.0),
    "sign_complex": SignWeights(neg_and_zero=0.4j, pos=-2.5),
    "table": TableWeights.from_mapping({-2: 3.0, 0: 0.1, 4: 2.0}, 0.7),
    "approach_one": ApproachOneWeights(),
    "inverse": InverseWeights(TableWeights.from_mapping({-1: 0.3, 3: 4.0}, 1.25)),
}


def sequence_ops(rule, tag):
    d = DiagonalOp(rule, tag)
    return {
        "diag": d,
        "shift1": CompositionOp([ShiftOp(1, tag), d]),
        "shift2": CompositionOp([ShiftOp(2, tag), d]),
        "composition": CompositionOp([ShiftOp(1, tag), d, ShiftOp(-2, tag), d, ShiftOp(2, tag)]),
        "backward_scaled": CompositionOp([BackwardScaledOp(0.6, tag), d]),
    }


@pytest.mark.parametrize("rule", RULES)
def test_monomial_powers_match_per_n_products(rule):
    for op in sequence_ops(RULES[rule], L1).values():
        mono = op.monomial
        for lo, hi in ((None, None), (None, 0), (1, None), (-3, 5)):
            want = [ref_power_sup(mono, n, lo, hi) for n in range(N + 1)]
            check_orders(lambda: MonomialPowers(mono, lo, hi).sup, want)
            # the per-n API builds a fresh evaluator for every n
            assert_same_floats([monomial_power_sup(mono, n, lo, hi) for n in range(N + 1)], want)


@pytest.mark.parametrize("tag", [L1, LINF])
@pytest.mark.parametrize("rule", RULES)
def test_coordinate_sequences_match_old_formula(rule, tag):
    for op in sequence_ops(RULES[rule], tag).values():
        for cutoff in (-1, 2):
            split = CoordinateSplit(cutoff=cutoff, norm_tag=tag)
            sides = (("S", False), ("U", True)) if op.invertible() else (("S", False),)
            for side, inverse in sides:
                want = [ref_restricted_power(op, split, n, side, inverse) for n in range(N + 1)]
                check_orders(lambda: RestrictedPowers(op, split, side), want)


def dense_cases():
    skew = [[1.5, 1.0, 0.2], [0.0, 1.0 / 3.0, 0.4], [0.1, 0.0, 0.6]]
    return {
        # every eigenvalue stable: the S side spans the space, U is empty
        "full_side": DenseOp([[0.5, 0.3], [0.0, 0.25]], L1),
        "axes": DenseOp([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]], LINF),
        "l2_basis": DenseOp(skew, L2),
        "pinv_l1": DenseOp(skew, L1),
        "pinv_linf": DenseOp(skew, LINF),
    }


@pytest.mark.parametrize("case", ["axes"])
def test_dense_sequences_match_old_formula(case):
    # on coordinate axes the side projection has norm 1 and every power is
    # exact in floating point, so the Green's terms are the old values
    op = dense_cases()[case]
    split = spectral_split(op)
    for side, inverse in (("S", False), ("U", True)):
        want = [ref_restricted_power(op, split, n, side, inverse) for n in range(N + 1)]
        check_orders(lambda: RestrictedPowers(op, split, side), want)
        # a fresh sequence asked for one term gives the same term
        assert_same_floats([RestrictedPowers(op, split, side)(n) for n in range(N + 1)], want)


def test_dense_branches_are_the_ones_named():
    # the cases cover every branch of the old formula in ref_restricted_power
    cases = dense_cases()
    full = cases["full_side"]
    assert eigen_side(full, "S")[0].shape[1] == full.dim and eigen_side(full, "U")[0].size == 0
    assert sorted(eigen_side(cases["axes"], "S")[2]) == [0, 2]
    for name in ("l2_basis", "pinv_l1", "pinv_linf"):
        assert eigen_side(cases[name], "S")[2] is None and eigen_side(cases[name], "U")[2] is None


def side_growth(op, side, n, rng):
    """||L^n x|| / ||x|| on S, or ||L^-n x|| / ||x|| on U, at a random x in
    the side, through the side's eigenvectors."""
    V, lam, _ = eigen_side(op, side)
    lam = lam if side == "S" else 1.0 / lam
    c = rng.standard_normal(V.shape[1]) + 1j * rng.standard_normal(V.shape[1])
    return array_norm(V @ (lam**n * c), op.norm_tag) / array_norm(V @ c, op.norm_tag)


def check_green_terms(op, split, rng):
    """Each term bounds the side's powers and is at most ||P_side|| times
    the old term; the sequence gives the same floats in every order."""
    for side, inverse, P in (("S", False, split.P_S), ("U", True, split.P_U)):
        powers = RestrictedPowers(op, split, side)
        got = [powers(n) for n in range(N + 1)]
        check_orders(lambda: RestrictedPowers(op, split, side), got)
        if (split.Q_S if side == "S" else split.Q_U).shape[1] == 0:
            assert got == [0.0] * (N + 1)
            continue
        p_norm = mat_norm(P, split.norm_tag)
        assert got[0] == p_norm
        for n in range(1, N + 1):
            old = ref_restricted_power(op, split, n, side, inverse)
            assert got[n] <= p_norm * old * (1.0 + 1e-12)
            for _ in range(4):
                assert side_growth(op, side, n, rng) <= got[n] * (1.0 + 1e-12)


@pytest.mark.parametrize("case", ["full_side", "axes", "l2_basis", "pinv_l1", "pinv_linf"])
def test_dense_terms_bound_the_side_powers(case):
    op = dense_cases()[case]
    check_green_terms(op, spectral_split(op), rng_from_seed(7))


def old_upper(op, split):
    """The former shad_bounds upper, ||P_S|| sum_{n>=0} ||L^n|_S|| +
    ||P_U|| sum_{n>=1} ||L^-n|_U||, with the old per-n formula as terms."""
    total = 0.0
    for side, start, P in (("S", 0, split.P_S), ("U", 1, split.P_U)):
        series, _ = _sum_until_tail(
            partial(ref_restricted_power, op, split, side=side, inverse=side == "U"),
            start,
            SERIES_TAIL,
        )
        total += mat_norm(P, split.norm_tag) * series
    return total


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_dense_upper_never_exceeds_the_old_formula(tag):
    for seed in range(24):
        rng = rng_from_seed(900 + seed)
        op = DenseOp(random_margin_matrix(2 + seed % 4, rng, margin=0.05), tag)
        split = spectral_split(op)
        check_green_terms(op, split, rng)
        assert shad_bounds(op, split).upper <= old_upper(op, split) * (1.0 + 1e-12)


@pytest.mark.parametrize("basis, seed", [("coordinates", 41), ("permuted", 41), ("orthogonal", 43)])
def test_jordan_family_is_bounded_above(basis, seed):
    # the eigenbasis of a Jordan block is singular to rounding: the old pinv
    # formula came out as low as 1/20 of the exact constant, and in a random
    # orthogonal basis the eigenvector projection was off by up to 4e-8; the
    # sign-function projection needs no eigenvectors, so every draw gets its
    # exact side and an upper bound at or above the exact constant
    for M, P_S in jordan_family(basis, 100, seed):
        op = DenseOp(M, LINF)
        split = spectral_split(op)
        assert np.abs(split.P_S - P_S).max() <= 1e-12
        assert shad_bounds(op, split).upper >= exact_linf_constant(M, P_S)


def test_sequence_refuses_a_non_monomial_operator_only_past_n0():
    split = CoordinateSplit(cutoff=0, norm_tag=L1)
    powers = RestrictedPowers(DenseOp([[0.5]], L1), split, "S")
    assert powers(0) == 1.0
    with pytest.raises(KindMismatch):
        powers(1)


@pytest.mark.parametrize("tag", [L1, LINF])
@pytest.mark.parametrize("a, b", [(0.5, 3.0), (0.2, 1.6), (0.65, 4.0)])
def test_weighted_shift_bounds_match_closed_forms(tag, a, b):
    # R o W with W = diag(a on k <= 0, b on k >= 1) and R the unit left
    # shift: the stable series sums a^k, the unstable one b^-k, and the
    # resolvents on the two sides attain 1/(1-a) and 1/(b-1) under l1 and
    # linf alike
    op = CompositionOp([ShiftOp(1, tag), DiagonalOp(SignWeights(neg_and_zero=a, pos=b), tag)])
    split = CoordinateSplit(cutoff=0, norm_tag=tag)
    bounds = shad_bounds(op, split)
    assert bounds.upper == pytest.approx(1.0 / (1.0 - a) + 1.0 / (b - 1.0), rel=1e-9)
    assert bounds.lower == pytest.approx(max(1.0 / (1.0 - a), 1.0 / (b - 1.0)), rel=1e-9)
    assert resolvent_norm_S(op, split) == pytest.approx(1.0 / (1.0 - a), rel=1e-9)
    assert resolvent_norm_U_inv(op, split) == pytest.approx(1.0 / (b - 1.0), rel=1e-9)


class CountingWeights:
    """A weight rule that counts how often its weights are read, and keeps
    the index of each read."""

    def __init__(self, base):
        self.base = base
        self.read_at = []

    def value(self, k):
        self.read_at.append(k)
        return self.base.value(k)

    reads = property(lambda self: len(self.read_at))
    features = property(lambda self: self.base.features)
    limits = property(lambda self: self.base.limits)


def test_linf_probe_walks_only_inside_the_side():
    # under linf the window probe once walked anchors out of their side, into
    # the other side's weights, and so ran to its 512 cap: about ten times
    # the weight reads of l1 for the same bounds
    reads = {}
    for tag in (L1, LINF):
        rule = CountingWeights(SignWeights(neg_and_zero=0.5, pos=3.0))
        op = CompositionOp([ShiftOp(1, tag), DiagonalOp(rule, tag)])
        bounds = shad_bounds(op, CoordinateSplit(cutoff=0, norm_tag=tag))
        assert (bounds.lower, bounds.upper) == (2.0, 2.5)
        reads[tag] = rule.reads
    assert 0 < reads[LINF] <= reads[L1]


def test_diagonal_invertibility_reads_the_weights_once():
    # each invertible() call read the weights again, twelve reads a call on
    # R o W, and inverse() asks it once more
    rule = CountingWeights(SignWeights(neg_and_zero=0.5, pos=3.0))
    op = CompositionOp([ShiftOp(1, LINF), DiagonalOp(rule, LINF)])
    assert op.invertible()
    assert rule.reads > 0
    rule.read_at.clear()
    assert op.invertible() and op.factors[1].invertible()
    op.inverse()
    assert rule.reads == 0


def test_resolvent_sums_read_each_weight_once(monkeypatch):
    # the window probe and the anchor walk of one resolvent sum share one
    # table of |coeff|, so no weight is read twice within a call
    inner = splitting._monomial_geom_sum
    for tag in (L1, LINF):
        rule = CountingWeights(SignWeights(neg_and_zero=0.5, pos=3.0))
        counts = []

        def counted(*args, **kwargs):
            rule.read_at.clear()
            out = inner(*args, **kwargs)
            counts.append(Counter(rule.read_at))
            return out

        monkeypatch.setattr(splitting, "_monomial_geom_sum", counted)
        op = CompositionOp([ShiftOp(1, tag), DiagonalOp(rule, tag)])
        bounds = shad_bounds(op, CoordinateSplit(cutoff=0, norm_tag=tag))
        assert (bounds.lower, bounds.upper) == (2.0, 2.5)
        assert len(counts) >= 2 and all(counts)
        assert all(max(c.values()) == 1 for c in counts)


@pytest.mark.parametrize("tag", [L1, LINF])
def test_classify_then_bounds_take_each_weight_product_once(monkeypatch, tag):
    # classify's radii and series_constants read one RestrictedPowers per
    # side, held on the split, so the series sums the envelope's terms
    # instead of computing them again; the resolvent sums' window probes
    # (stay=True) keep their own tables and are left out of the count
    taken = []

    class CountedPowers(MonomialPowers):
        def products(self, n, stay=False):
            if not stay:
                taken.append((self.lo, self.hi, n))
            return super().products(n, stay)

    monkeypatch.setattr(splitting, "MonomialPowers", CountedPowers)
    op = CompositionOp([ShiftOp(1, tag), DiagonalOp(SignWeights(neg_and_zero=0.5, pos=3.0), tag)])
    split = CoordinateSplit(cutoff=0, norm_tag=tag)
    classify(op, split)
    assert {(lo, hi) for lo, hi, _ in taken} == {(None, 0), (1, None)}
    assert shad_bounds(op, split).upper == 2.5
    assert max(Counter(taken).values()) == 1


# ---------------------------------------------------------------------------
# Blocks against the per-term code they replace
# ---------------------------------------------------------------------------


def ref_power_norms(P, M, tag, top):
    """||X_n|| for n = 0..top, X_{n+1} = (P M) X_n, one mat_norm per term."""
    step, X = P @ M, P
    out = [mat_norm(P, tag)]
    for _ in range(top):
        X = step @ X
        out.append(mat_norm(X, tag))
    return out


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_stacked_norms_match_mat_norm(tag):
    rng = rng_from_seed(11)
    for side in range(1, 7):
        stack = rng.standard_normal((9, side, side)) + 1j * rng.standard_normal((9, side, side))
        stack *= rng.uniform(1e-3, 1e3, size=(9, 1, 1))
        assert_same_floats(mat_norms(stack, tag), [mat_norm(m, tag) for m in stack])


def test_green_terms_match_per_term_products():
    # 40 terms span the blocks of 4, 4, 8, 16 and 32 powers
    top = 40
    for seed in range(20):
        rng = rng_from_seed(300 + seed)
        op = DenseOp(random_margin_matrix(2 + seed % 5, rng, margin=0.05), (L1, L2, LINF)[seed % 3])
        split = spectral_split(op)
        for side, P, M in (
            ("S", split.P_S, op.dense_matrix()),
            ("U", split.P_U, op.inverse().dense_matrix()),
        ):
            if (split.Q_S if side == "S" else split.Q_U).size == 0:
                want = [0.0] * (top + 1)
            else:
                want = ref_power_norms(P, M, split.norm_tag, top)
            check_orders(lambda: RestrictedPowers(op, split, side), want)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_matrix_powers_look_ahead_past_an_overflow_quietly(tag):
    # the block after 1e200 overflows at its second power; reading the
    # first neither raises nor warns, and reading the overflowing power, or
    # any later one, is refused, still without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = MatrixPowers(np.eye(1), [[1e200]], tag)
        assert powers(1) == 1e200
        for n in (2, 2, 5):
            with pytest.raises(NonFinite, match="power 2 "):
                powers(n)
        assert powers(1) == 1e200


@pytest.mark.parametrize("tag", [L1, L2])
def test_power_norms_refuse_a_norm_past_the_float_range(tag):
    # both entries of the first power are finite, but its column sum and
    # its largest singular value pass the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = MatrixPowers(np.eye(2), [[1.5e308, 0.0], [1.5e308, 0.0]], tag)
        with pytest.raises(NonFinite, match="power 1 "):
            powers(1)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_contractive_sum_of_a_transient_contraction_keeps_its_gamma(tag):
    # ||L^n|| rises from 1 to about 79 before it decays, over about 400 terms
    M = np.array([[0.9, 25.0], [0.0, 0.85]])
    gamma, _ = _sum_until_tail(
        lambda n, terms=ref_power_norms(np.eye(2), M, tag, 2000): terms[n], 0, SERIES_TAIL
    )
    assert verify_contractive_sum(DenseOp(M, tag), trials=2).gamma.hex() == gamma.hex()


def ref_monomial_geom_sum(mono, lo, hi, tag, rows, from_one=False):
    """The per-anchor resolvent walk, one Python loop per anchor."""
    if rows and mono.shift != 0:
        rev = replace(
            mono,
            shift=-mono.shift,
            coeff=lambda j, _m=mono: _m.coeff(j - _m.shift),
            features=tuple(f + mono.shift for f in mono.features),
        )
        return ref_monomial_geom_sum(rev, lo, hi, tag, rows=False, from_one=from_one)
    for end, lim in ((lo, mono.left_limit_abs), (hi, mono.right_limit_abs)):
        if end is None and lim >= 1.0:
            raise NotCertified("tail of modulus >= 1")
    shift = mono.shift
    powers = MonomialPowers(mono, lo, hi)
    probe_n = 1
    while powers.sup(probe_n, stay=True) > 1e-16 and probe_n < 512:
        probe_n += 1
    cands, into_left, into_right = _candidate_anchors(mono, probe_n, lo, hi)
    best = 0.0
    for anchor in cands:
        total = 0.0
        term = 1.0
        k = 0
        while term > 1e-16 * max(1.0, total) and k < 10_000:
            landing = anchor + k * shift
            if (lo is not None and landing < lo) or (hi is not None and landing > hi):
                break
            if k > 0 or not from_one:
                total += term if tag != L2 else term * term
            term = term * abs(mono.coeff(anchor + k * shift))
            k += 1
        best = max(best, math.sqrt(total) if tag == L2 else total)
    for flag, lim in ((into_left, mono.left_limit_abs), (into_right, mono.right_limit_abs)):
        if flag and lim < 1.0:
            if tag == L2:
                start = lim * lim if from_one else 1.0
                best = max(best, math.sqrt(start / (1.0 - lim * lim)))
            else:
                best = max(best, (lim if from_one else 1.0) / (1.0 - lim))
    return best


def resolvent_outcome(fn, *args):
    try:
        return fn(*args).hex()
    except NotCertified:
        return "NotCertified"


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("rule", ["sign", "sign_complex", "table", "approach_one"])
def test_anchor_walk_matches_per_anchor_loop(rule, tag):
    ops = sequence_ops(RULES[rule], tag)
    for name in ("shift1", "shift2", "composition", "backward_scaled"):
        mono = ops[name].monomial
        for lo, hi in ((None, 0), (1, None), (-3, 5), (-20, 12)):
            for from_one in (False, True):
                args = (mono, lo, hi, tag, tag == LINF, from_one)
                want = resolvent_outcome(ref_monomial_geom_sum, *args)
                assert resolvent_outcome(splitting._monomial_geom_sum, *args) == want
