"""Stable/unstable splittings and hyperbolicity classification.

A splitting decomposes the space as S + U with projections P_S, P_U. Dense
operators get spectral splittings built from eigendata; weighted-shift-family
operators on sequences get coordinate splittings cut at an index. The
classifier distinguishes four outcomes: Hyperbolic (both subspaces invariant
in both directions with contracting rates), GeneralizedHyperbolic (forward
invariance of S and backward invariance of U only, certified by a witness
vector in L(U) intersected with S when the inclusions are strict), Neither,
and Undetermined when a rate estimate sits within 1e-6 of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CircleEigenvalue,
    HypothesisFailed,
    InvalidSplitting,
    KindMismatch,
    NotCertified,
    NotInvertible,
)
from .linalg import (
    L2,
    DenseVector,
    SparseBiSeq,
    array_norm,
    check_norm_tag,
    dense_eig,
    mat_norm,
)
from .operators import (
    CompositionOp,
    DenseOp,
    LinOp,
    MonomialForm,
    MonomialPowers,
    _candidate_anchors,
    gelfand_envelope,
    monomial_form,
    monomial_power_sup,
)

DEFAULT_CIRCLE_GAP_TOL = 1e-6
UNDETERMINED_BAND = 1e-6
INVARIANCE_RESIDUAL = 1e-9
PROJECTION_RESIDUAL = 1e-10
DEFECTIVE_COND = 1e10


@dataclass(frozen=True)
class CoordinateSplit:
    """S = span{e_k : k <= cutoff}, U = span{e_k : k > cutoff}.

    memo holds work done once per operator on this split (shadowing keeps
    the classification and the series constants there).
    """

    cutoff: int
    norm_tag: str
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply_P_S(self, v: SparseBiSeq) -> SparseBiSeq:
        return v.restrict(lambda k: k <= self.cutoff)

    def apply_P_U(self, v: SparseBiSeq) -> SparseBiSeq:
        return v.restrict(lambda k: k > self.cutoff)


class SpectralSplit:
    """Eigenspace splitting of a dense operator.

    Carries the projections, per-side bases with their eigenvalues, and the
    eigenbasis condition number. When a side happens to be spanned by
    standard basis vectors the coordinate indices are recorded, which makes
    its restricted resolvent norm exact instead of a lower estimate. memo
    holds work done once per operator on this split, as on a CoordinateSplit.
    """

    __slots__ = (
        "norm_tag",
        "P_S",
        "P_U",
        "V_S",
        "lam_S",
        "V_U",
        "lam_U",
        "cond",
        "axes_S",
        "axes_U",
        "memo",
    )

    def __init__(self, norm_tag, P_S, P_U, V_S, lam_S, V_U, lam_U, cond):
        self.norm_tag = check_norm_tag(norm_tag)
        self.P_S = P_S
        self.P_U = P_U
        self.V_S = V_S
        self.lam_S = np.asarray(lam_S, dtype=complex)
        self.V_U = V_U
        self.lam_U = np.asarray(lam_U, dtype=complex)
        self.cond = float(cond)
        self.axes_S = _coordinate_axes(V_S)
        self.axes_U = _coordinate_axes(V_U)
        self.memo: dict = {}

    @property
    def dim(self) -> int:
        return int(self.P_S.shape[0])

    def apply_P_S(self, v: DenseVector) -> DenseVector:
        return DenseVector(self.P_S @ v.coords, self.norm_tag)

    def apply_P_U(self, v: DenseVector) -> DenseVector:
        return DenseVector(self.P_U @ v.coords, self.norm_tag)


Splitting = CoordinateSplit | SpectralSplit


def _coordinate_axes(V: np.ndarray) -> Optional[tuple[int, ...]]:
    if V.shape[1] == 0:
        return ()
    axes = []
    for col in V.T:
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            return None
        nz = np.nonzero(mags > 1e-12 * top)[0]
        if nz.size != 1:
            return None
        axes.append(int(nz[0]))
    if len(set(axes)) != len(axes):
        return None
    return tuple(axes)


def spectral_split(op: DenseOp, circle_gap_tol: float = DEFAULT_CIRCLE_GAP_TOL) -> SpectralSplit:
    """Split along eigenvalue moduli strictly inside/outside the unit circle.

    Raises CircleEigenvalue when any modulus is within circle_gap_tol of 1,
    because no modulus-based splitting is trustworthy there.
    """
    if not isinstance(op, DenseOp):
        raise KindMismatch("spectral splitting is defined for dense operators")
    pairs = dense_eig(op.matrix)
    for lam, _ in pairs:
        if abs(abs(lam) - 1.0) < circle_gap_tol:
            raise CircleEigenvalue(
                f"eigenvalue {lam:.12g} has modulus within {circle_gap_tol:g} of 1",
                eigenvalue=lam,
            )
    stable = [(lam, v) for lam, v in pairs if abs(lam) < 1.0]
    unstable = [(lam, v) for lam, v in pairs if abs(lam) > 1.0]
    d = op.dim
    V_S = (
        np.column_stack([v for _, v in stable])
        if stable
        else np.zeros((d, 0), dtype=complex)
    )
    V_U = (
        np.column_stack([v for _, v in unstable])
        if unstable
        else np.zeros((d, 0), dtype=complex)
    )
    V = np.column_stack([V_S, V_U]) if V_S.size or V_U.size else np.zeros((d, 0))
    if V.shape[1] != d:
        raise InvalidSplitting("eigenvectors do not span the space")
    cond = float(np.linalg.cond(V))
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        raise InvalidSplitting("eigenvectors do not span the space") from None
    k = V_S.shape[1]
    sel_S = np.zeros((d, d), dtype=complex)
    sel_S[:k, :k] = np.eye(k)
    P_S = V @ sel_S @ Vinv
    P_U = np.eye(d, dtype=complex) - P_S
    split = SpectralSplit(
        norm_tag=op.norm_tag,
        P_S=P_S,
        P_U=P_U,
        V_S=V_S,
        lam_S=np.array([lam for lam, _ in stable]),
        V_U=V_U,
        lam_U=np.array([lam for lam, _ in unstable]),
        cond=cond,
    )
    _check_projection_identities(split)
    return split


def _check_projection_identities(split: SpectralSplit) -> None:
    d = split.dim
    eye = np.eye(d)
    scale = max(1.0, split.cond)
    checks = (
        np.abs(split.P_S + split.P_U - eye).max(),
        np.abs(split.P_S @ split.P_S - split.P_S).max(),
        np.abs(split.P_S @ split.P_U).max(),
    )
    if max(checks) > PROJECTION_RESIDUAL * scale:
        raise InvalidSplitting(
            f"projection identities fail at {max(checks):.3g} (tol {PROJECTION_RESIDUAL:g})"
        )


# ---------------------------------------------------------------------------
# Restricted power norms
# ---------------------------------------------------------------------------


def _coordinate_monomial(op: LinOp) -> MonomialForm:
    mono = monomial_form(op)
    if mono is None:
        raise KindMismatch("coordinate splitting needs a weighted-shift-family operator")
    return mono


class _ReprojectedPowers:
    """n -> ||X_n|| for X_0 = P, X_{n+1} = (P M) X_n, which is M^n P when P
    projects onto an M-invariant side; projecting again at every step keeps
    rounding from exciting the other side."""

    def __init__(self, P: np.ndarray, M: np.ndarray, tag: str):
        self.step, self.X, self.tag = P @ M, P, tag
        self.norms = [mat_norm(P, tag)]

    def __call__(self, n: int) -> float:
        while len(self.norms) <= n:
            self.X = self.step @ self.X
            self.norms.append(mat_norm(self.X, self.tag))
        return self.norms[n]


class RestrictedPowers:
    """The Green's-function terms n -> ||L^n P_S|| (side "S") and
    n -> ||L^{-n} P_U|| (side "U").

    On a coordinate split the projections have norm 1 and the value is the
    exact restricted norm ||L^{+-n}|_side||, 1 at n = 0. On a spectral split
    it is the norm of the re-projected power (see _ReprojectedPowers), which
    bounds the restricted norm above and is the term the correction series
    multiplies each defect by; n = 0 gives ||P_side||. A spectral split whose
    eigenbasis condition number exceeds DEFECTIVE_COND is refused with
    NotCertified: its projections are not trustworthy. Values are memoized
    per n, and the side's invariants are computed once, at the first n >= 1
    on a coordinate split and at the first n on a spectral one.
    """

    def __init__(self, op: LinOp, split: Splitting, side: str):
        self.op, self.split, self.side = op, split, side
        self._values, self._term = {}, None
        if isinstance(split, CoordinateSplit):
            self._values[0] = 1.0
        elif (split.V_S if side == "S" else split.V_U).size == 0:
            # an empty side has norm 0 at every n, n = 0 included
            self._term = lambda n: 0.0

    def __call__(self, n: int) -> float:
        val = self._values.get(n)
        if val is None:
            if self._term is None:
                self._term = self._build_term()
            val = self._values[n] = self._term(n)
        return val

    def _build_term(self):
        op, split, side = self.op, self.split, self.side
        if isinstance(split, CoordinateSplit):
            mono = _coordinate_monomial(op.inverse() if side == "U" else op)
            lo, hi = (None, split.cutoff) if side == "S" else (split.cutoff + 1, None)
            return MonomialPowers(mono, lo, hi).sup
        if split.cond > DEFECTIVE_COND:
            raise NotCertified(
                f"eigenbasis condition number {split.cond:.3g} exceeds {DEFECTIVE_COND:g}; "
                "the side projections are not trustworthy"
            )
        matrix = op.dense_matrix()
        if side == "S":
            return _ReprojectedPowers(split.P_S, matrix, split.norm_tag)
        return _ReprojectedPowers(split.P_U, np.linalg.inv(matrix), split.norm_tag)

    def radius(self) -> float:
        """Spectral radius of L on S (side "S") or of L^{-1} on U (side "U"):
        the largest eigenvalue modulus of the side (of 1/lam_U on U) on a
        spectral split, the Gelfand envelope of these terms on a coordinate
        split."""
        split = self.split
        if isinstance(split, SpectralSplit):
            lam = split.lam_S if self.side == "S" else 1.0 / split.lam_U
            return float(np.abs(lam).max()) if lam.size else 0.0
        return gelfand_envelope(self)[0]


# ---------------------------------------------------------------------------
# Resolvent norms on the restricted sides
#
# Both values restrict the lambda = 1 resolvent: on S it is
# || (I - L|_S)^{-1} || = || sum_{k>=0} L^k |_S ||, on U it is
# || (L|_U - I)^{-1} || = || sum_{k>=1} L^{-k} |_U ||. Restricting the domain
# can only shrink a sup, and ||L^k|_S|| <= ||L^k P_S||, so the max of the two
# never exceeds the Green's-term series upper bound. Exact for coordinate-axes spectral splits and for
# monomial operators under l1/linf; on non-axis subspaces the value is a
# certified lower estimate, which is the safe direction for a lower bound.
# ---------------------------------------------------------------------------


def _monomial_geom_sum(
    mono: MonomialForm, lo, hi, tag: str, rows: bool, from_one: bool = False
) -> float:
    """Norm data of sum_k (monomial)^k restricted to [lo, hi].

    rows=False sums forward products down each column (l1 and l2 views);
    rows=True sums backward products along each row (linf view). from_one
    drops the k = 0 identity term, giving the series that starts at k = 1.
    """
    if rows and mono.shift != 0:
        # Row sums of T equal column sums of the index-reversed monomial:
        # the backward product over c(r - s), c(r - 2s), ... is the forward
        # product of coeff'(j) = coeff(j - s) with displacement -s.
        rev = MonomialForm(
            shift=-mono.shift,
            coeff=lambda j, _m=mono: _m.coeff(j - _m.shift),
            features=tuple(f + mono.shift for f in mono.features),
            left_limit_abs=mono.left_limit_abs,
            right_limit_abs=mono.right_limit_abs,
            left_limit=mono.left_limit,
            right_limit=mono.right_limit,
        )
        return _monomial_geom_sum(rev, lo, hi, tag, rows=False, from_one=from_one)
    shift = mono.shift
    best = 0.0
    k_cap = 10_000
    if shift == 0:
        cands, into_left, into_right = _candidate_anchors(mono, 1, lo, hi)
        weights = [mono.coeff(j) for j in cands]
        if into_left and mono.left_limit is not None:
            weights.append(mono.left_limit)
        if into_right and mono.right_limit is not None:
            weights.append(mono.right_limit)
        # a diagonal weight or tail equal to 1 leaves I - L singular there
        if any(c == 1.0 for c in weights):
            raise NotCertified("resolvent sum meets a diagonal weight or tail equal to 1")
        return max(((abs(c) if from_one else 1.0) / abs(1.0 - c) for c in weights), default=0.0)

    # a window open toward a tail of modulus >= 1 holds walks that never
    # decay, so their sum is not certified to converge
    for end, lim in ((lo, mono.left_limit_abs), (hi, mono.right_limit_abs)):
        if end is None and lim >= 1.0:
            raise NotCertified(f"resolvent sum runs into a tail of modulus {lim:.6g} >= 1")
    # Window wide enough that any orbit leaving it has decayed below cutoff;
    # a walk that leaves [lo, hi] ends there (see below), so it is not probed.
    powers = MonomialPowers(mono, lo, hi)
    probe_n = 1
    while powers.sup(probe_n, stay=True) > 1e-16 and probe_n < 512:
        probe_n += 1
    cands, into_left, into_right = _candidate_anchors(mono, probe_n, lo, hi)
    for anchor in cands:
        # Column sums accumulate forward products p_k = |c(j)...c(j+(k-1)s)|;
        # row sums accumulate backward products over c(r - s), c(r - 2s), ...
        # Term k lands on index anchor + k * shift, and the walk ends where
        # that index leaves [lo, hi]: the restriction has no entry there.
        total = 0.0
        term = 1.0
        k = 0
        while term > 1e-16 * max(1.0, total) and k < k_cap:
            landing = anchor + k * shift
            if (lo is not None and landing < lo) or (hi is not None and landing > hi):
                break
            if k > 0 or not from_one:
                total += term if tag != L2 else term * term
            term = term * abs(mono.coeff(anchor + k * shift))
            k += 1
        val = math.sqrt(total) if tag == L2 else total
        best = max(best, val)
    for flag, lim in ((into_left, mono.left_limit_abs), (into_right, mono.right_limit_abs)):
        if flag and lim < 1.0:
            if tag == L2:
                start = lim * lim if from_one else 1.0
                best = max(best, math.sqrt(start / (1.0 - lim * lim)))
            else:
                best = max(best, (lim if from_one else 1.0) / (1.0 - lim))
    return best


def resolvent_norm_S(op: LinOp, split: Splitting) -> float:
    """|| (I - L|_S)^{-1} || for a splitting already certified contracting on S.

    A coordinate side open toward a weight tail of modulus >= 1 raises
    NotCertified (so does the same side in resolvent_norm_U_inv).
    """
    if isinstance(split, CoordinateSplit):
        mono, rows = _coordinate_monomial(op), split.norm_tag == "linf"
        return _monomial_geom_sum(mono, None, split.cutoff, split.norm_tag, rows)
    return _spectral_resolvent(op, split, side="S")


def resolvent_norm_U_inv(op: LinOp, split: Splitting) -> float:
    """|| (L|_U - I)^{-1} || = || sum_{k>=1} L^{-k}|_U || on the unstable side."""
    if isinstance(split, CoordinateSplit):
        mono = _coordinate_monomial(op.inverse())
        rows = split.norm_tag == "linf"
        return _monomial_geom_sum(mono, split.cutoff + 1, None, split.norm_tag, rows, from_one=True)
    return _spectral_resolvent(op, split, side="U")


def _spectral_resolvent(op: LinOp, split: SpectralSplit, side: str) -> float:
    V = split.V_S if side == "S" else split.V_U
    if V.shape[1] == 0:
        return 0.0
    matrix = op.dense_matrix()
    d = matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    # (I - L)^{-1} leaves S invariant and (L - I)^{-1} leaves U invariant, so
    # restricted norms of either never exceed the full resolvent norm.
    system = eye - matrix if side == "S" else matrix - eye
    axes = split.axes_S if side == "S" else split.axes_U
    if axes is not None:
        sub = system[np.ix_(axes, axes)]
        return mat_norm(np.linalg.inv(sub), split.norm_tag)
    # Probe estimate: valid lower bound via solves restricted to the side.
    probes = [V[:, j] for j in range(V.shape[1])]
    if V.shape[1] > 1:
        probes.append(V.sum(axis=1))
        probes.append(V @ np.cos(np.arange(V.shape[1])))
    best = 0.0
    for v in probes:
        vn = array_norm(v, split.norm_tag)
        if vn < 1e-14:
            continue
        x = np.linalg.solve(system, v)
        best = max(best, array_norm(x, split.norm_tag) / vn)
    return best


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

HYPERBOLIC = "Hyperbolic"
GENERALIZED = "GeneralizedHyperbolic"
NEITHER = "Neither"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class HyperbolicityReport:
    klass: str
    r_S: float
    r_U_inv: float
    fwd_S_invariant: bool
    bwd_U_invariant: bool
    S_in_image: bool
    U_in_image: bool
    witness: Optional[object]
    circle_gap: float


def classify(op: LinOp, split: Splitting) -> HyperbolicityReport:
    """Classify the operator against the supplied splitting.

    Raises InvalidSplitting when S fails forward invariance or U fails
    backward invariance; those directions are prerequisites for every class
    except Neither-by-rates.
    """
    if isinstance(split, CoordinateSplit):
        return _classify_coordinate(op, split)
    if isinstance(split, SpectralSplit):
        return _classify_spectral(op, split)
    raise KindMismatch(f"unknown splitting type {type(split).__name__}")


def _classify_coordinate(op: LinOp, split: CoordinateSplit) -> HyperbolicityReport:
    mono = _coordinate_monomial(op)
    if op.norm_tag != split.norm_tag:
        raise KindMismatch("operator and splitting disagree in norm tag")
    if not op.invertible():
        raise NotInvertible("classification requires an invertible operator")
    shift = mono.shift
    fwd_S = shift <= 0
    bwd_U = shift <= 0
    S_in_image = shift >= 0
    U_in_image = shift >= 0
    if not (fwd_S and bwd_U):
        raise InvalidSplitting(
            "operator moves support upward; the coordinate S is not invariant",
        )
    r_S = RestrictedPowers(op, split, "S").radius()
    r_U_inv = RestrictedPowers(op, split, "U").radius()
    gap = min(abs(1.0 - r_S), abs(1.0 - r_U_inv))
    if abs(r_S - 1.0) < UNDETERMINED_BAND or abs(r_U_inv - 1.0) < UNDETERMINED_BAND:
        klass, witness = UNDETERMINED, None
    elif r_S > 1.0 or r_U_inv > 1.0:
        klass, witness = NEITHER, None
    elif shift < 0:
        k = split.cutoff + 1
        img = op.apply(SparseBiSeq.basis(k, op.norm_tag))
        witness = img * (1.0 / img.norm())
        klass = GENERALIZED
    else:
        klass, witness = HYPERBOLIC, None
    return HyperbolicityReport(
        klass=klass,
        r_S=r_S,
        r_U_inv=r_U_inv,
        fwd_S_invariant=fwd_S,
        bwd_U_invariant=bwd_U,
        S_in_image=S_in_image,
        U_in_image=U_in_image,
        witness=witness,
        circle_gap=gap,
    )


def _classify_spectral(op: LinOp, split: SpectralSplit) -> HyperbolicityReport:
    matrix = op.dense_matrix()
    if op.norm_tag != split.norm_tag:
        raise KindMismatch("operator and splitting disagree in norm tag")
    if not op.invertible():
        raise NotInvertible("classification requires an invertible operator")
    moduli = np.abs(np.linalg.eigvals(matrix))
    gap = float(np.min(np.abs(moduli - 1.0))) if moduli.size else 0.0
    r_S = RestrictedPowers(op, split, "S").radius()
    r_U_inv = RestrictedPowers(op, split, "U").radius()
    if split.cond > DEFECTIVE_COND:
        return HyperbolicityReport(
            klass=UNDETERMINED,
            r_S=r_S,
            r_U_inv=r_U_inv,
            fwd_S_invariant=True,
            bwd_U_invariant=True,
            S_in_image=True,
            U_in_image=True,
            witness=None,
            circle_gap=gap,
        )
    scale = max(1.0, mat_norm(matrix, split.norm_tag))
    inv = np.linalg.inv(matrix)
    res_fwd = float(np.abs(split.P_U @ matrix @ split.P_S).max())
    res_bwd = float(np.abs(split.P_S @ inv @ split.P_U).max())
    if res_fwd > INVARIANCE_RESIDUAL * scale or res_bwd > INVARIANCE_RESIDUAL * scale:
        raise InvalidSplitting(
            f"invariance residuals {res_fwd:.3g}, {res_bwd:.3g} exceed tolerance"
        )
    # Finite dimension plus injectivity force L(S) = S once L(S) lies in S,
    # so certified invariance upgrades to equality and no witness can exist.
    if abs(r_S - 1.0) < UNDETERMINED_BAND or abs(r_U_inv - 1.0) < UNDETERMINED_BAND:
        klass = UNDETERMINED
    elif r_S > 1.0 or r_U_inv > 1.0:
        klass = NEITHER
    else:
        klass = HYPERBOLIC
    return HyperbolicityReport(
        klass=klass,
        r_S=r_S,
        r_U_inv=r_U_inv,
        fwd_S_invariant=True,
        bwd_U_invariant=True,
        S_in_image=True,
        U_in_image=True,
        witness=None,
        circle_gap=gap,
    )


# ---------------------------------------------------------------------------
# Certified check for compositions L = R o W
# ---------------------------------------------------------------------------


def composition_gh_check(w_op: LinOp, r_op: LinOp, split: Splitting) -> HyperbolicityReport:
    """Certify generalized hyperbolicity of R o W from per-factor hypotheses.

    The six hypotheses, each reported by name on failure: stable invariance
    of both factors, backward unstable invariance of both factors, and the
    two contraction products ||W^{-1}|_U|| * ||R^{-1}|| < 1 and
    ||R|| * ||W|_S|| < 1. On success the report carries the contraction
    products as rate bounds and, when R moves the unstable side across the
    cut, a nonzero witness in L(U) intersected with S showing the operator
    is not hyperbolic.
    """
    if not isinstance(split, CoordinateSplit):
        raise KindMismatch("the composition certificate works on coordinate splittings")
    for name, f in (("W", w_op), ("R", r_op)):
        if not f.invertible():
            raise NotInvertible(f"factor {name} is not invertible")
    mono_w = monomial_form(w_op)
    mono_r = monomial_form(r_op)
    if mono_w is None or mono_r is None:
        raise KindMismatch("factors must belong to the weighted-shift family")

    def _hypo(ok: bool, name: str, detail: str) -> None:
        if not ok:
            raise HypothesisFailed(f"{name}: {detail}", name=name)

    _hypo(mono_w.shift <= 0, "W_stable_invariant", "W moves support upward")
    _hypo(mono_w.shift <= 0, "W_inverse_unstable_invariant", "W^{-1} moves support downward")
    _hypo(mono_r.shift <= 0, "R_stable_invariant", "R moves support upward")
    _hypo(mono_r.shift <= 0, "R_inverse_unstable_invariant", "R^{-1} moves support downward")

    cut = split.cutoff
    w_inv_u = monomial_power_sup(monomial_form(w_op.inverse()), 1, cut + 1, None)
    r_inv = r_op.inverse().operator_norm()
    r_norm = r_op.operator_norm()
    w_s = monomial_power_sup(mono_w, 1, None, cut)
    _hypo(
        w_inv_u * r_inv < 1.0,
        "unstable_contraction",
        f"||W^-1|_U|| * ||R^-1|| = {w_inv_u * r_inv:.6g} is not < 1",
    )
    _hypo(
        r_norm * w_s < 1.0,
        "stable_contraction",
        f"||R|| * ||W|_S|| = {r_norm * w_s:.6g} is not < 1",
    )

    composed = CompositionOp([r_op, w_op])
    shift_l = monomial_form(composed).shift
    witness = None
    if mono_r.shift < 0:
        # U is inside W(U), so R(e_k) crossing the cut lands in L(U) and S.
        k = cut + 1
        img = r_op.apply(SparseBiSeq.basis(k, r_op.norm_tag))
        if img.entries and max(img.entries) <= cut:
            witness = img * (1.0 / img.norm())
    klass = GENERALIZED if witness is not None else HYPERBOLIC
    return HyperbolicityReport(
        klass=klass,
        r_S=r_norm * w_s,
        r_U_inv=w_inv_u * r_inv,
        fwd_S_invariant=True,
        bwd_U_invariant=True,
        S_in_image=shift_l >= 0,
        U_in_image=shift_l >= 0,
        witness=witness,
        circle_gap=min(1.0 - r_norm * w_s, 1.0 - w_inv_u * r_inv),
    )
