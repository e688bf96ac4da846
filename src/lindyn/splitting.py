"""Stable/unstable splittings and hyperbolicity classification.

A splitting decomposes the space as S + U with projections P_S, P_U. Dense
operators get spectral splittings, whose P_S is the matrix sign function of a
Cayley transform and whose side radii are eigenvalue moduli; weighted-shift-
family operators on sequences get coordinate splittings cut at an index. The
classifier distinguishes four outcomes: Hyperbolic (both subspaces invariant
in both directions with contracting rates), GeneralizedHyperbolic (forward
invariance of S and backward invariance of U only, certified by a witness
vector in L(U) intersected with S when the inclusions are strict), Neither,
and Undetermined when a rate estimate sits within 1e-6 of 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    CircleEigenvalue,
    HypothesisFailed,
    InvalidSplitting,
    KindMismatch,
    LindynError,
    NoConvergence,
    NonFinite,
    NotCertified,
    NotInvertible,
)
from .linalg import (
    L2,
    LINF,
    SparseBiSeq,
    array_norm,
    check_norm_tag,
    mat_norm,
)
from .operators import (
    DenseOp,
    LinOp,
    MatrixPowers,
    MonomialForm,
    MonomialPowers,
    _candidate_anchors,
    gelfand_envelope,
    monomial_power_sup,
)

DEFAULT_CIRCLE_GAP_TOL = 1e-6
UNDETERMINED_BAND = 1e-6
INVARIANCE_RESIDUAL = 1e-9
PROJECTION_RESIDUAL = 1e-10
# Cayley poles for spectral_split, real ones first, so that a real matrix
# whose spectrum ties keeps a real transform
CAYLEY_POLES = np.array([1, -1, 1j, -1j, *np.exp(0.25j * np.pi * np.array([1, 3, 5, 7]))])
# the sign iteration stops once a step moves X by at most SIGN_TOL relative,
# and is refused past SIGN_NEWTON_CAP steps
SIGN_TOL = 1e-10
SIGN_NEWTON_CAP = 50
# A coordinate resolvent sum probes window widths up to RESOLVENT_PROBE_CAP
# steps and walks each anchor at most RESOLVENT_TERM_CAP terms. The sum is a
# lower bound, a max over anchors of sums of nonnegative terms, so meeting
# either cap is safe: dropping terms or anchors can only lower it.
RESOLVENT_PROBE_CAP = 512
RESOLVENT_TERM_CAP = 10_000


@dataclass(frozen=True)
class CoordinateSplit:
    """S = span{e_k : k <= cutoff}, U = span{e_k : k > cutoff}.

    memo holds work done once per operator on this split (_series_memo).
    """

    cutoff: int
    norm_tag: str
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply_P_S(self, v: SparseBiSeq) -> SparseBiSeq:
        return v.restrict(lambda k: k <= self.cutoff)

    def apply_P_U(self, v: SparseBiSeq) -> SparseBiSeq:
        return v.restrict(lambda k: k > self.cutoff)


class SpectralSplit:
    """Spectral splitting of a dense operator.

    Carries the projections, orthonormal bases Q_S and Q_U of their ranges
    and the eigenvalues of each side. The projections come from the matrix
    sign function (see spectral_split), never from eigenvectors, so every
    bound built on them holds up to the rounding of the computed P_S, whose
    residual ||P_S^2 - P_S|| spectral_split keeps within PROJECTION_RESIDUAL
    * ||P_S||^2. memo holds work done once per operator on this split, as on
    a CoordinateSplit.
    """

    __slots__ = ("norm_tag", "P_S", "P_U", "Q_S", "lam_S", "Q_U", "lam_U", "memo")

    def __init__(self, norm_tag, P_S, P_U, Q_S, lam_S, Q_U, lam_U):
        self.norm_tag = check_norm_tag(norm_tag)
        self.P_S = P_S
        self.P_U = P_U
        self.Q_S = Q_S
        self.lam_S = np.asarray(lam_S, dtype=complex)
        self.Q_U = Q_U
        self.lam_U = np.asarray(lam_U, dtype=complex)
        self.memo: dict = {}

    @property
    def dim(self) -> int:
        return int(self.P_S.shape[0])


Splitting = CoordinateSplit | SpectralSplit


def spectral_split(op: DenseOp, circle_gap_tol: float = DEFAULT_CIRCLE_GAP_TOL) -> SpectralSplit:
    """Split along eigenvalue moduli strictly inside/outside the unit circle.

    Raises CircleEigenvalue when any modulus is within circle_gap_tol of 1,
    because no modulus-based splitting is trustworthy there. The stable
    projection is P_S = (I - sign C) / 2 for the Cayley transform
    C = (M - zI)^{-1} (M + zI), which maps |lam| < 1 into Re < 0; the pole z
    is the point of CAYLEY_POLES farthest from the spectrum. The sign
    function is Newton's iteration (Higham, Functions of Matrices, 2008,
    ch. 5), so defective sides need no eigenvectors. A side with no
    eigenvalue gets its projection exactly.

    At the default gap the split, or its refusal, is memoized on op, as
    op.inverse() is (op.matrix is read-only), so every caller shares one
    split and, through it, one _series_memo entry per operator.
    """
    if not isinstance(op, DenseOp):
        raise KindMismatch("spectral splitting is defined for dense operators")
    if circle_gap_tol != DEFAULT_CIRCLE_GAP_TOL:
        return _spectral_split(op, circle_gap_tol)
    held = op._split
    if held is None:
        try:
            held = _spectral_split(op, circle_gap_tol)
        except LindynError as exc:
            held = exc.with_traceback(None)
        op._split = held
    if isinstance(held, LindynError):
        raise held.with_traceback(None)
    return held


def _spectral_split(op: DenseOp, circle_gap_tol: float) -> SpectralSplit:
    """spectral_split without the memo."""
    with np.errstate(all="ignore"):
        try:
            lams = np.linalg.eigvals(op.matrix)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"eigenvalues did not converge: {exc}") from None
        if not np.isfinite(np.abs(lams)).all():
            raise NonFinite("eigenvalue moduli must be finite")
    for lam in lams:
        if abs(abs(lam) - 1.0) < circle_gap_tol:
            raise CircleEigenvalue(
                f"eigenvalue {lam:.12g} has modulus within {circle_gap_tol:g} of 1",
                eigenvalue=lam,
            )
    stable = np.abs(lams) < 1.0
    d, k = op.dim, int(stable.sum())
    eye = np.eye(d, dtype=complex)
    if k in (0, d):
        # one side holds the whole spectrum: P_S is I or 0
        P_S = eye * (k == d)
    else:
        z = CAYLEY_POLES[np.abs(lams[None, :] - CAYLEY_POLES[:, None]).min(axis=1).argmax()]
        try:
            P_S = (eye - _cayley_sign(op.matrix, z)) / 2
        except InvalidSplitting as exc:
            raise _ill_conditioned(lams, str(exc)) from None
    P_U = eye - P_S
    U_S, s_S, _ = np.linalg.svd(P_S)
    U_U = np.linalg.svd(P_U)[0]
    residual = float(np.abs(P_S @ P_S - P_S).max())
    # residual > tol * max(1, ||P_S||)^2, with no square to overflow
    scale = max(1.0, float(s_S[0]))
    if residual / scale > PROJECTION_RESIDUAL * scale:
        raise InvalidSplitting(
            f"projection residual {residual:.3g} exceeds {PROJECTION_RESIDUAL:g} * ||P_S||^2"
        )
    # the rank of a projection is its trace; eigenvalues that rounding moved
    # across the circle disagree with it, and the side radii come from them
    if abs(np.trace(P_S) - k) > 0.5:
        why = f"the projection has rank {np.trace(P_S).real:.3g}, against {k} stable eigenvalues"
        raise _ill_conditioned(lams, why)
    return SpectralSplit(
        op.norm_tag, P_S, P_U, U_S[:, :k], lams[stable], U_U[:, : d - k], lams[~stable]
    )


def _ill_conditioned(lams: np.ndarray, why: str) -> InvalidSplitting:
    """The refusal of a split that fails as a non-normal spectrum nears the unit circle."""
    gap = np.abs(np.abs(lams) - 1.0).min()
    return InvalidSplitting(
        f"the split is ill-conditioned near the unit circle (the spectrum lies {gap:.3g} "
        f"from it): {why}"
    )


def _cayley_sign(M: np.ndarray, z: complex) -> np.ndarray:
    """sign(C) of C = (M - zI)^{-1} (M + zI) by Newton's iteration
    X <- (mu X + (mu X)^{-1}) / 2, with the determinant scaling
    mu = |det X|^{-1/d} while a step still moves X by more than 1e-2
    relative; refused past SIGN_NEWTON_CAP steps or at a non-finite or
    singular iterate."""
    d = M.shape[0]
    eye = np.eye(d)
    scaled = True
    with np.errstate(all="ignore"):
        try:
            X = np.linalg.solve(M - z * eye, M + z * eye)
            for _ in range(SIGN_NEWTON_CAP):
                mu = np.exp(-np.linalg.slogdet(X)[1] / d) if scaled else 1.0
                step = (mu * X + np.linalg.inv(X) / mu) / 2
                if not np.isfinite(step).all():
                    raise InvalidSplitting("the sign iteration leaves the finite range")
                change = np.abs(step - X).max() / np.abs(step).max()
                X = step
                if change <= SIGN_TOL:
                    return X
                scaled = scaled and change > 1e-2
        except np.linalg.LinAlgError:
            raise InvalidSplitting("the sign iteration meets a singular iterate") from None
    raise InvalidSplitting(f"the sign iteration did not converge in {SIGN_NEWTON_CAP} steps")


# ---------------------------------------------------------------------------
# Restricted power norms
# ---------------------------------------------------------------------------


def _coordinate_monomial(op: LinOp) -> MonomialForm:
    mono = op.monomial
    if mono is None:
        raise KindMismatch("coordinate splitting needs a weighted-shift-family operator")
    return mono


class RestrictedPowers:
    """The Green's-function terms n -> ||L^n P_S|| (side "S") and
    n -> ||L^{-n} P_U|| (side "U").

    On a coordinate split the projections have norm 1 and the value is the
    exact restricted norm ||L^{+-n}|_side||, 1 at n = 0. On a spectral split
    it is the norm of the re-projected power (see operators.MatrixPowers),
    which bounds the restricted norm above and is the term the correction
    series multiplies each defect by; n = 0 gives ||P_side||. Both hold up to
    the rounding of the computed P_S (see SpectralSplit). Values are memoized
    per n, and the side's invariants are computed once, at the first n >= 1
    on a coordinate split and at the first n on a spectral one.
    """

    def __init__(self, op: LinOp, split: Splitting, side: str):
        self.op, self.split, self.side = op, split, side
        self._term = None
        if isinstance(split, SpectralSplit) and (split.Q_S if side == "S" else split.Q_U).size == 0:
            # an empty side has norm 0 at every n, n = 0 included
            self._term = lambda n: 0.0

    def __call__(self, n: int) -> float:
        term = self._term
        if term is None:
            if n == 0 and isinstance(self.split, CoordinateSplit):
                return 1.0
            term = self._term = self._build_term()
        return term(n)

    def _build_term(self):
        op, split, side = self.op, self.split, self.side
        if isinstance(split, CoordinateSplit):
            mono = _coordinate_monomial(op.inverse() if side == "U" else op)
            lo, hi = (None, split.cutoff) if side == "S" else (split.cutoff + 1, None)
            return functools.cache(MonomialPowers(mono, lo, hi).sup)
        if side == "S":
            return MatrixPowers(split.P_S, op.dense_matrix(), split.norm_tag)
        return MatrixPowers(split.P_U, op.inverse().dense_matrix(), split.norm_tag)

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


def _series_memo(op: LinOp, split: Splitting) -> dict:
    """Work done once per (op, split), held on the split: both sides'
    RestrictedPowers ("S", "U"), read by classify and series_constants, and
    shadowing's results, among them the read-only series points of the last
    orbit ("orbit", see shadowing._series_orbit). The entry keeps op, so its
    id is not reused."""
    held, memo = split.memo.get(id(op), (None, None))
    if held is not op:
        memo = {side: RestrictedPowers(op, split, side) for side in "SU"}
        split.memo[id(op)] = (op, memo)
    return memo


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
        rev = replace(
            mono,
            shift=-mono.shift,
            coeff=lambda j, _m=mono: _m.coeff(j - _m.shift),
            features=tuple(f + mono.shift for f in mono.features),
        )
        return _monomial_geom_sum(rev, lo, hi, tag, rows=False, from_one=from_one)
    shift = mono.shift
    if shift == 0:
        cands, into_left, into_right = _candidate_anchors(mono, 1, lo, hi)
        weights = [mono.coeff(j) for j in cands]
        if into_left:
            weights.append(mono.left_limit)
        if into_right:
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
    while powers.sup(probe_n, stay=True) > 1e-16 and probe_n < RESOLVENT_PROBE_CAP:
        probe_n += 1
    cands, into_left, into_right = _candidate_anchors(mono, probe_n, lo, hi)
    # Column sums accumulate forward products p_k = |c(j)...c(j+(k-1)s)|;
    # row sums accumulate backward products over c(r - s), c(r - 2s), ...
    # Term k lands on index anchor + k * shift, and the walk ends where
    # that index leaves [lo, hi]: the restriction has no entry there. All
    # anchors walk at once, one elementwise step per k, each with the
    # float operations of a walk of its own; a walk that ends leaves the
    # arrays and its total goes into top.
    anchors, total, term = np.array(cands), np.zeros(len(cands)), np.ones(len(cands))
    top = 0.0
    # a product overflows to inf quietly, as the Python floats did
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(RESOLVENT_TERM_CAP):
            landing = anchors + k * shift
            live = term > 1e-16 * np.maximum(1.0, total)
            if lo is not None:
                live &= landing >= lo
            if hi is not None:
                live &= landing <= hi
            if not live.all():
                top = max(top, float(total[~live].max()))
                anchors, total, term, landing = anchors[live], total[live], term[live], landing[live]
            if not anchors.size:
                break
            if k > 0 or not from_one:
                total += term if tag != L2 else term * term
            term = term * powers.abs_coeffs(landing)
    # walks still running at the cap; sqrt is monotone, so the root of the
    # largest sum is the largest root
    top = max(top, float(total.max(initial=0.0)))
    best = math.sqrt(top) if tag == L2 else top
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
        mono, rows = _coordinate_monomial(op), split.norm_tag == LINF
        return _monomial_geom_sum(mono, None, split.cutoff, split.norm_tag, rows)
    return _spectral_resolvent(op, split, side="S")


def resolvent_norm_U_inv(op: LinOp, split: Splitting) -> float:
    """|| (L|_U - I)^{-1} || = || sum_{k>=1} L^{-k}|_U || on the unstable side."""
    if isinstance(split, CoordinateSplit):
        mono = _coordinate_monomial(op.inverse())
        rows = split.norm_tag == LINF
        return _monomial_geom_sum(mono, split.cutoff + 1, None, split.norm_tag, rows, from_one=True)
    return _spectral_resolvent(op, split, side="U")


def _spectral_resolvent(op: LinOp, split: SpectralSplit, side: str) -> float:
    Q = split.Q_S if side == "S" else split.Q_U
    if Q.shape[1] == 0:
        return 0.0
    matrix = op.dense_matrix()
    d = matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    # (I - L)^{-1} leaves S invariant and (L - I)^{-1} leaves U invariant, so
    # restricted norms of either never exceed the full resolvent norm.
    system = eye - matrix if side == "S" else matrix - eye
    # a side spanned by coordinate axes has as many nonzero rows in Q as columns
    axes = np.nonzero(np.abs(Q).max(axis=1) > 1e-12)[0]
    if axes.size == Q.shape[1]:
        sub = system[np.ix_(axes, axes)]
        return mat_norm(np.linalg.inv(sub), split.norm_tag)
    # Probe estimate: valid lower bound via solves restricted to the side.
    probes = [Q[:, j] for j in range(Q.shape[1])]
    if Q.shape[1] > 1:
        probes.append(Q.sum(axis=1))
        probes.append(Q @ np.cos(np.arange(Q.shape[1])))
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
    witness: Optional[object]
    circle_gap: float


def classify(op: LinOp, split: Splitting) -> HyperbolicityReport:
    """Classify the operator against the supplied splitting.

    Raises InvalidSplitting when S fails forward invariance or U fails
    backward invariance; those directions are prerequisites for every class
    except Neither-by-rates. On a spectral split the invariance residuals
    are measured on the computed projections, so the verdict holds up to
    their rounding (see SpectralSplit).
    """
    if isinstance(split, CoordinateSplit):
        shift = _coordinate_monomial(op).shift
    elif isinstance(split, SpectralSplit):
        matrix = op.dense_matrix()
        # Finite dimension plus injectivity force L(S) = S once L(S) lies in
        # S, so a certified spectral split behaves as an unshifted one: the
        # images are equal and no witness can exist.
        shift = 0
    else:
        raise KindMismatch(f"unknown splitting type {type(split).__name__}")
    if op.norm_tag != split.norm_tag:
        raise KindMismatch("operator and splitting disagree in norm tag")
    if not op.invertible():
        raise NotInvertible("classification requires an invertible operator")
    if shift > 0:
        raise InvalidSplitting(
            "operator moves support upward; the coordinate S is not invariant",
        )
    memo = _series_memo(op, split)
    r_S, r_U_inv = memo["S"].radius(), memo["U"].radius()
    if isinstance(split, CoordinateSplit):
        gap = min(abs(1.0 - r_S), abs(1.0 - r_U_inv))
    else:
        moduli = np.abs(np.linalg.eigvals(matrix))
        gap = float(np.min(np.abs(moduli - 1.0))) if moduli.size else 0.0
        tol = INVARIANCE_RESIDUAL * max(1.0, mat_norm(matrix, split.norm_tag))
        res_fwd = float(np.abs(split.P_U @ matrix @ split.P_S).max())
        res_bwd = float(np.abs(split.P_S @ op.inverse().dense_matrix() @ split.P_U).max())
        if res_fwd > tol or res_bwd > tol:
            raise InvalidSplitting(
                f"invariance residuals {res_fwd:.3g}, {res_bwd:.3g} exceed tolerance"
            )
    witness = None
    if abs(r_S - 1.0) < UNDETERMINED_BAND or abs(r_U_inv - 1.0) < UNDETERMINED_BAND:
        klass = UNDETERMINED
    elif r_S > 1.0 or r_U_inv > 1.0:
        klass = NEITHER
    elif shift < 0:
        # the downward shift carries e_{cutoff+1} from U into S
        img = op.apply(SparseBiSeq.basis(split.cutoff + 1, op.norm_tag))
        witness = img * (1.0 / img.norm())
        klass = GENERALIZED
    else:
        klass = HYPERBOLIC
    return HyperbolicityReport(
        klass=klass,
        r_S=r_S,
        r_U_inv=r_U_inv,
        witness=witness,
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
    mono_w = w_op.monomial
    mono_r = r_op.monomial
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
    w_inv_u = monomial_power_sup(w_op.inverse().monomial, 1, cut + 1, None)
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

    if w_op.norm_tag != r_op.norm_tag:
        raise KindMismatch("composition factors must share a norm tag")
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
        witness=witness,
        circle_gap=min(1.0 - r_norm * w_s, 1.0 - w_inv_u * r_inv),
    )
