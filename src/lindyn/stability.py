"""Structural stability at desk scale: bounded Lipschitz perturbations of a
split linear map, the correction functional built from its splitting, and
the conjugacies it generates.

The functional Gamma(alpha)(x) pushes the stable projection of a field
forward along the trajectory through x and the unstable projection backward,
so it satisfies Gamma(alpha)(R(x)) = L(Gamma(alpha)(x)) + alpha(x) exactly.
Its series are truncated at horizons read off the splitting's series
constants (compute_horizons). A field is evaluated only at trajectory points
within its support_radius; every term past the last such point is an exact
zero, and the sums skip them.

A walk also ends before its horizon once no later point can come back within
reach. On the backward walk (R = L^-1, P = P_S, t(k) the memoized Green's
term >= ||L^k P_S||) and on the forward one (R = L, P = P_U, t(k) >=
||L^-k P_U||), P commutes with L, so ||P y|| <= t(k) ||R^k y||. At a walked
point y with K steps left, ||P y|| > 2 far max_{1<=k<=K} t(k) puts every
later point beyond far: the field's reach, or the radius beyond which a
trajectory map declares itself to be R (its linear_outside), if larger. The
walk ends there if also ||y|| > far and log ||y|| + K log ||R|| <
WALK_EXIT_LOG, so no walk that would overflow is cut short. The bound holds
up to the rounding of the computed P_S (see SpectralSplit) and of the walk,
which the factor 2 absorbs. A map that declares nothing is walked whole, as
is every walk of a field of infinite reach. The exit changes no walked
point, sum or memo key, so every output is that of the whole walk.

Both directions of the conjugacy are one memoized field, ConjugacyField:
- the direct one conjugates L to L + beta as the Picard limit of
  h_1 = Gamma(beta), h_{m+1} = Gamma(beta o (id + h_m)), along L;
- the inverse one is the depth-1 field Gamma(-beta) along the trajectories
  of the perturbed map L + beta.
Fields and trajectory maps map coordinate arrays of the dense operator's
matrix; DenseVectors are taken, returned and checked only at the public
calls (gamma_eval, a ConjugacyField call, the residual checks). A
ConjugacyField checks its operator, split and field once, when it is built,
and its recursion evaluates Gamma on coordinates. Fields are evaluated lazily
at query points, memoized per depth, and one query may count at most
QUERY_WALK_CAP horizon steps over its memo misses, however early its walks
end, before it is refused with TrajectoryBudget.

One query walks each distinct start once. A walk (_walk) is a pure function
of its start's bits, its direction and the reach of the field it serves, so
the query keeps each walk's points in reach under that key until it ends,
and the misses of depths 2 and up at one start, whose fields have one
reach, share its walks. Trajectory maps must therefore be deterministic. A
refused walk is not kept, and gamma_eval keeps none.

The local linearization (grobman_hartman_local) cuts a map's nonlinearity
off between radius r and 2r. Its sup, Lipschitz constant and contraction
factor are bounds from closed forms the map declares
(DifferentiableMap.bounds), up to their rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CircleEigenvalue,
    KindMismatch,
    NoConvergence,
    NotCertified,
    NotContraction,
    NotContractiveSpectrum,
    TrajectoryBudget,
)
from .gallery import DifferentiableMap
from .linalg import DenseVector, array_norm, check_finite, mat_norm, row_norms
from .operators import DenseOp, LinOp
from .sampling import rng_from_seed, unit_dense_samples
from .shadowing import SERIES_TAIL, SERIES_TERM_CAP, SeriesConstants
from .shadowing import _sum_until_tail, series_constants
from .splitting import SpectralSplit, Splitting, _series_memo, spectral_split

PHI_LIP_MAX = 8.0 / (3.0 * math.sqrt(3.0))
MEMO_QUANTUM = 1e-12
MEMO_COORD_CAP = 1e6
# Horizon steps one top-level field query may take: each memo miss counts
# len(a_terms) + len(b_terms), however early its walks end. The largest query
# in the acceptance criteria AC06 and AC07, the bundled scenarios and the
# conjugacy_field benchmark rounds of seeds 1-5 counts 5,037, so this is
# about 20 times the most any of them needs.
QUERY_WALK_CAP = 100_000
# A walk tests its exit at every WALK_EXIT_STRIDE-th point, and ends there
# only if no later point can pass e^WALK_EXIT_LOG, well below the largest
# float (about e^709.78).
WALK_EXIT_STRIDE = 4
WALK_EXIT_LOG = 690.0
POINTWISE_INVERSE_CAP = 300
POINTWISE_INVERSE_TOL = 1e-13
PICARD_MAX_DEPTH = 12
# the local linearization halves its cutoff radius down to this one
MIN_CUTOFF_RADIUS = 1e-4


def _bump(r: float) -> float:
    if r >= 1.0:
        return 0.0
    return (1.0 - r * r) ** 2


@dataclass(frozen=True)
class BumpPerturbation:
    """Compactly supported radial bump field A * phi(|x - c| / R) * u.

    phi(r) = (1 - r^2)^2 on [0, 1], zero beyond, measured in the ambient
    norm; |phi'| peaks at 8 / (3 sqrt 3), which certifies the Lipschitz
    constant amplitude * that / radius with no sampling involved.
    """

    center: DenseVector
    radius: float
    amplitude: float
    direction: DenseVector

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if abs(self.direction.norm() - 1.0) > 1e-9:
            raise ValueError("direction must have unit norm")
        if self.center.norm_tag != self.direction.norm_tag:
            raise ValueError("center and direction norm tags differ")

    @property
    def norm_tag(self) -> str:
        return self.direction.norm_tag

    @property
    def sup_norm(self) -> float:
        return self.amplitude

    @property
    def lip(self) -> float:
        return self.amplitude * PHI_LIP_MAX / self.radius

    @property
    def support_radius(self) -> float:
        return self.center.norm() + self.radius

    def __call__(self, x: np.ndarray) -> np.ndarray:
        r = array_norm(x - self.center.coords, self.norm_tag) / self.radius
        return self.direction.coords * complex(self.amplitude * _bump(r))

    def verify_lipschitz(self, pairs: int = 1000, rng_seed: int = 0) -> float:
        """Sampled ratio check against the certified constant; returns the
        worst observed ratio and raises if it beats the certificate."""
        rng = rng_from_seed(rng_seed)
        dim = self.center.dim
        worst = 0.0
        for u, v in zip(
            unit_dense_samples(dim, self.norm_tag, pairs, rng),
            unit_dense_samples(dim, self.norm_tag, pairs, rng),
        ):
            x = self.center + u * (self.radius * 1.2 * rng.uniform(0.0, 1.0))
            y = self.center + v * (self.radius * 1.2 * rng.uniform(0.0, 1.0))
            gap = (x - y).norm()
            if gap < 1e-12:
                continue
            ratio = array_norm(self(x.coords) - self(y.coords), self.norm_tag) / gap
            worst = max(worst, ratio)
            if ratio > self.lip * (1.0 + 1e-9):
                raise NotCertified(
                    f"observed Lipschitz ratio {ratio:.9g} beats certificate {self.lip:.9g}"
                )
        return worst


@dataclass(frozen=True)
class ConstantField:
    """alpha(x) = v everywhere; Gamma of it has a resolvent closed form."""

    value: DenseVector

    @property
    def norm_tag(self) -> str:
        return self.value.norm_tag

    @property
    def sup_norm(self) -> float:
        return self.value.norm()

    @property
    def lip(self) -> float:
        return 0.0

    @property
    def support_radius(self) -> float:
        return math.inf

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value.coords


class _NegatedField:
    def __init__(self, base):
        self.base = base
        self.norm_tag = base.norm_tag
        self.sup_norm = base.sup_norm
        self.lip = base.lip
        self.support_radius = base.support_radius

    def __call__(self, x):
        return -self.base(x)


class _ComposedField:
    """beta o (id + h), supported in beta's ball inflated by h_bound. The
    caller filters points: Gamma evaluates a field only within its
    support_radius, so h is never evaluated outside that ball."""

    def __init__(self, beta, h: Callable, h_bound: float):
        self.beta = beta
        self.h = h
        self.support_radius = beta.support_radius + h_bound

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.beta(y + self.h(y))


# ---------------------------------------------------------------------------
# The correction functional
# ---------------------------------------------------------------------------


def compute_horizons(
    op: LinOp,
    split: Splitting,
    sup_alpha: float,
    tail_tol: float = 1e-9,
) -> SeriesConstants:
    """Series constants whose term counts are the truncation horizons that
    make the discarded Gamma tail below tail_tol: len(a_terms) steps back,
    len(b_terms) steps forward, with .upper the bound on Gamma itself.

    A series that runs past SERIES_TERM_CAP terms is refused with
    TrajectoryBudget; every other refusal of series_constants keeps its own
    code."""
    term_tail = tail_tol / (4.0 * max(1.0, sup_alpha))
    try:
        return series_constants(op, split, tail=term_tail)
    except NotCertified as exc:
        if "terms" not in exc.data:
            raise
        raise TrajectoryBudget(
            f"series horizons exceeded {SERIES_TERM_CAP} trajectory steps"
        ) from exc


def _dense_parts(op: LinOp, split: Splitting, alpha) -> tuple:
    """(A, A^-1, P_S, P_U, tag) for Gamma of alpha along a dense operator (a
    dense composition is lowered to its matrix). A sequence operator, or a
    split or field not of the operator's tag and dimension, is refused with
    KindMismatch; a singular operator with NotInvertible."""
    A, tag = op.dense_matrix(), op.norm_tag
    if not isinstance(split, SpectralSplit) or (split.norm_tag, split.dim) != (tag, A.shape[0]):
        raise KindMismatch("Gamma needs a spectral split of the operator's tag and dimension")
    if getattr(alpha, "norm_tag", tag) != tag:
        raise KindMismatch("field and operator disagree in norm tag")
    return A, op.inverse().dense_matrix(), split.P_S, split.P_U, tag


def _check_point(x, parts: tuple) -> None:
    A, tag = parts[0], parts[4]
    if not isinstance(x, DenseVector) or (x.norm_tag, x.dim) != (tag, A.shape[0]):
        raise KindMismatch("Gamma's point must be a dense vector of the operator's tag and dimension")


def _walk_bounds(op: LinOp, split: Splitting, parts: tuple) -> tuple:
    """What the walk exit reads for each walk, backward then forward: the
    prefix maxima m[K] = max_{1<=k<=K} t(k) of the Green's terms memoized on
    the split (side "S", then "U"; m[0] is unused) and log ||R|| of the
    walk's linear map R (A^-1, then A). Only terms already computed are
    read, so a walk with more steps left than they cover does not exit."""
    memo = _series_memo(op, split)
    return tuple(
        (
            list(accumulate(memo[side].memoized()[1:], max, initial=0.0)),
            math.log(mat_norm(R, parts[4])),
        )
        for side, R in (("S", parts[1]), ("U", parts[0]))
    )


def _walk(tag: str, bound: tuple, P, M, traj, reach: float, start, count: int, from_x: bool):
    """The walk of one Horner sum: the first count points of x, R x, R^2 x,
    ... (from_x) or of R x, R^2 x, ..., where R is traj, or M when traj is
    None, ended early by the exit of the module docstring. Returns the
    indices of the walked points within reach and those points, as rows; a
    walk with a point that is not finite is refused with NonFinite. It is a
    pure function of its start's bits, its direction and reach, for the
    operator, split, counts and trajectory maps fixed."""
    # a map that does not declare where it is M is walked whole
    matrix, radius = getattr(traj, "linear_outside", (M, 0.0 if traj is None else math.inf))
    far = max(reach, radius if matrix is M else math.inf)
    t_max, log_norm = bound
    pts = np.empty((count, start.size), dtype=complex)
    pt = start
    for i in range(count):
        if i or not from_x:
            pt = M @ pt if traj is None else traj(pt)
        pts[i] = pt
        left = count - 1 - i
        if i % WALK_EXIT_STRIDE == WALK_EXIT_STRIDE - 1 and 0 < left < len(t_max):
            norm = array_norm(pt, tag)
            if (
                norm > far
                and array_norm(P @ pt, tag) > 2.0 * far * t_max[left]
                and math.log(norm) + left * log_norm < WALK_EXIT_LOG
            ):
                pts = pts[: i + 1]
                break
    check_finite(pts)
    near = np.flatnonzero(~(row_norms(pts, tag) > reach))
    return near.tolist(), pts[near]


def _gamma(
    parts: tuple, bounds: tuple, alpha, start, k_fwd: int, k_bwd: int, traj_forward, traj_backward,
    walks: Optional[dict] = None,
):
    """Gamma(alpha) at the coordinates start: k_fwd terms of the forward
    part, walked back from start, and k_bwd of the backward part, walked
    forward. parts come from _dense_parts and bounds from _walk_bounds;
    nothing is checked again. walks, if given, keeps each walk under its
    key (direction, reach, start's bytes) past the call, so the walks of
    equal keys are made once; the caller keeps parts, bounds, counts and
    maps fixed for the dict's life.

    Each sum is the Horner sum acc <- step(acc, P alpha(pt)) over its walk's
    points, last point first. Beyond reach alpha is zero: a term past the
    last point in reach adds exact zeros, so one zero step stands for all of
    them and keeps the signed zeros of the full sum."""
    A, A_inv, P_S, P_U, tag = parts
    zero = start * 0j
    reach = getattr(alpha, "support_radius", math.inf)
    start_bytes = start.tobytes()
    walks = {} if walks is None else walks

    def terms(P, M, traj, count: int, from_x: bool, bound: tuple) -> tuple:
        """The terms P alpha(pt) up to the walk's last point in reach, with
        exact zeros P 0 between, and P 0."""
        key = (from_x, reach, start_bytes)
        walk = walks.get(key)
        if walk is None:
            walk = walks[key] = _walk(tag, bound, P, M, traj, reach, start, count, from_x)
        near, pts = walk
        p_zero = P @ zero
        out = [p_zero] * (near[-1] + 1 if near else 0)
        for i, pt in zip(near, pts):
            out[i] = P @ alpha(pt)
        return out, p_zero

    # a non-finite step or sum is refused by check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        vs, p_zero = terms(P_S, A_inv, traj_backward, k_fwd, False, bounds[0])
        acc_f = zero if len(vs) == k_fwd else P_S @ (A @ zero) + p_zero
        for v in reversed(vs):
            acc_f = P_S @ (A @ acc_f) + v
        us, p_zero = terms(P_U, A, traj_forward, k_bwd, True, bounds[1])
        acc_b = zero if len(us) == k_bwd else P_U @ (A_inv @ (zero + p_zero))
        for u in reversed(us):
            acc_b = P_U @ (A_inv @ (acc_b + u))
        return check_finite(acc_f - acc_b)


def gamma_eval(
    op: LinOp,
    split: Splitting,
    alpha,
    x: DenseVector,
    horizons: Optional[SeriesConstants] = None,
    traj_forward: Optional[Callable] = None,
    traj_backward: Optional[Callable] = None,
) -> DenseVector:
    """Gamma(alpha)(x) along the trajectory maps (the operator by default).

    Forward part: sum_{k>=0} L^k P_S alpha(R^{-k-1} x); backward part:
    sum_{k>=1} L^{-k} P_U alpha(R^{k-1} x). Both Horner-evaluated with
    re-projection each step so roundoff stays on the contracting side.

    Dense operators only (a dense composition is lowered to its matrix): a
    sequence operator, or a split, point or field not of the operator's tag
    and dimension, is refused with KindMismatch before any work. Each
    trajectory is walked before alpha sees any of its points, so an
    overflowing one is refused first; a walk ends early once no later point
    can come back within reach or overflow (see the module docstring). alpha
    is evaluated only at points within its support_radius; the terms past
    the last such point are exact zeros, and each sum starts at that point.
    A ConjugacyField makes these checks once, when it is built, and
    evaluates Gamma on coordinates.
    """
    parts = _dense_parts(op, split, alpha)
    _check_point(x, parts)
    if horizons is None:
        horizons = compute_horizons(op, split, alpha.sup_norm)
    k_fwd, k_bwd = len(horizons.a_terms), len(horizons.b_terms)
    bounds = _walk_bounds(op, split, parts)
    return DenseVector(
        _gamma(parts, bounds, alpha, x.coords, k_fwd, k_bwd, traj_forward, traj_backward), parts[4]
    )


# ---------------------------------------------------------------------------
# Direct conjugacy by Picard iteration
# ---------------------------------------------------------------------------


def _memo_key(coords: np.ndarray, depth: int):
    """(depth, real parts, imaginary parts) of coords in units of
    MEMO_QUANTUM, rounded half to even, or None if a coordinate's modulus
    passes MEMO_COORD_CAP. Worked on coords.tolist(), and bit for bit the
    key of np.round(coords / MEMO_QUANTUM): numpy divides a complex array by
    a real scalar as each part times the scalar's reciprocal (the Smith
    division by q + 0j), and a real array by true division; Python's round
    of a float is numpy's half to even, exact in int64 below the cap. Only
    a coordinate near the cap takes numpy's modulus for the test."""
    vals, scale = coords.tolist(), 1.0 / MEMO_QUANTUM
    if coords.dtype.kind == "c":
        re, im = [v.real * scale for v in vals], [v.imag * scale for v in vals]
    else:
        re, im = [v / MEMO_QUANTUM for v in vals], [0.0] * len(vals)
    # below 0.7 * cap in every part, every modulus is below the cap
    if not max(map(abs, re + im), default=0.0) <= 0.7 * MEMO_COORD_CAP * scale:
        if np.abs(coords).max(initial=0.0) > MEMO_COORD_CAP:
            return None
    return (depth, tuple(map(round, re)), tuple(map(round, im)))


class ConjugacyField:
    """h_m from the Picard iteration h_1 = Gamma(beta), h_{m+1} =
    Gamma(beta o (id + h_m)) along the trajectory maps (the operator by
    default), evaluated lazily at query points with per-depth memoization.
    The operator, split and field are checked once, here, as gamma_eval
    checks them; a call takes and returns a DenseVector of the operator's tag
    and dimension, and eval and the memo work on coordinates. Each memo miss
    counts its horizons, len(a_terms) + len(b_terms) steps, however early its
    walks end; one call may count at most QUERY_WALK_CAP of them over its
    misses, and past that it raises TrajectoryBudget. A call walks each
    distinct start once (see the module docstring) and keeps its walks only
    while it runs.
    """

    def __init__(
        self,
        op: LinOp,
        split: Splitting,
        beta,
        depth: int,
        horizons: SeriesConstants,
        traj_forward: Optional[Callable] = None,
        traj_backward: Optional[Callable] = None,
    ):
        self._parts = _dense_parts(op, split, beta)
        self._bounds = _walk_bounds(op, split, self._parts)
        self.op = op
        self.split = split
        self.beta = beta
        self.depth = depth
        self.horizons = horizons
        self.traj_forward = traj_forward
        self.traj_backward = traj_backward
        self.h_bound = self.sup_norm = horizons.upper * beta.sup_norm
        self.norm_tag = beta.norm_tag
        self._memo: dict = {}
        self._walked = 0
        # the walks of the running call, by _gamma's key
        self._walks: dict = {}

    def eval(self, x: np.ndarray, depth: int) -> np.ndarray:
        if depth <= 0:
            return x * 0j
        key = _memo_key(x, depth)
        if key is not None and key in self._memo:
            return self._memo[key]
        k_fwd, k_bwd = len(self.horizons.a_terms), len(self.horizons.b_terms)
        self._walked += k_fwd + k_bwd
        if self._walked > QUERY_WALK_CAP:
            raise TrajectoryBudget(
                f"one query walked more than {QUERY_WALK_CAP} trajectory points"
            )
        alpha = self.beta
        if depth > 1:
            alpha = _ComposedField(self.beta, lambda y: self.eval(y, depth - 1), self.h_bound)
        fwd, bwd = self.traj_forward, self.traj_backward
        out = _gamma(self._parts, self._bounds, alpha, x, k_fwd, k_bwd, fwd, bwd, self._walks)
        if key is not None:
            self._memo[key] = out
        return out

    def __call__(self, x: DenseVector) -> DenseVector:
        _check_point(x, self._parts)
        self._walked = 0
        try:
            return DenseVector(self.eval(x.coords, self.depth), self.norm_tag)
        finally:
            self._walks.clear()


@dataclass(frozen=True)
class ConjugacySolution:
    """Near-identity conjugacy data: (id + field) o L = (L + beta) o (id + field)."""

    field: Callable
    depth: int
    factor: float
    h_bound: float
    horizons: SeriesConstants
    reached_tol: bool


def conjugacy_solve(op: LinOp, split: Splitting, beta, tol: float = 1e-8) -> ConjugacySolution:
    """Picard-solve the conjugacy equation to within tol.

    The iteration contracts with factor horizons.upper * lip(beta); the depth
    is chosen from the geometric residual bound and clamped at PICARD_MAX_DEPTH.
    A clamped depth is reported through reached_tol, and the honest arbiter
    either way is conjugacy_residual. A singular operator is refused with
    NotInvertible before any series is summed.
    """
    op.inverse()  # the field needs it: refuse a singular operator as such, first
    horizons = compute_horizons(op, split, beta.sup_norm, tail_tol=tol * 1e-2)
    factor = horizons.upper * beta.lip
    if factor >= 1.0 - 1e-12:
        raise NotContraction(
            f"Picard factor {factor:.6g} is not below 1", factor=factor
        )
    h_bound = horizons.upper * beta.sup_norm
    if h_bound <= tol:
        depth = 0
    elif factor == 0.0:
        depth = 1
    else:
        depth = math.ceil(math.log(tol * (1.0 - factor) / h_bound) / math.log(factor))
        depth = max(depth, 1)
    reached = depth <= PICARD_MAX_DEPTH
    depth = min(depth, PICARD_MAX_DEPTH)
    return ConjugacySolution(
        field=ConjugacyField(op, split, beta, depth, horizons),
        depth=depth,
        factor=factor,
        h_bound=h_bound,
        horizons=horizons,
        reached_tol=reached,
    )


def conjugacy_residual(op: LinOp, beta, h: Callable, points: Sequence[DenseVector]) -> float:
    """max over points of ||h(Lx) - L h(x) - beta(x + h(x))||."""
    worst = 0.0
    for x in points:
        hx = h(x)
        res = h(op.apply(x)).coords - op.apply(hx).coords - beta((x + hx).coords)
        worst = max(worst, array_norm(res, op.norm_tag))
    return worst


# ---------------------------------------------------------------------------
# Inverse conjugacy: one Gamma application along the perturbed trajectory
# ---------------------------------------------------------------------------


def perturbed_backward_map(op: LinOp, beta) -> Callable:
    """Pointwise inverse of M = L + beta by iterating y <- L^-1(z - beta(y)).

    Contracts with factor ||L^-1|| * lip(beta); callers must keep that below
    one, which conjugacy preconditions already enforce. Where L^-1 z lies
    beyond beta's support_radius, beta vanishes there and the map returns
    L^-1 z (up to signed zeros); it declares that as its linear_outside,
    (the matrix of L^-1, that radius), which lets Gamma end its walks early.
    """
    inv, tag = op.inverse().dense_matrix(), op.norm_tag

    def backward(z: np.ndarray) -> np.ndarray:
        y = inv @ z
        for _ in range(POINTWISE_INVERSE_CAP):
            y_next = inv @ (z - beta(y))
            step = array_norm(y_next - y, tag)
            y = y_next
            if step <= POINTWISE_INVERSE_TOL * (1.0 + array_norm(y, tag)):
                return y
        check_finite(y)
        raise NoConvergence(
            f"pointwise inverse did not settle in {POINTWISE_INVERSE_CAP} iterations"
        )

    backward.linear_outside = (inv, getattr(beta, "support_radius", math.inf))
    return backward


@dataclass(frozen=True)
class InverseConjugacy:
    """(id + field) o (L + beta) = L o (id + field), from one Gamma pass."""

    field: Callable
    horizons: SeriesConstants
    backward_factor: float


def inverse_conjugacy(
    op: LinOp,
    split: Splitting,
    beta,
    tol: float = 1e-8,
) -> InverseConjugacy:
    """The inverse conjugacy: Gamma(-beta) along the trajectories of the
    perturbed map M = L + beta, forward through M and backward through
    perturbed_backward_map. Beyond beta's support ball both maps are L and
    L^-1 (up to signed zeros), and declare it, so Gamma's walks exit there
    as they do along L. The horizons are those of tol; a pointwise inverse
    whose factor ||L^-1|| lip(beta) reaches 0.9 is refused with
    NotContraction, a singular operator with NotInvertible.
    """
    inv = op.inverse()  # refuse a singular operator as such, first
    horizons = compute_horizons(op, split, beta.sup_norm, tail_tol=tol * 1e-2)
    backward_factor = inv.operator_norm() * beta.lip
    if backward_factor >= 0.9:
        raise NotContraction(
            f"pointwise inverse factor {backward_factor:.6g} too close to 1",
            factor=backward_factor,
        )

    matrix = op.dense_matrix()

    def forward(y: np.ndarray) -> np.ndarray:
        return matrix @ y + beta(y)

    forward.linear_outside = (matrix, beta.support_radius)
    backward = perturbed_backward_map(op, beta)
    fld = ConjugacyField(op, split, _NegatedField(beta), 1, horizons, forward, backward)
    return InverseConjugacy(field=fld, horizons=horizons, backward_factor=backward_factor)


def inverse_residual(op: LinOp, beta, h_prime: Callable, points: Sequence[DenseVector]) -> float:
    """max over points of ||beta(x) + h'(Mx) - L h'(x)|| with M = L + beta."""
    worst = 0.0
    for x in points:
        bx = beta(x.coords)
        mx = DenseVector(op.apply(x).coords + bx, op.norm_tag)
        res = bx + h_prime(mx).coords - op.apply(h_prime(x)).coords
        worst = max(worst, array_norm(res, op.norm_tag))
    return worst


# ---------------------------------------------------------------------------
# Local linearization of a differentiable map at a hyperbolic fixed point
# ---------------------------------------------------------------------------


def _cutoff(t: float) -> float:
    if t <= 1.0:
        return 1.0
    if t >= 2.0:
        return 0.0
    return (1.0 - (t - 1.0) ** 2) ** 2


class _CutoffField:
    """chi(|y| / r) * h(y), h(y) = G(y) - L y: the recentered nonlinearity,
    killed smoothly between radius r and 2r so it is globally bounded
    Lipschitz. From the map's entrywise bounds (b, B) = bounds(2r) on |h|
    and |Dh|, sup_norm = ||b|| and lip = ||B|| + ||b|| PHI_LIP_MAX / r bound
    it up to the rounding of the closed forms: |chi| <= 1, chi's slope is at
    most PHI_LIP_MAX (it is the bump's profile), and the l1, l2 and linf
    norms are monotone in the moduli of the entries.
    """

    def __init__(self, G, matrix, radius, norm_tag, bounds):
        self.G = G
        self.matrix = matrix
        self.radius = radius
        self.norm_tag = norm_tag
        b, B = bounds(2.0 * radius)
        self.sup_norm = array_norm(b, norm_tag)
        self.lip = mat_norm(B, norm_tag) + self.sup_norm * PHI_LIP_MAX / radius
        self.support_radius = 2.0 * radius

    def __call__(self, y: np.ndarray) -> np.ndarray:
        t = array_norm(y, self.norm_tag) / self.radius
        if t >= 2.0:
            return y * 0j
        return (self.G(y) - self.matrix @ y) * complex(_cutoff(t))


@dataclass(frozen=True)
class LocalLinearization:
    """Local conjugacy K with K o G = L o K near the fixed point, in
    recentered coordinates (z = original - fixed point). factor, Gamma's
    series bound times the bound cutoff_lip, is the contraction factor."""

    map: DifferentiableMap
    fixed_point: DenseVector
    op: DenseOp
    radius: float
    solution: InverseConjugacy
    cutoff_sup: float
    cutoff_lip: float
    factor: float

    def conjugacy(self, z: DenseVector) -> DenseVector:
        return z + self.solution.field(z)

    def recentered_map(self, z: DenseVector) -> DenseVector:
        p = self.fixed_point.coords
        return DenseVector(self.map(z.coords + p) - p, z.norm_tag)

    def residual(self, points: Sequence[DenseVector]) -> float:
        """max over recentered points (inside the inner ball, where the
        cutoff is the identity) of ||K(G(z)) - L(K(z))||."""
        worst = 0.0
        for z in points:
            if z.norm() > self.radius:
                raise ValueError("residual points must lie in the inner ball")
            lhs = self.conjugacy(self.recentered_map(z))
            rhs = self.op.apply(self.conjugacy(z))
            worst = max(worst, (lhs - rhs).norm())
        return worst


def grobman_hartman_local(
    map_obj: DifferentiableMap, box_radius: float = 1.0, tol: float = 1e-6
) -> LocalLinearization:
    """Local linearization at the map's hyperbolic fixed point.

    Recenters the map, splits the derivative off the unit circle, then
    halves the cutoff radius from box_radius until the Lipschitz bound of
    the cut-off nonlinearity, from the map's declared bounds, is small
    enough for the one-pass inverse conjugacy. The bounds hold up to the
    rounding of their closed forms. A map that declares no bounds, and a
    derivative spectrum near the circle, are refused with NotCertified.
    """
    if map_obj.bounds is None:
        raise NotCertified(f"map {map_obj.name!r} declares no bounds on its nonlinearity")
    if map_obj.fixed_point is None:
        raise ValueError("the map declares no fixed point")
    p_arr = np.asarray(map_obj.fixed_point, dtype=complex)
    p_vec = DenseVector(p_arr, map_obj.norm_tag)
    fp_defect = array_norm(map_obj(p_arr) - p_arr, map_obj.norm_tag)
    if fp_defect > 1e-9 * (1.0 + p_vec.norm()):
        raise ValueError(f"fixed-point defect {fp_defect:.3g} too large at p")
    matrix = map_obj.jac(p_arr)
    op = DenseOp(matrix, map_obj.norm_tag)
    try:
        split = spectral_split(op)
    except CircleEigenvalue as exc:
        raise NotCertified(
            "derivative spectrum touches the unit circle; no hyperbolic model"
        ) from exc
    gamma_bound = series_constants(op, split).upper
    inv_norm = op.inverse().operator_norm()

    def G(z: np.ndarray) -> np.ndarray:
        return check_finite(map_obj(z + p_arr) - p_arr)

    radius = box_radius
    while True:
        beta = _CutoffField(G, matrix, radius, map_obj.norm_tag, map_obj.bounds)
        factor = gamma_bound * beta.lip
        if factor <= 0.5 and inv_norm * beta.lip <= 0.5:
            break
        radius /= 2.0
        if radius < MIN_CUTOFF_RADIUS:
            raise NotCertified(
                f"no certifiable radius above {MIN_CUTOFF_RADIUS:g}; last factor {factor:.3g}"
            )
    solution = inverse_conjugacy(op, split, beta, tol=tol)
    return LocalLinearization(
        map=map_obj,
        fixed_point=p_vec,
        op=op,
        radius=radius,
        solution=solution,
        cutoff_sup=beta.sup_norm,
        cutoff_lip=beta.lip,
        factor=factor,
    )


# ---------------------------------------------------------------------------
# Contractive series replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractiveSumReport:
    gamma: float
    spectral_radius: float
    trials: int
    violations: int
    max_ratio: float


def verify_contractive_sum(
    op: LinOp,
    trials: int = 20,
    seq_len: int = 20,
    rng_seed: int = 0,
) -> ContractiveSumReport:
    """Check ||sum_k L^k x_k|| <= gamma * sup ||x_k|| on random sequences,
    with gamma = sum ||L^k|| summed to a certified-small tail.

    The same gamma is the shadowing constant of the contraction: its
    spectral splitting is all stable, so the series upper bound collapses
    to exactly this sum. The samples are dense vectors, so an operator
    without a dense matrix is refused before any power is taken.
    """
    dim = op.dense_matrix().shape[0]
    radius = op.spectral_radius()
    if radius >= 1.0 - 1e-9:
        raise NotContractiveSpectrum(
            f"spectral radius {radius:.9g} is not below 1", radius=radius
        )
    # closed with the block-geometric remainder, not the spectral radius: on
    # a non-normal operator the radius does not bound ||L^(n+1)|| / ||L^n||
    gamma, _ = _sum_until_tail(op.power_norms(), 0, SERIES_TAIL)
    rng = rng_from_seed(rng_seed)
    violations = 0
    max_ratio = 0.0
    for _ in range(trials):
        xs = unit_dense_samples(dim, op.norm_tag, seq_len, rng)
        acc = xs[0] * 0.0
        for x in reversed(xs):
            acc = op.apply(acc) + x
        ratio = acc.norm() / gamma
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + 1e-9:
            violations += 1
    return ContractiveSumReport(
        gamma=gamma,
        spectral_radius=radius,
        trials=trials,
        violations=violations,
        max_ratio=max_ratio,
    )
