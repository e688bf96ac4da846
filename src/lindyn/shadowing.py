"""Pseudo-orbits, shadowing constructions, and two-sided Shad bounds.

A delta-pseudo-orbit is a finite point sequence whose one-step defects stay
below delta. The central construction corrects such a sequence into an exact
orbit: split every defect through P_S and P_U, map the stable part forward
and the unstable part backward. On a finite window with zero extension both
series are finite sums, computed here by recursions that re-project onto the
invariant side at every step so roundoff never excites the expanding block.

Every orbit computation runs once, on one of two kinds of point that `_kind`
picks per call: the orbit walk (`_Kind.walk`, which builds pseudo-orbits,
contraction shadows, window-solve trajectories and the integrated defects of
linf.shad_estimate_linf), the defect and exactness checks of max_defect and
verify_shadow, and both correction recursions; Gamma (stability) is dense
only and runs on coordinate arrays instead. The row kind serves a DenseOp
(with a SpectralSplit where one is needed) and DenseVectors of its tag and
dimension: points are the rows of (n, d) complex arrays, A, A_inv, P_S and
P_U are matrices, and each array is checked for finiteness once. The vector
kind serves everything else, sequence operators included: points are the
vectors, held in object arrays so that array arithmetic acts on them one by
one, A, A_inv, P_S and P_U are adapters whose @ calls apply, apply_P_S and
apply_P_U, and each vector is checked as it is built. Both do the same
arithmetic in the same order, bit for bit; images are one M @ x per row, as
in DenseOp.apply (rows @ M.T rounds differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatch, LindynError, NonContracting, NotCertified, NotInvertible
from .linalg import (
    DenseVector,
    array_norm,
    check_finite,
    max_row_norm,
    row_norms,
)
from .operators import DenseOp, LinOp
from .optim import min_max_norm
from .sampling import rng_from_seed, unit_dense_rows, unit_seq_samples
from .splitting import (
    GENERALIZED,
    HYPERBOLIC,
    HyperbolicityReport,
    RestrictedPowers,
    SpectralSplit,
    Splitting,
    classify,
    resolvent_norm_S,
    resolvent_norm_U_inv,
    spectral_split,
)

WINDOW_SOLVE_MAX_DIM = 8
WINDOW_SOLVE_MAX_LEN = 512
# A series is closed once its geometric remainder falls below SERIES_TAIL,
# and refused past SERIES_TERM_CAP terms.
SERIES_TAIL = 1e-12
SERIES_TERM_CAP = 10_000
# Absolute slack on the contraction shadow's error bound.
CONTRACTION_SLACK = 1e-10


@dataclass(frozen=True)
class PseudoOrbit:
    """Points indexed n0 .. n0 + len(points) - 1 with certified defect delta."""

    n0: int
    points: tuple
    delta: float

    @property
    def n1(self) -> int:
        return self.n0 + len(self.points) - 1


class _Apply:
    """The vector kind's stand-in for a matrix: M @ v calls a vector map."""

    def __init__(self, f):
        self.f = f

    def __matmul__(self, v):
        return self.f(v)


class _Kind:
    """One of the two kinds of point, rows or vectors; Gamma uses neither (see the module docstring)."""

    def __init__(self, op: LinOp, split: Optional[Splitting], rows: bool):
        self.op, self.rows, self.tag = op, rows, op.norm_tag
        self.A = op.matrix if rows else _Apply(op.apply)
        if split is not None:
            self.P_S = split.P_S if rows else _Apply(split.apply_P_S)
            self.P_U = split.P_U if rows else _Apply(split.apply_P_U)

    @property
    def A_inv(self):
        inv = self.op.inverse()
        return inv.matrix if self.rows else _Apply(inv.apply)

    def empty(self, n: int) -> np.ndarray:
        return np.empty((n, self.op.dim), dtype=complex) if self.rows else np.empty(n, dtype=object)

    def point(self, v):
        return v.coords if self.rows else v

    def points(self, vectors: Sequence) -> np.ndarray:
        out = self.empty(len(vectors))
        for k, v in enumerate(vectors):
            out[k] = self.point(v)
        return out

    def from_rows(self, rows: np.ndarray, tag: str) -> np.ndarray:
        """Points from the rows of an (n, d) array, as dense vectors of tag."""
        return rows if self.rows else self.points(DenseVector.from_rows(rows, tag))

    def vectors(self, points) -> tuple:
        return DenseVector.from_rows(points, self.tag) if self.rows else tuple(points)

    def finite(self, points: np.ndarray) -> np.ndarray:
        return check_finite(points) if self.rows else points

    def finite_mask(self, points: np.ndarray) -> np.ndarray:
        """Which points are finite; a vector always is, once built."""
        return np.isfinite(points).all(axis=1) if self.rows else np.ones(len(points), bool)

    def norm(self, p) -> float:
        return array_norm(p, self.tag) if self.rows else p.norm()

    def norms(self, points: np.ndarray) -> np.ndarray:
        if self.rows:
            return row_norms(points, self.tag)
        return np.array([p.norm() for p in points], dtype=float)

    def sup(self, points: np.ndarray) -> float:
        if self.rows:
            return max_row_norm(points, self.tag)
        return max((p.norm() for p in points), default=0.0)

    def walk(self, start, steps: int, step=None) -> np.ndarray:
        """The orbit start, A start, ... over steps steps; step(i, img), if
        given, turns the i-th image into the next point. Overflow propagates
        once it starts, so rows are checked every 64 steps, which refuses an
        overflowing walk near its first non-finite row, not at its end."""
        A = self.A
        points = self.empty(steps + 1)
        points[0] = x = start
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(steps):
                img = A @ x
                x = img if step is None else step(i, img)
                points[i + 1] = x
                if self.rows and i % 64 == 0:
                    check_finite(x)
        return points


def _kind(op: LinOp, split: Optional[Splitting], vectors: Sequence) -> _Kind:
    """Rows for a DenseOp, a SpectralSplit or no split, and dense vectors, all
    of one norm tag and dimension; for everything else vectors, whose
    arithmetic also raises the mismatch errors."""
    rows = False
    if isinstance(op, DenseOp) and vectors:
        key = (op.norm_tag, op.dim)
        rows = (
            split is None or isinstance(split, SpectralSplit) and (split.norm_tag, split.dim) == key
        ) and all(isinstance(v, DenseVector) and (v.norm_tag, v.dim) == key for v in vectors)
    return _Kind(op, split, rows)


def _images(A, points: np.ndarray) -> np.ndarray:
    """A @ x for every point x; the kind refuses overflowed images as non-finite."""
    out = np.empty_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(points):
            out[k] = A @ x
    return out


def max_defect(op: LinOp, points: Sequence) -> float:
    k = _kind(op, None, points)
    pts = k.points(points)
    return k.sup(k.finite(pts[1:] - _images(k.A, pts[:-1])))


def pseudo_orbit(op: LinOp, n0: int, points: Sequence, delta: float) -> PseudoOrbit:
    """Build a pseudo-orbit, re-verifying every defect against delta."""
    pts = tuple(points)
    if not pts:
        raise ValueError("a pseudo-orbit needs at least one point")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    worst = max_defect(op, pts)
    if worst > delta * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"defect {worst:.6g} exceeds declared delta {delta:.6g}")
    return PseudoOrbit(n0=n0, points=pts, delta=delta)


def generate_pseudo_orbit(
    op: LinOp,
    seed,
    window: tuple[int, int],
    delta: float,
    rng_seed: int,
) -> PseudoOrbit:
    """Walk forward from the seed, perturbing each step by at most delta.

    Perturbation directions are unit vectors from the seeded generator and
    magnitudes are uniform in [0, delta), so the declared delta is certified
    by construction and re-verified on assembly.
    """
    n0, n1 = window
    if n1 < n0:
        raise ValueError("window must satisfy n0 <= n1")
    if n0 < 0 and not op.invertible():
        raise NotInvertible("negative window start needs an invertible operator")
    rng = rng_from_seed(rng_seed)
    steps = n1 - n0
    k = _kind(op, None, [seed])
    dirs = None
    if isinstance(seed, DenseVector):
        dirs = k.from_rows(unit_dense_rows(seed.dim, seed.norm_tag, steps, rng), seed.norm_tag)

    def unit(i: int, img):
        if dirs is not None:
            return dirs[i]
        sup = img.support()
        lo = (sup[0] if sup else 0) - 1
        hi = (sup[-1] if sup else 0) + 1
        return unit_seq_samples(lo, hi, img.norm_tag, 1, rng, support=2)[0]

    def perturb(i: int, img):
        x = img + unit(i, img) * complex(delta * rng.uniform(0.0, 1.0))
        # once the orbit magnitude reaches delta / ulp the stored sum can
        # round to a defect above delta; drop such a step entirely so the
        # declared delta stays certified
        return img if k.norm(x - img) > delta else x

    points = k.walk(k.point(seed), steps, perturb)
    return pseudo_orbit(op, n0, k.vectors(points), delta)


# ---------------------------------------------------------------------------
# Series constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesConstants:
    """Certified sums of the Green's-function terms of a splitting.

    series_A sums ||L^k P_S|| over k >= 0 and series_B sums ||L^-k P_U||
    over k >= 1 (see RestrictedPowers); a_terms and b_terms are the terms
    summed, before the closing remainder. The correction of a defect
    sequence z is sum_k L^k P_S z - sum_k L^-k P_U z, so upper bounds both
    the shadowing constant and the correction map Gamma.
    """

    series_A: float
    series_B: float
    a_terms: tuple[float, ...]
    b_terms: tuple[float, ...]

    @property
    def upper(self) -> float:
        return self.series_A + self.series_B


def _sum_until_tail(term_fn, start: int, tail: float, certified_ratio: Optional[float]):
    terms: list[float] = []
    total = 0.0
    ratios: list[float] = []
    k = start
    while True:
        t = term_fn(k)
        terms.append(t)
        total += t
        if t == 0.0:
            break
        if len(terms) >= 2 and terms[-2] > 0.0:
            ratios.append(t / terms[-2])
            ratios = ratios[-4:]
        q_candidates = []
        if certified_ratio is not None and certified_ratio < 1.0:
            q_candidates.append(certified_ratio)
        if len(ratios) >= 3:
            q_obs = max(ratios)
            if q_obs < 1.0:
                q_candidates.append(q_obs)
        if q_candidates:
            q = min(q_candidates)
            rem = t * q / (1.0 - q)
            if rem < tail:
                # close the series with the geometric remainder so the total
                # stays an upper bound of the full sum
                total += rem
                break
        k += 1
        if k - start > SERIES_TERM_CAP:
            raise NotCertified(
                f"series did not certify convergence within {SERIES_TERM_CAP} terms",
                terms=SERIES_TERM_CAP,
            )
    return total, tuple(terms)


def series_constants(op: LinOp, split: Splitting, tail: float = SERIES_TAIL) -> SeriesConstants:
    """Certified sums A = sum_{k>=0} ||L^k P_S|| and B = sum_{k>=1} ||L^-k P_U||.

    Remainders are bounded by the certified side rate when one is available
    (spectral splits) and otherwise by the observed decay after onset. Each
    side's terms form one sequence, shared by the radius envelope and the
    sum, so every power is computed once. A spectral split with an
    ill-conditioned eigenbasis is refused (see RestrictedPowers).
    """
    powers_S, powers_U = RestrictedPowers(op, split, "S"), RestrictedPowers(op, split, "U")
    r_s, r_u = powers_S.radius(), powers_U.radius()
    for r, side in ((r_s, "S"), (r_u, "U")):
        if r >= 1.0:
            raise NotCertified(
                f"restricted radius on {side} is {r:.6g} >= 1; series cannot converge",
            )
    # both radii are below 1 here, or NaN, which _sum_until_tail ignores
    A, a_terms = _sum_until_tail(powers_S, 0, tail, r_s)
    B, b_terms = _sum_until_tail(powers_U, 1, tail, r_u)
    return SeriesConstants(series_A=A, series_B=B, a_terms=a_terms, b_terms=b_terms)


@dataclass(frozen=True)
class ShadBounds:
    """Two-sided bounds on the shadowing constant.

    upper = series_A + series_B sums the Green's-function terms
    ||L^k P_S|| and ||L^-k P_U|| (see series_constants); lower comes from
    the resolvent norms on the restricted sides, witnessed by constant
    defect sequences.
    """

    upper: float
    lower: float
    series_A: float
    series_B: float


def shad_bounds(op: LinOp, split: Splitting) -> ShadBounds:
    sc = series_constants(op, split)
    upper = sc.upper
    lower = max(resolvent_norm_S(op, split), resolvent_norm_U_inv(op, split))
    if lower > upper + 1e-9:
        raise NotCertified(
            f"lower bound {lower:.9g} exceeds upper bound {upper:.9g}",
        )
    return ShadBounds(
        upper=upper,
        lower=lower,
        series_A=sc.series_A,
        series_B=sc.series_B,
    )


# ---------------------------------------------------------------------------
# Shadow construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadowResult:
    """An exact orbit over the window and its distance to the pseudo-orbit.

    sup_error is the distance of the stored trajectory to the points, as
    verify_shadow measures it, and constant_used * delta bounds it. lower is
    set by the window solve alone (see shadow_window_solve): a certified
    lower bound on the distance of every exact orbit, so the best orbit
    lies in [lower, sup_error]. Every other method leaves it None.
    """

    shadow_seed: object
    trajectory: tuple
    sup_error: float
    constant_used: float
    method: str
    lower: Optional[float] = None


def verify_shadow(op: LinOp, po: PseudoOrbit, res: ShadowResult) -> None:
    """Re-check the two invariants: exact orbit, and the error bound."""
    traj = res.trajectory
    if len(traj) != len(po.points):
        raise NotCertified("trajectory length does not match the window")
    k = _kind(op, None, (*traj, *po.points))
    pts = k.points(traj)
    imgs = _images(k.A, pts[:-1])
    diffs = pts[1:] - imgs
    defects = k.norms(diffs)
    # non-finite rows fail too, so the first failing offset decides between
    # the finiteness error and the exactness error
    ok = k.finite_mask(diffs) & (defects <= 1e-12 * (1.0 + k.norms(imgs)))
    if not ok.all():
        i = int(np.argmin(ok))
        k.finite(diffs[i : i + 1])
        raise NotCertified(
            f"trajectory defect {defects[i]:.3g} at offset {i} breaks orbit exactness"
        )
    sup = k.sup(k.finite(pts - k.points(po.points)))
    if sup > res.constant_used * po.delta + 1e-9:
        raise NotCertified(
            f"sup error {sup:.6g} exceeds {res.constant_used:.6g} * delta + 1e-9"
        )


def _series_memo(op: LinOp, split: Splitting) -> dict:
    """The memo of classify and series_constants for (op, split), held on the
    split like DenseOp's inverse; the entry keeps op, so its id is not reused
    while the entry lives."""
    held, memo = split.memo.get(id(op), (None, None))
    if held is not op:
        memo = {}
        split.memo[id(op)] = (op, memo)
    return memo


def _series_points(k: _Kind, rows: np.ndarray) -> np.ndarray:
    """The points x_n + e_n of the splitting-series orbit through rows.

    Defect convention x_{n+1} = L(x_n) - z_n, so the corrections solve
    e_{n+1} = L(e_n) + z_n: the stable part runs forward from 0 and the
    unstable part backward through the inverse from 0, re-projected every
    step. A non-finite correction makes its point non-finite, which the
    caller's kind refuses.
    """
    zs = k.finite(_images(k.A, rows[:-1]) - rows[1:])
    A, A_inv, P_S, P_U = k.A, k.A_inv, k.P_S, k.P_U
    F, Bwd = np.empty_like(rows), np.empty_like(rows)
    F[0] = Bwd[-1] = f = b = rows[0] * 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for i, z in enumerate(zs):
            f = P_S @ (A @ f + P_S @ z)
            F[i + 1] = f
        for i in range(len(zs) - 1, -1, -1):
            b = P_U @ (A_inv @ (b + P_U @ zs[i]))
            Bwd[i] = b
        return rows + (F - Bwd)


def shadow_splitting_series(
    op: LinOp, split: Splitting, po: PseudoOrbit, report: Optional[HyperbolicityReport] = None
) -> ShadowResult:
    """Correct a pseudo-orbit into an exact orbit through the splitting.

    Needs a Hyperbolic or GeneralizedHyperbolic certificate. On the finite
    window both correction series are finite sums; they are evaluated by a
    forward recursion on the stable side and a backward recursion through
    the inverse on the unstable side, re-projecting every step (see
    _series_points). sup_error is the distance of the stored trajectory to
    the points, as verify_shadow measures it. The classification and the
    series constants are computed once per (op, split).
    """
    memo = _series_memo(op, split)
    if report is None:
        if "report" not in memo:
            memo["report"] = classify(op, split)
        report = memo["report"]
    if report.klass not in (HYPERBOLIC, GENERALIZED):
        raise NotCertified(
            f"splitting-series shadowing needs a certificate; classification is {report.klass}"
        )
    if "constants" not in memo:
        memo["constants"] = series_constants(op, split)
    k = _kind(op, split, po.points)
    rows = k.points(po.points)
    points = _series_points(k, rows)
    trajectory = k.vectors(points)
    result = ShadowResult(
        shadow_seed=trajectory[0],
        trajectory=trajectory,
        sup_error=k.sup(k.finite(points - rows)),
        constant_used=memo["constants"].upper,
        method="splitting_series",
    )
    verify_shadow(op, po, result)
    return result


def shadow_contraction(op: LinOp, po: PseudoOrbit) -> ShadowResult:
    """Shadow a pseudo-orbit of a norm contraction by the exact orbit of its
    first point, the fixed point of the anchored sequence map
    (x_n) -> (x_0, L x_0, L x_1, ...); the error never exceeds
    delta / (1 - lambda)."""
    lam = op.operator_norm()
    if lam >= 1.0:
        raise NonContracting(
            f"operator norm {lam:.6g} is not below 1", ratio=lam, bound=1.0
        )
    k = _kind(op, None, po.points)
    points = k.points(po.points)
    traj = k.walk(points[0], len(points) - 1)
    sup_error = k.sup(k.finite(traj - points))
    constant = 1.0 / (1.0 - lam)
    if sup_error > constant * po.delta + CONTRACTION_SLACK:
        raise NotCertified(
            f"contraction shadow error {sup_error:.6g} exceeds delta/(1-lambda) + tol"
        )
    trajectory = k.vectors(traj)
    result = ShadowResult(
        shadow_seed=trajectory[0],
        trajectory=trajectory,
        sup_error=sup_error,
        constant_used=constant,
        method="contraction_fixed_point",
    )
    verify_shadow(op, po, result)
    return result


def _orbit_basis(K: np.ndarray, Q: np.ndarray, count: int) -> np.ndarray:
    """K^n Q for n = 0 .. count - 1 as a (count, d, k) array, by doubling."""
    out = np.empty((count, *Q.shape), dtype=complex)
    out[0] = Q
    filled, power = 1, K
    while filled < count:
        step = min(filled, count - filled)
        out[filled : filled + step] = power @ out[:step]
        filled += step
        if filled < count:
            power = power @ power
    return out


def shadow_window_solve(op: LinOp, po: PseudoOrbit) -> ShadowResult:
    """The best exact orbit over the window, with a certified bracket.

    Every exact orbit is y_n = p_n + A_n w for a particular orbit p and a
    complex w, so the best one solves the convex problem
    min_w max_n ||A_n w + e_n|| with e_n = p_n - x_n (optim.min_max_norm).
    Where the operator has a spectral split and an inverse, the problem is
    posed in defect coordinates: p is the splitting-series orbit, bit for
    bit, and A_n w = L^n Q_S a + L^(n-N) Q_U b, with Q_S and Q_U orthonormal
    bases of the ranges of P_S and P_U carried forward by P_S L and backward
    by P_U L^-1, so no coefficient grows past the eigenbasis condition. Where
    there is no split (a spectrum touching the circle), the problem is posed
    in seed coordinates: p is the orbit of the first point and A_n = L^n.

    sup_error is the distance of the returned trajectory to the points, as
    verify_shadow measures it, and never exceeds that of p (w = 0), so in
    defect coordinates the window never loses to the splitting series.
    lower is the value of a feasible point of the Lagrangian dual:
    max_n ||A_n w + e_n|| >= Re sum y_n^H e_n for all w when
    sum A_n^H y_n = 0 and sum ||y_n||_* <= 1, with the residual of the
    equality paid for. It bounds the distance of every exact orbit from
    below, up to the rounding of the stored points; it is capped at
    sup_error, whose trajectory is one such orbit.
    """
    if not isinstance(po.points[0], DenseVector):
        raise KindMismatch("window solving works on dense vectors")
    dim = po.points[0].dim
    if dim > WINDOW_SOLVE_MAX_DIM:
        raise ValueError(f"window solving is limited to dimension {WINDOW_SOLVE_MAX_DIM}")
    if len(po.points) > WINDOW_SOLVE_MAX_LEN:
        raise ValueError(f"window solving is limited to {WINDOW_SOLVE_MAX_LEN} points")
    tag = op.norm_tag
    if any(p.norm_tag != tag or p.dim != dim for p in po.points):
        raise KindMismatch("dense vectors disagree in norm tag or dimension")
    dense = op if isinstance(op, DenseOp) else DenseOp(op.dense_matrix(), tag)
    try:
        split: Optional[SpectralSplit] = spectral_split(dense)
        M_inv = dense.inverse().matrix
    except LindynError:
        split = None
    k = _kind(dense, split, po.points)
    rows = k.points(po.points)
    count = len(rows)
    if split is None:
        particular = k.walk(rows[0], count - 1)
        A = _orbit_basis(dense.matrix, np.eye(dim, dtype=complex), count)
    else:
        particular = _series_points(k, rows)
        Q_S = np.linalg.qr(split.V_S)[0]
        Q_U = np.linalg.qr(split.V_U)[0]
        A = np.concatenate(
            [
                _orbit_basis(split.P_S @ dense.matrix, Q_S, count),
                _orbit_basis(split.P_U @ M_inv, Q_U, count)[::-1],
            ],
            axis=2,
        )
    offsets = k.finite(particular - rows)
    sol = min_max_norm(k.finite(A), offsets, tag)
    points, sup_error = particular, max_row_norm(offsets, tag)
    if sol.value < sup_error:
        if split is None:
            candidate = k.walk(rows[0] + sol.w, count - 1)
        else:
            candidate = particular + A @ sol.w
        dist = max_row_norm(k.finite(candidate - rows), tag)
        if dist < sup_error:
            points, sup_error = candidate, dist
    traj = k.vectors(points)
    if sup_error == 0.0:
        constant = 0.0
    elif po.delta > 0.0:
        constant = sup_error / po.delta
        # the quotient can round low; on a large sup_error (posed on the
        # seed, orbits can pass 1e60) by more than verify_shadow's absolute
        # slack can absorb
        while constant * po.delta < sup_error:
            constant = math.nextafter(constant, math.inf)
    else:
        constant = math.inf
    result = ShadowResult(
        shadow_seed=traj[0],
        trajectory=traj,
        sup_error=sup_error,
        constant_used=constant,
        method="window_solve",
        lower=min(sol.lower, sup_error),
    )
    verify_shadow(op, po, result)
    return result


# ---------------------------------------------------------------------------
# Interval calculus for shadowing constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0 or self.upper < 0:
            raise ValueError("shadowing constants are nonnegative")
        if self.lower > self.upper * (1.0 + 1e-12):
            raise ValueError("interval is empty")


def shad_conjugate(iv: ShadInterval, h_norm: float, h_inv_norm: float) -> ShadInterval:
    """Transport an interval through a bi-Lipschitz linear conjugacy."""
    kappa = h_norm * h_inv_norm
    if kappa < 1.0 - 1e-12:
        raise ValueError("||H|| * ||H^-1|| cannot be below 1")
    kappa = max(kappa, 1.0)
    return ShadInterval(iv.lower / kappa, iv.upper * kappa)


def shad_product(a: ShadInterval, b: ShadInterval) -> ShadInterval:
    """Direct sums under the max norm take the worse factor, exactly."""
    return ShadInterval(max(a.lower, b.lower), max(a.upper, b.upper))


def shad_inverse(iv: ShadInterval, op_norm: float, inv_norm: float) -> ShadInterval:
    """Interval for the inverse operator from the interval of the original.

    Index reversal turns a delta-pseudo-orbit of the inverse into a
    (op_norm * delta)-pseudo-orbit of the original, so the constant of the
    inverse is at most op_norm times the original's; applying the same with
    the roles swapped gives the inv_norm lower transport.
    """
    if op_norm <= 0 or inv_norm <= 0:
        raise ValueError("norms must be positive")
    return ShadInterval(iv.lower / inv_norm, iv.upper * op_norm)


def shad_calculus(rule: str, **kwargs) -> ShadInterval:
    if rule == "conjugacy":
        return shad_conjugate(kwargs["interval"], kwargs["h_norm"], kwargs["h_inv_norm"])
    if rule == "product":
        return shad_product(kwargs["first"], kwargs["second"])
    if rule == "inverse":
        return shad_inverse(kwargs["interval"], kwargs["op_norm"], kwargs["inv_norm"])
    raise ValueError(f"unknown calculus rule {rule!r}")
