"""Pseudo-orbits, shadowing constructions, and two-sided Shad bounds.

A delta-pseudo-orbit is a finite point sequence whose one-step defects stay
below delta. The central construction corrects such a sequence into an exact
orbit: split every defect through P_S and P_U, map the stable part forward
and the unstable part backward. On a finite window with zero extension both
series are finite sums of re-projected steps (P_S L forward, P_U L^-1
backward), so roundoff never excites the expanding block.

PseudoOrbit.points and ShadowResult.trajectory are one read-only array: the
rows of an (n, d) complex array for a dense orbit, an (n,) object array of
vectors for a sequence one. Vectors become points once, where they enter
(pseudo_orbit, generate_pseudo_orbit's seed), with their kind, norm tag,
dimension and finiteness checked; every entry point compares the orbit's
tag and width with the operator's once (`_kind`). All orbit arithmetic runs
on `_Kind`: rows for a DenseOp, vectors for every other operator, where the
maps are apply, apply_P_S and apply_P_U, called on the vectors of object
arrays one by one (a dense CompositionOp's rows are wrapped as
DenseVectors). A walk and the one-step defects take one M @ x per row, as in
DenseOp.apply, and so round as the vector kind does: rows @ M.T rounds
differently, by an ulp of images that can pass 1e60. The correction series
(_series_points) is a doubling scan on rows and a step recursion on vectors,
and the exactness check batches its images; both are far inside their
tolerances. Gamma (stability) runs on coordinate arrays instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatch, LindynError, NonContracting, NotCertified, NotInvertible
from .linalg import (
    DenseVector,
    SparseBiSeq,
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
# A series is closed once its block-geometric remainder falls below SERIES_TAIL,
# and refused past SERIES_TERM_CAP terms.
SERIES_TAIL = 1e-12
SERIES_TERM_CAP = 10_000
# Absolute slack on the contraction shadow's error bound.
CONTRACTION_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """Points indexed n0 .. n0 + len(points) - 1 with certified defect delta,
    stored as the module docstring says, in the norm norm_tag. Its one-step
    defects are measured wherever they are needed, under the operator at
    hand (see _defects)."""

    n0: int
    points: np.ndarray
    delta: float
    norm_tag: str

    @property
    def n1(self) -> int:
        return self.n0 + len(self.points) - 1


def _stored(points: np.ndarray) -> np.ndarray:
    """points as an orbit stores them, made read-only: dense rows are
    checked finite here, vectors were checked as they were built."""
    if points.dtype != object:
        check_finite(points)
    points.setflags(write=False)
    return points


def _stack(op: LinOp, vectors: Sequence) -> np.ndarray:
    """The stored points of vectors entering as an orbit of op: all of op's
    kind of vector and norm tag, dense ones of one dimension."""
    vectors = tuple(vectors)
    if not vectors:
        raise ValueError("a pseudo-orbit needs at least one point")
    dense = op.vector_kind == "dense"
    cls = DenseVector if dense else SparseBiSeq
    if not all(isinstance(v, cls) and v.norm_tag == op.norm_tag for v in vectors) or (
        dense and len({v.dim for v in vectors}) > 1
    ):
        raise KindMismatch("points disagree with the operator in kind, norm tag or dimension")
    return _stored(np.array([v.coords for v in vectors]) if dense else np.fromiter(vectors, object))


class _Kind:
    """One of the two kinds of point, rows or vectors; Gamma uses neither (see the module docstring)."""

    def __init__(self, op: LinOp, split: Optional[Splitting], rows: bool, wrap: bool):
        self.op, self.split, self.rows, self.wrap, self.tag = op, split, rows, wrap, op.norm_tag
        # A maps one point: M @ x on a row, apply on a vector
        self.A = op.matrix.__matmul__ if rows else op.apply

    def load(self, points: np.ndarray) -> np.ndarray:
        """The kind's points for stored ones (see _kind for wrap)."""
        return np.fromiter(DenseVector.from_rows(points, self.tag), object) if self.wrap else points

    def store(self, points: np.ndarray) -> np.ndarray:
        """The stored form of the kind's points (see _stored)."""
        return _stored(np.array([p.coords for p in points]) if self.wrap else points)

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
        n = steps + 1
        points = np.empty((n, self.op.dim), dtype=complex) if self.rows else np.empty(n, object)
        points[0] = x = start
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(steps):
                img = A(x)
                x = img if step is None else step(i, img)
                points[i + 1] = x
                if self.rows and i % 64 == 0:
                    check_finite(x)
        return points


def _kind(op: LinOp, split: Optional[Splitting], points: np.ndarray, tag: str) -> _Kind:
    """The kind for the stored points, of norm tag tag, of an orbit of op,
    once their tag, kind and (for a DenseOp) width match op's. Rows serve a
    DenseOp with a SpectralSplit of its own or no split; vectors serve the
    rest, wrapping dense rows, and their arithmetic refuses any mismatch."""
    dense, rows = points.ndim == 2, isinstance(op, DenseOp)
    mismatch = tag != op.norm_tag or dense != (op.vector_kind == "dense")
    if mismatch or rows and points.shape[1] != op.dim:
        raise KindMismatch("orbit disagrees with the operator in norm tag, kind or dimension")
    if rows and split is not None:
        rows = isinstance(split, SpectralSplit) and (split.norm_tag, split.dim) == (tag, op.dim)
    return _Kind(op, split, rows, wrap=dense and not rows)


def _images(A, points: np.ndarray) -> np.ndarray:
    """A(x) for every point x; the kind refuses overflowed images as non-finite."""
    out = np.empty_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(points):
            out[k] = A(x)
    return out


def _defects(k: _Kind, pts: np.ndarray) -> np.ndarray:
    """The one-step defects z_n = A(x_n) - x_{n+1} of the kind's points."""
    return k.finite(_images(k.A, pts[:-1]) - pts[1:])


def max_defect(op: LinOp, po: PseudoOrbit) -> float:
    """The largest one-step defect of the orbit po under op."""
    k = _kind(op, None, po.points, po.norm_tag)
    return k.sup(_defects(k, k.load(po.points)))


def _certified(op: LinOp, po: PseudoOrbit) -> PseudoOrbit:
    """po, once every defect is re-verified against its delta."""
    if po.delta < 0:
        raise ValueError("delta must be nonnegative")
    worst = max_defect(op, po)
    if worst > po.delta * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"defect {worst:.6g} exceeds declared delta {po.delta:.6g}")
    return po


def pseudo_orbit(op: LinOp, n0: int, vectors: Sequence, delta: float) -> PseudoOrbit:
    """Build a pseudo-orbit from vectors, checked as they enter (see
    _stack), re-verifying every defect against delta."""
    return _certified(op, PseudoOrbit(n0, _stack(op, vectors), delta, op.norm_tag))


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
    start = _stack(op, [seed])
    k = _kind(op, None, start, op.norm_tag)
    dirs = None
    if isinstance(seed, DenseVector):
        dirs = k.load(unit_dense_rows(seed.dim, seed.norm_tag, steps, rng))

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

    points = k.walk(k.load(start)[0], steps, perturb)
    return _certified(op, PseudoOrbit(n0, k.store(points), delta, op.norm_tag))


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


def _sum_until_tail(term_fn, start: int, tail: float):
    """sum_{k >= start} term_fn(k) as (upper bound, terms summed).

    The terms are norms of powers of one operator on an invariant side, so
    t(k + m) <= t(m) t(k). Once some m >= 1 has rho = t(m) < 1, the terms
    after the last m computed ones sum, block by block, to at most their sum
    times rho / (1 - rho); the series closes when that remainder falls below
    tail. m is the computed index with the smallest rate rho^(1/m) so far,
    and the window sums come from prefix sums, so a term costs O(1).
    """
    terms: list[float] = []
    prefix = [0.0]
    m, rate = 0, 1.0
    for k in range(start, start + SERIES_TERM_CAP + 1):
        t = term_fn(k)
        terms.append(t)
        prefix.append(prefix[-1] + t)
        if k >= 1 and t < 1.0 and t ** (1.0 / k) < rate:
            m, rate = k, t ** (1.0 / k)
        if m:
            rho = terms[m - start]
            # the window's last term is t, which a difference of two large
            # prefix sums can round away
            window = max(prefix[-1] - prefix[-1 - m], t)
            rem = window * rho / (1.0 - rho)
            if rem < tail:
                return prefix[-1] + rem, tuple(terms)
    raise NotCertified(
        f"series did not certify convergence within {SERIES_TERM_CAP} terms",
        terms=SERIES_TERM_CAP,
    )


def series_constants(op: LinOp, split: Splitting, tail: float = SERIES_TAIL) -> SeriesConstants:
    """Certified sums A = sum_{k>=0} ||L^k P_S|| and B = sum_{k>=1} ||L^-k P_U||.

    Each sum is closed with the block-geometric remainder of _sum_until_tail.
    Each side's terms form one sequence, shared by the radius envelope and
    the sum, so every power is computed once. On a spectral split the sums
    hold up to the rounding of the computed P_S (see SpectralSplit).
    """
    powers_S, powers_U = RestrictedPowers(op, split, "S"), RestrictedPowers(op, split, "U")
    for r, side in ((powers_S.radius(), "S"), (powers_U.radius(), "U")):
        if r >= 1.0:
            raise NotCertified(
                f"restricted radius on {side} is {r:.6g} >= 1; series cannot converge",
            )
    A, a_terms = _sum_until_tail(powers_S, 0, tail)
    B, b_terms = _sum_until_tail(powers_U, 1, tail)
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
        raise NotCertified(f"lower bound {lower:.9g} exceeds upper bound {upper:.9g}")
    return ShadBounds(
        upper=upper,
        # the resolvent and the series round apart where the two meet
        lower=min(lower, upper),
        series_A=sc.series_A,
        series_B=sc.series_B,
    )


# ---------------------------------------------------------------------------
# Shadow construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShadowResult:
    """An exact orbit over the window and its distance to the pseudo-orbit.

    trajectory is stored as the pseudo-orbit's points are, and its first
    point is the shadow's seed. sup_error is the distance of the trajectory
    to the points, as verify_shadow measures it, and constant_used * delta
    bounds it. lower is set by the window solve alone (see
    shadow_window_solve): a certified lower bound on the distance of every
    exact orbit, so the best orbit lies in [lower, sup_error]. Every other
    method leaves it None.
    """

    trajectory: np.ndarray
    sup_error: float
    constant_used: float
    method: str
    lower: Optional[float] = None


def verify_shadow(op: LinOp, po: PseudoOrbit, res: ShadowResult) -> None:
    """Re-check the two invariants: exact orbit, and the error bound."""
    k = _kind(op, None, po.points, po.norm_tag)
    traj = res.trajectory
    if traj.shape != po.points.shape:
        raise NotCertified("trajectory shape does not match the window")
    pts = k.load(traj)
    if k.rows:
        # one batched product; its rounding is far inside the 1e-12 tolerance
        with np.errstate(over="ignore", invalid="ignore"):
            imgs = pts[:-1] @ k.op.matrix.T
    else:
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
    sup = k.sup(k.finite(pts - k.load(po.points)))
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


def _scan(K: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rows X_0 = 0, X_{i+1} = K X_i + c_i, i < len(c), as a doubling
    scan: the pass with P = K^s adds P X_{j-s} to every X_j, so after it
    each X_j holds the terms K^m c_{j-1-m} with m < 2s, and about
    log2(len(c)) batched products cover the window."""
    X = np.zeros((len(c) + 1, K.shape[0]), dtype=complex)
    X[1:] = c
    s, P = 1, K
    while s < len(X):
        X[s:] += X[:-s] @ P.T
        s *= 2
        if s < len(X):
            P = P @ P
    return X


def _correction(k: _Kind, zs: np.ndarray, zero) -> np.ndarray:
    """The bounded correction e of the defects zs over the window: e_0 .. e_n
    with e_{i+1} = L(e_i) + z_i, the stable part run forward from 0 and the
    unstable part backward through the inverse from 0. On rows, each part is
    a doubling scan (_scan) of its re-projected step, K_S = P_S M forward on
    P_S P_S z and K_U = P_U M^-1 backward on K_U P_U z; K_S and K_U vanish
    on the other side, so rounding never excites the expanding block. On
    vectors, each part is a step recursion, re-projected every step. A
    non-finite correction is returned as such, for the caller's kind to
    refuse. zero, the kind's zero point, starts the vector recursions.
    """
    split = k.split
    with np.errstate(over="ignore", invalid="ignore"):
        if k.rows:
            P_S, P_U = split.P_S, split.P_U
            K_S, K_U = P_S @ k.op.matrix, P_U @ k.op.inverse().matrix
            F = _scan(K_S, zs @ P_S.T @ P_S.T)
            Bwd = _scan(K_U, (zs[::-1] @ P_U.T) @ K_U.T)[::-1]
        else:
            A, A_inv, P_S, P_U = k.A, k.op.inverse().apply, split.apply_P_S, split.apply_P_U
            F, Bwd = np.empty(len(zs) + 1, object), np.empty(len(zs) + 1, object)
            F[0] = Bwd[-1] = f = b = zero
            for i, z in enumerate(zs):
                f = P_S(A(f) + P_S(z))
                F[i + 1] = f
            for i in range(len(zs) - 1, -1, -1):
                b = P_U(A_inv(b + P_U(zs[i])))
                Bwd[i] = b
        return F - Bwd


def _series_points(k: _Kind, rows: np.ndarray) -> np.ndarray:
    """The points x_n + e_n of the splitting-series orbit through rows.

    Defect convention x_{n+1} = L(x_n) - z_n, so the corrections solve
    e_{n+1} = L(e_n) + z_n (_correction). The defects z_n are measured as
    max_defect measures them, one image per point (_defects), so they are
    the ones that certified the orbit's delta.
    """
    zs = _defects(k, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return rows + _correction(k, zs, rows[0] * 0j)


def shadow_splitting_series(
    op: LinOp, split: Splitting, po: PseudoOrbit, report: Optional[HyperbolicityReport] = None
) -> ShadowResult:
    """Correct a pseudo-orbit into an exact orbit through the splitting.

    Needs a Hyperbolic or GeneralizedHyperbolic certificate. On the finite
    window both correction series are finite sums, forward on the stable
    side and backward through the inverse on the unstable side: doubling
    scans on a DenseOp's rows, step recursions on vectors, both on the
    defects that certified po, measured again under op (see
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
    k = _kind(op, split, po.points, po.norm_tag)
    rows = k.load(po.points)
    points = _series_points(k, rows)
    result = ShadowResult(
        trajectory=k.store(points),
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
    k = _kind(op, None, po.points, po.norm_tag)
    points = k.load(po.points)
    traj = k.walk(points[0], len(points) - 1)
    sup_error = k.sup(k.finite(traj - points))
    constant = 1.0 / (1.0 - lam)
    if sup_error > constant * po.delta + CONTRACTION_SLACK:
        raise NotCertified(
            f"contraction shadow error {sup_error:.6g} exceeds delta/(1-lambda) + tol"
        )
    result = ShadowResult(
        trajectory=k.store(traj),
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


def _as_dense(op: LinOp) -> DenseOp:
    """op as a DenseOp: itself, or its dense matrix under its norm tag."""
    return op if isinstance(op, DenseOp) else DenseOp(op.dense_matrix(), op.norm_tag)


def _defect_split(dense: DenseOp) -> Optional[SpectralSplit]:
    """The spectral split on which the window solve poses its problem in
    defect coordinates, or None where dense has no split or no inverse."""
    try:
        split = spectral_split(dense)
        dense.inverse()
    except LindynError:
        return None
    return split


def shadow_window_solve(op: LinOp, po: PseudoOrbit) -> ShadowResult:
    """The best exact orbit over the window, with a certified bracket.

    Every exact orbit is y_n = p_n + A_n w for a particular orbit p and a
    complex w, so the best one solves the convex problem
    min_w max_n ||A_n w + e_n|| with e_n = p_n - x_n (optim.min_max_norm).
    Where the operator has a spectral split and an inverse, the problem is
    posed in defect coordinates: p is the splitting-series orbit, bit for
    bit (the same scans of the same defects, see _series_points), and
    A_n w = L^n Q_S a + L^(n-N) Q_U b, with Q_S and Q_U the split's
    orthonormal bases of the ranges of P_S and P_U carried forward by P_S L
    and backward by P_U L^-1, so the coefficients of a side vector never
    exceed its l2 norm. The orbit is exact up to the rounding of the
    computed P_S, within verify_shadow's tolerance. Where there is no split
    (a spectrum touching the circle), the problem is posed in seed
    coordinates: p is the orbit of the first point and A_n = L^n.

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
    rows = po.points
    if rows.ndim != 2:
        raise KindMismatch("window solving works on dense vectors")
    count, dim = rows.shape
    if dim > WINDOW_SOLVE_MAX_DIM:
        raise ValueError(f"window solving is limited to dimension {WINDOW_SOLVE_MAX_DIM}")
    if count > WINDOW_SOLVE_MAX_LEN:
        raise ValueError(f"window solving is limited to {WINDOW_SOLVE_MAX_LEN} points")
    tag = op.norm_tag
    dense = _as_dense(op)
    split = _defect_split(dense)
    k = _kind(dense, split, rows, po.norm_tag)
    if split is None:
        particular = k.walk(rows[0], count - 1)
        A = _orbit_basis(dense.matrix, np.eye(dim, dtype=complex), count)
    else:
        particular = _series_points(k, rows)
        A = np.concatenate(
            [
                _orbit_basis(split.P_S @ dense.matrix, split.Q_S, count),
                _orbit_basis(split.P_U @ dense.inverse().matrix, split.Q_U, count)[::-1],
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
        trajectory=k.store(points),
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
