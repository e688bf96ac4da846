"""Pseudo-orbits, shadowing constructions, and two-sided Shad bounds.

A delta-pseudo-orbit is a finite point sequence whose one-step defects stay
below delta. The central construction corrects such a sequence into an exact
orbit: split every defect through P_S and P_U, map the stable part forward
and the unstable part backward. On a finite window with zero extension both
series are finite sums of powers of the re-projected steps, P_S L forward
and P_U L^-1 backward, so roundoff never excites the expanding block. Each
step is formed once per (op, split), by the side's RestrictedPowers.

PseudoOrbit.points and ShadowResult.trajectory are one read-only array: the
rows of an (n, d) complex array for a dense orbit, an (n,) object array of
vectors for a sequence one. Vectors become points once, where they enter
(pseudo_orbit, generate_pseudo_orbit's seed), with their kind, norm tag,
dimension and finiteness checked; every entry point compares the orbit's
tag and width, and the split's, with the operator's once (`_kind`). All
orbit arithmetic runs on `_Kind`: rows of op.dense_matrix() for every dense
operator (a dense CompositionOp on its product, as Gamma and the window
solve take it), vectors for a sequence operator, where the maps are apply
and the coordinate split's apply_P_S and apply_P_U, called on the vectors
of object arrays one by one. A walk and the one-step defects take the
image of a row as DenseOp.apply does, M @ x: the walk one row at a time,
the defects all rows of an orbit in one stacked product (_defects), which
hands every row to the same BLAS gemv and so gives the same bits. rows @
M.T is a gemm and rounds differently, by an ulp of images that can pass
1e60. The correction series (_series_points) is a doubling scan on rows
and a step recursion on vectors, and the exactness check batches its
images; both are far inside their tolerances.
Gamma (stability) runs on coordinate arrays of the same matrix.

The one-step defects of an orbit are measured where it is certified: from
the images its walk kept (generate_pseudo_orbit on rows) or by max_defect.
The splitting series measures them once more, under its operator, and keeps
its points per (op, split) for the last orbit (_series_orbit); the window
solve of the same orbit reads them there, so neither its defects nor its
scans are computed again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatch, LindynError, NonContracting, NotCertified, NotInvertible, RankDeficient
from .linalg import (
    DenseVector,
    SparseBiSeq,
    check_finite,
    max_row_norm,
    power_stack,
    row_norms,
)
from .operators import DenseOp, LinOp
from .optim import min_max_norm
from .sampling import rng_from_seed, unit_dense_rows, unit_seq_samples
from .splitting import (
    GENERALIZED,
    HYPERBOLIC,
    SpectralSplit,
    Splitting,
    _series_memo,
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
    defects are not stored: they are measured where the orbit is certified
    and where the splitting series is first taken on it, under the operator
    at hand (see the module docstring). It compares by identity, which keys
    the series points kept for it."""

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

    def __init__(self, op: LinOp, split: Optional[Splitting], rows: bool):
        self.op, self.split, self.rows, self.tag = op, split, rows, op.norm_tag
        # A maps one point: M @ x on a row, M the dense matrix, apply on a vector
        self.M = op.dense_matrix() if rows else None
        self.A = self.M.__matmul__ if rows else op.apply

    def finite(self, points: np.ndarray) -> np.ndarray:
        return check_finite(points) if self.rows else points

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
        points = np.empty((n, len(self.M)), dtype=complex) if self.rows else np.empty(n, object)
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
    """The kind for the stored points, of norm tag tag, of an orbit of op:
    rows for a dense operator, vectors for a sequence one. The points' tag,
    kind and (rows) width must match op's, and split, if given, must be of
    that tag and a spectral split of that width (rows) or a coordinate split
    (vectors), or the orbit is refused with KindMismatch."""
    k = _Kind(op, split, op.vector_kind == "dense")
    width = len(k.M) if k.rows else None
    if tag != op.norm_tag or (points.shape[1] if points.ndim == 2 else None) != width:
        raise KindMismatch("orbit disagrees with the operator in norm tag, kind or dimension")
    # a CoordinateSplit has no dim, as a sequence orbit has no width
    if split is not None and (split.norm_tag, getattr(split, "dim", None)) != (tag, width):
        raise KindMismatch("the split disagrees with the orbit in kind, norm tag or width")
    return k


def _images(A, points: np.ndarray) -> np.ndarray:
    """A(x) for every point x; the kind refuses overflowed images as non-finite."""
    out = np.empty_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(points):
            out[k] = A(x)
    return out


def _defects(k: _Kind, pts: np.ndarray) -> np.ndarray:
    """The one-step defects z_n = A(x_n) - x_{n+1} of the kind's points.

    On rows every image is taken in one stacked product,
    np.matmul(M, rows[:, :, None]): numpy hands each stacked (d, d) @ (d, 1)
    to the BLAS gemv that a single M @ x takes, so each image has the bits
    of DenseOp.apply's (tests/test_shadowing.py checks this). Vectors are
    mapped one by one (_images)."""
    if k.rows:
        with np.errstate(over="ignore", invalid="ignore"):
            images = np.matmul(k.M, pts[:-1, :, None])[:, :, 0]
    else:
        images = _images(k.A, pts[:-1])
    return k.finite(images - pts[1:])


def max_defect(op: LinOp, po: PseudoOrbit) -> float:
    """The largest one-step defect of the orbit po under op."""
    k = _kind(op, None, po.points, po.norm_tag)
    return k.sup(_defects(k, po.points))


def _certified(op: LinOp, po: PseudoOrbit, worst: Optional[float] = None) -> PseudoOrbit:
    """po, once every defect is re-verified against its delta; worst, if
    given, is the largest defect as max_defect measures it."""
    if po.delta < 0:
        raise ValueError("delta must be nonnegative")
    if worst is None:
        worst = max_defect(op, po)
    if worst > po.delta * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"defect {worst:.6g} exceeds declared delta {po.delta:.6g}")
    return po


def pseudo_orbit(op: LinOp, n0: int, vectors: Sequence, delta: float) -> PseudoOrbit:
    """Build a pseudo-orbit from vectors, checked as they enter (see
    _stack), re-verifying every defect against delta."""
    return _certified(op, PseudoOrbit(n0, _stack(op, vectors), delta, op.norm_tag))


# steps a kicked walk takes between its checks (_kicked_walk)
WALK_BLOCK = 64


def _kicked_walk(M: np.ndarray, start: np.ndarray, kicks: np.ndarray, delta: float, tag: str):
    """The rows x_0 = start, x_{i+1} = M x_i + kicks[i], and their images
    M x_i, one M @ x per step as DenseOp.apply takes it. Each step writes
    its image and its point in place (matmul and add with out=), which
    rounds as the expressions M @ x and img + kick do. The walk stays
    sequential: its defects are measured against its own images.

    A kick whose stored sum differs from the image by more than delta (once
    the orbit magnitude reaches delta / ulp, rounding can lift it there) is
    dropped: that point is its image, and the walk goes on from it. Each
    block of WALK_BLOCK steps is walked, checked finite, which refuses an
    overflowing walk near its first non-finite row, and then checked for
    drops in one row_norms call; a block with a drop is walked again from
    the dropped point.
    """
    steps, dim = kicks.shape
    points = np.empty((steps + 1, dim), dtype=complex)
    imgs = np.empty((steps, dim), dtype=complex)
    points[0] = start
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < steps:
            hi = min(lo + WALK_BLOCK, steps)
            x = points[lo]
            for i in range(lo, hi):
                img = np.matmul(M, x, out=imgs[i])
                x = np.add(img, kicks[i], out=points[i + 1])
            check_finite(points[lo + 1 : hi + 1])
            over = row_norms(points[lo + 1 : hi + 1] - imgs[lo:hi], tag) > delta
            if over.any():
                lo += int(over.argmax())
                points[lo + 1] = imgs[lo]
                lo += 1
            else:
                lo = hi
    return points, imgs


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
    by construction and re-verified on assembly. On rows all directions,
    then all magnitudes, are drawn at once, and the walk keeps its images
    (_kicked_walk): the defects certified are the images less the next
    points, the bits max_defect measures. On vectors each step perturbs the
    image of the last point.
    """
    n0, n1 = window
    if n1 < n0:
        raise ValueError("window must satisfy n0 <= n1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if n0 < 0 and not op.invertible():
        raise NotInvertible("negative window start needs an invertible operator")
    rng = rng_from_seed(rng_seed)
    steps = n1 - n0
    start = _stack(op, [seed])
    k = _kind(op, None, start, op.norm_tag)
    if k.rows:
        dirs = unit_dense_rows(seed.dim, seed.norm_tag, steps, rng)
        mags = rng.uniform(0.0, 1.0, size=steps)
        kicks = dirs * (delta * mags).astype(complex)[:, None]
        points, imgs = _kicked_walk(k.M, start[0], kicks, delta, op.norm_tag)
        worst = max_row_norm(imgs - points[1:], op.norm_tag)
        return _certified(op, PseudoOrbit(n0, _stored(points), delta, op.norm_tag), worst)

    def perturb(i: int, img):
        sup = img.support() or (0,)
        unit = unit_seq_samples(sup[0] - 1, sup[-1] + 1, img.norm_tag, 1, rng, support=2)[0]
        x = img + unit * complex(delta * rng.uniform(0.0, 1.0))
        # once the orbit magnitude reaches delta / ulp the stored sum can
        # round to a defect above delta; drop such a step entirely so the
        # declared delta stays certified
        return img if (x - img).norm() > delta else x

    points = k.walk(start[0], steps, perturb)
    return _certified(op, PseudoOrbit(n0, _stored(points), delta, op.norm_tag))


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

    A term source with a read method (operators.MatrixPowers) is read a
    block at a time, each block one list slice. Once m exists the remainder
    shrinks by about rate a term, so the series asks for a block reaching
    the index where it predicts to close, k + log(tail / rem) / log(rate);
    before that (transient growth) the source doubles its blocks. Any other
    source is called once a term. The terms and the sum are the same floats
    either way.
    """
    read = getattr(term_fn, "read", None)
    terms: list[float] = []
    prefix = [0.0]
    m, rate, rem = 0, 1.0, math.inf
    for k in range(start, start + SERIES_TERM_CAP + 1):
        if read is None:
            t = term_fn(k)
            terms.append(t)
        else:
            if k - start == len(terms):
                # no prediction before m (rem is inf) or where rem is nan
                close = tail / rem
                terms += read(k, k + math.log(close) / math.log(rate) if close > 0.0 else None)
            t = terms[k - start]
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
                return prefix[-1] + rem, tuple(terms[: k - start + 1])
    raise NotCertified(
        f"series did not certify convergence within {SERIES_TERM_CAP} terms",
        terms=SERIES_TERM_CAP,
    )


def series_constants(op: LinOp, split: Splitting, tail: float = SERIES_TAIL) -> SeriesConstants:
    """Certified sums A = sum_{k>=0} ||L^k P_S|| and B = sum_{k>=1} ||L^-k P_U||.

    A side radius of 1 or more is refused with NotCertified before any term
    is read (RestrictedPowers.radius: eigenvalue moduli on a spectral split,
    exact from the weight tails on a coordinate one). Each sum is closed
    with the block-geometric remainder of _sum_until_tail. Each side's terms
    form one sequence per (op, split), held by _series_memo and shared with
    the resolvents' probes, so every power is computed once; a power that
    overflows is refused with NonFinite. On a spectral split the sums hold up to the rounding of the
    computed P_S (see SpectralSplit).
    """
    memo = _series_memo(op, split)
    powers_S, powers_U = memo["S"], memo["U"]
    for r, side in ((powers_S.radius(), "S"), (powers_U.radius(), "U")):
        if r >= 1.0:
            raise NotCertified(
                f"restricted radius on {side} is {r:.6g} >= 1; series cannot converge",
            )
    A, a_terms = _sum_until_tail(powers_S.source(), 0, tail)
    B, b_terms = _sum_until_tail(powers_U.source(), 1, tail)
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
    pts = res.trajectory
    if pts.shape != po.points.shape:
        raise NotCertified("trajectory shape does not match the window")
    if k.rows:
        # one batched product; its rounding is far inside the 1e-12 tolerance
        with np.errstate(over="ignore", invalid="ignore"):
            imgs = pts[:-1] @ k.M.T
    else:
        imgs = _images(k.A, pts[:-1])
    diffs = pts[1:] - imgs
    defects = k.norms(diffs)
    # non-finite rows fail too (a vector is finite once built), so the first
    # failing offset decides between the finiteness and the exactness error
    finite = np.isfinite(diffs).all(axis=1) if k.rows else True
    ok = finite & (defects <= 1e-12 * (1.0 + k.norms(imgs)))
    if not ok.all():
        i = int(np.argmin(ok))
        k.finite(diffs[i : i + 1])
        raise NotCertified(
            f"trajectory defect {defects[i]:.3g} at offset {i} breaks orbit exactness"
        )
    sup = k.sup(k.finite(pts - po.points))
    if sup > res.constant_used * po.delta + 1e-9:
        raise NotCertified(
            f"sup error {sup:.6g} exceeds {res.constant_used:.6g} * delta + 1e-9"
        )


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


def _correction(k: _Kind, zs: np.ndarray) -> np.ndarray:
    """The bounded correction e of the defects zs over the window: e_0 .. e_n
    with e_{i+1} = L(e_i) + z_i, the stable part run forward from 0 and the
    unstable part backward through the inverse from 0. On rows, each part is
    a doubling scan (_scan) of its side's step (RestrictedPowers.step), K_S
    = P_S M forward on P_S P_S z and K_U = P_U M^-1 backward on K_U P_U z;
    both vanish on the other side, so rounding never excites the expanding
    block. On vectors, each part is a step recursion, re-projected every
    step. A non-finite correction is returned for the caller to refuse.
    """
    split = k.split
    with np.errstate(over="ignore", invalid="ignore"):
        if k.rows:
            P_S, P_U, memo = split.P_S, split.P_U, _series_memo(k.op, split)
            K_S, K_U = memo["S"].step, memo["U"].step
            F = _scan(K_S, zs @ P_S.T @ P_S.T)
            Bwd = _scan(K_U, (zs[::-1] @ P_U.T) @ K_U.T)[::-1]
        else:
            A, A_inv, P_S, P_U = k.A, k.op.inverse().apply, split.apply_P_S, split.apply_P_U
            F, Bwd = np.empty(len(zs) + 1, object), np.empty(len(zs) + 1, object)
            F[0] = Bwd[-1] = f = b = SparseBiSeq.zero(k.tag)
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
        return rows + _correction(k, zs)


def _series_orbit(k: _Kind, po: PseudoOrbit) -> np.ndarray:
    """The splitting-series points of po, read-only. They are computed once
    per (op, split) for the last orbit seen, and kept in _series_memo under
    the orbit's identity (PseudoOrbit compares by identity), so the
    splitting series and the window solve of one orbit share them bit for
    bit."""
    memo = _series_memo(k.op, k.split)
    held = memo.get("orbit")
    if held is None or held[0] is not po:
        points = _series_points(k, po.points)
        points.setflags(write=False)
        held = memo["orbit"] = (po, points)
    return held[1]


def shadow_splitting_series(op: LinOp, split: Splitting, po: PseudoOrbit) -> ShadowResult:
    """Correct a pseudo-orbit into an exact orbit through the splitting.

    Needs a Hyperbolic or GeneralizedHyperbolic certificate. On the finite
    window both correction series are finite sums, forward on the stable
    side and backward through the inverse on the unstable side: doubling
    scans on rows, step recursions on vectors, both on the
    defects that certified po, measured again under op, once per orbit (see
    _series_orbit). sup_error is the distance of the stored trajectory to
    the points, as verify_shadow measures it. The classification and the
    series constants are computed once per (op, split).
    """
    k = _kind(op, split, po.points, po.norm_tag)
    memo = _series_memo(op, split)
    if "report" not in memo:
        memo["report"] = classify(op, split)
    report = memo["report"]
    if report.klass not in (HYPERBOLIC, GENERALIZED):
        raise NotCertified(
            f"splitting-series shadowing needs a certificate; classification is {report.klass}"
        )
    if "constants" not in memo:
        memo["constants"] = series_constants(op, split)
    points = _series_orbit(k, po)
    result = ShadowResult(
        trajectory=_stored(points),
        sup_error=k.sup(k.finite(points - po.points)),
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
    traj = k.walk(po.points[0], len(po.points) - 1)
    sup_error = k.sup(k.finite(traj - po.points))
    constant = 1.0 / (1.0 - lam)
    if sup_error > constant * po.delta + CONTRACTION_SLACK:
        raise NotCertified(
            f"contraction shadow error {sup_error:.6g} exceeds delta/(1-lambda) + tol"
        )
    result = ShadowResult(
        trajectory=_stored(traj),
        sup_error=sup_error,
        constant_used=constant,
        method="contraction_fixed_point",
    )
    verify_shadow(op, po, result)
    return result


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


def _window_solves(A: np.ndarray, offsets: np.ndarray, tag: str):
    """min_max_norm on A, each with the factors that map its w back: on A,
    then, where a column's largest modulus lies outside [0.5, 2), on A with
    each such column scaled exactly into [0.5, 1) by a power of two. On a
    basis spanning 1 to 3^64 the first stays at w = 0; on others the second
    stops short. Only the first refuses with RankDeficient."""
    yield min_max_norm(A, offsets, tag), 1.0
    top = np.abs(A).max(axis=(0, 1))
    exps = np.where((top >= 0.5) & (top < 2.0), 0, np.frexp(top)[1])
    if exps.any():
        try:
            factors = np.ldexp(1.0, -np.maximum(exps, -1023))
            yield min_max_norm(A * factors, offsets, tag), factors
        except RankDeficient:
            pass


def shadow_window_solve(op: LinOp, po: PseudoOrbit) -> ShadowResult:
    """The best exact orbit over the window, with a certified bracket.

    Every exact orbit is y_n = p_n + A_n w for a particular orbit p and a
    complex w, so the best one solves the convex problem
    min_w max_n ||A_n w + e_n|| with e_n = p_n - x_n (optim.min_max_norm).
    Where the operator has a spectral split and an inverse, the problem is
    posed in defect coordinates: p is the splitting-series orbit, bit for
    bit (the same scans of the same defects, read from the series memo
    where the series was taken on po under op, see _series_orbit), and
    A_n w = L^n Q_S a + L^(n-N) Q_U b, with Q_S and Q_U the split's
    orthonormal bases of the ranges of P_S and P_U carried forward by P_S L
    and backward by P_U L^-1 (RestrictedPowers.stack), so the coefficients
    of a side vector never exceed its l2 norm. The orbit is exact up to the
    rounding of the computed P_S, within verify_shadow's tolerance. Where
    there is no split (a spectrum touching the circle), the problem is posed
    in seed coordinates: p is the orbit of the first point and A_n = L^n.
    Either basis is a doubling stack (linalg.power_stack), refused with
    NonFinite where a power overflows. A basis with a column far from unit scale is
    solved again with its columns scaled, and the better point and the
    larger lower bound are kept (_window_solves).

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
        A = power_stack(dense.matrix, np.eye(dim), count)
    else:
        particular = _series_orbit(k, po)
        S, U = (_series_memo(dense, split)[side] for side in "SU")
        A = np.concatenate([S.stack(split.Q_S, count), U.stack(split.Q_U, count)[::-1]], axis=2)
    offsets = k.finite(particular - rows)
    points, sup_error = particular, max_row_norm(offsets, tag)
    lower = 0.0
    for sol, factors in _window_solves(A, offsets, tag):
        lower = max(lower, sol.lower)
        if sol.value < sup_error:
            w = sol.w * factors
            if split is None:
                candidate = k.walk(rows[0] + w, count - 1)
            else:
                candidate = particular + A @ w
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
        trajectory=_stored(points),
        sup_error=sup_error,
        constant_used=constant,
        method="window_solve",
        lower=min(lower, sup_error),
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
