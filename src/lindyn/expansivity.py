"""Expansivity diagnostics: eigenvalue gap, uniform growth search, and
central-window growth minimized over the unit sphere.

For invertible matrices the clean criterion is spectral: no eigenvalue on the
unit circle. The other two diagnostics probe the same property dynamically,
which also makes sense for operators given only through their action. The
window growth is a bracket [lower, value] from pinned min_max_norm solves:
value is the objective at a unit vector, and lower holds up to the rounding
of min_max_norm's dual sums. Under linf the bracket closes; where it stays
open, the descent can only lower the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatch, NonFinite, NotCertified
from .linalg import L1, L2, LINF, array_norm, dense_eig, max_row_norm, power_stack
from .operators import LinOp
from .optim import (
    MIN_MAX_RTOL,
    MinMaxNorm,
    NormRatio,
    coordinate_directions,
    descend,
    diagonal_directions,
    min_max_norm,
)
from .sampling import (
    dense_basis,
    rng_from_seed,
    unit_dense_rows,
    unit_dense_samples,
    unit_seq_samples,
)

EXPANSIVE = "Expansive"
NOT_EXPANSIVE = "NotExpansive"

UNIFORM_THRESHOLD = 2.0
WINDOW_GROWTH_MAX_DIM = 8
# random unit seeds of the growth descent per window, beside the basis
GROWTH_RANDOM_SEEDS = 12


@dataclass(frozen=True)
class EigenExpansivity:
    verdict: str
    circle_gap: float
    moduli: tuple[float, ...]


def expansive_eigen_test(op: LinOp, gap: float = 1e-6) -> EigenExpansivity:
    """Spectral expansivity check at resolution gap.

    An eigenvalue whose modulus is within gap of 1 cannot be certified off
    the circle, so the verdict is NotExpansive at that resolution.
    """
    if op.vector_kind != "dense":
        raise KindMismatch("eigen test needs a dense operator")
    pairs = dense_eig(op.dense_matrix())
    moduli = tuple(abs(lam) for lam, _ in pairs)
    circle_gap = min(abs(m - 1.0) for m in moduli)
    verdict = EXPANSIVE if circle_gap >= gap else NOT_EXPANSIVE
    return EigenExpansivity(verdict=verdict, circle_gap=circle_gap, moduli=moduli)


@dataclass(frozen=True)
class UniformExpansivity:
    """Least window half-length m such that every probed unit vector grows
    past the threshold somewhere in [-m, m], with the per-sample table."""

    m: int
    threshold: float
    table: tuple


def _default_unit_samples(op: LinOp, count: int, rng_seed: int):
    rng = rng_from_seed(rng_seed)
    if op.vector_kind == "dense":
        dim = op.dense_matrix().shape[0]
        return list(dense_basis(dim, op.norm_tag)) + list(
            unit_dense_samples(dim, op.norm_tag, count, rng)
        )
    return unit_seq_samples(-4, 4, op.norm_tag, count, rng, support=3)


def uniform_expansivity_search(
    op: LinOp, m_max: int, samples: Optional[Sequence] = None, rng_seed: int = 0
) -> UniformExpansivity:
    """Search for a uniform growth window over unit samples.

    For each unit sample, find the least n <= m_max with ||L^n x|| or
    ||L^-n x|| at or above UNIFORM_THRESHOLD. Raises NotCertified when some
    sample never reaches it; a rotation fails for every sample.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if samples is None:
        samples = _default_unit_samples(op, 64, rng_seed)
    inv = op.inverse() if op.invertible() else None
    table = []
    worst = 0
    for x in samples:
        fwd = x
        bwd = x
        found = None
        for n in range(1, m_max + 1):
            fwd = op.apply(fwd)
            if fwd.norm() >= UNIFORM_THRESHOLD:
                found = n
                break
            if inv is not None:
                bwd = inv.apply(bwd)
                if bwd.norm() >= UNIFORM_THRESHOLD:
                    found = n
                    break
        if found is None:
            raise NotCertified(
                f"sample never grew past {UNIFORM_THRESHOLD} within {m_max} steps",
                sample=x,
            )
        table.append((x, found))
        worst = max(worst, found)
    return UniformExpansivity(m=worst, threshold=UNIFORM_THRESHOLD, table=tuple(table))


def _growth_objective(stack: np.ndarray, tag: str) -> NormRatio:
    """v -> max_{|n| <= N} ||L^n v|| / ||v|| from the stacked powers
    L^0, .., L^N, L^-1, .., L^-N (just L^0, .., L^N without an inverse).
    Its images are stacked gemv products, one per power and point, with the
    bits of np.matmul(stack, v)."""
    return NormRatio(
        lambda v: np.matmul(stack, v[..., None, :, None])[..., 0],
        lambda v: v[..., None, :],
        tag,
        floor=1e-12,
    )


def _pinned_growth(stack: np.ndarray, growth: NormRatio, tag: str) -> tuple[MinMaxNorm, list]:
    """The growth bracket from d pinned convex solves, with the pinned points.

    Solve j is min_max_norm over v with v_j = 1: min_w max_n ||L^n (e_j + w)||
    over the other coordinates, whose stacked columns have full rank through
    the identity block n = 0, even when L is singular. Its normalized point
    is a unit vector, so the least objective over the d points is an upper
    bound. A unit vector has a coordinate of modulus at least 1/c, with c = 1
    under linf, sqrt(d) under l2 and d under l1, and the n = 0 term is 1, so
    max(1, min_j lower_j / c) is a lower bound; under linf the bracket closes.
    Each solve sees the stack scaled by the power of two that brings its
    value at w = 0 into [0.5, 1), so that squared residuals do not overflow
    on large powers, and the scale is divided out exactly.
    """
    d = stack.shape[-1]
    points, lowers = [], []
    for j in range(d):
        x = np.zeros(d, dtype=complex)
        x[j] = 1.0
        others = np.arange(d) != j
        if others.any():
            scale = 0.5 ** math.frexp(max_row_norm(stack[:, :, j], tag))[1]
            sol = min_max_norm(stack[:, :, others] * scale, stack[:, :, j] * scale, tag)
            x[others] = sol.w
            lowers.append(sol.lower / scale)
        else:
            # a 1x1 operator: the only unit vectors are the phases of e_1
            lowers.append(growth(x))
        points.append(x / array_norm(x, tag))
    values = [growth(x) for x in points]
    best = int(np.argmin(values))
    c = {LINF: 1.0, L2: math.sqrt(d), L1: float(d)}[tag]
    lower = min(max(1.0, min(lowers) / c), values[best])
    return MinMaxNorm(points[best], values[best], lower), points


def central_window_growth(
    op: LinOp, n_list: Sequence[int], rng_seed: int = 0
) -> dict[int, MinMaxNorm]:
    """min over the unit sphere of max_{|n| <= N} ||L^n x||, per N, as a
    bracket lower <= min <= value with the unit point x of value.

    Dense only, dimension capped at 8. A hyperbolic operator forces growth
    so the value climbs with N; an isometry pins it at 1. Each N takes d
    pinned min_max_norm solves (see _pinned_growth). Under linf, and
    wherever else their bracket closes to MIN_MAX_RTOL, that is the answer.
    Where it stays open (l1, most of l2, or a solve stopped at its caps), the
    deterministic descent runs from the basis, random unit seeds and the
    pinned points, and the value is the least it reaches, from the first
    seed that reaches it; the lower bound stays the pinned one. One descend
    call takes the seeds of every open N, so that their line searches share
    each lockstep round. The seeds are drawn for every N, whether or not
    the descent runs. The bracket holds up to the rounding of min_max_norm's
    dual sums. Powers that overflow are refused with NonFinite before any
    solve: one forward and one backward linalg.power_stack serve every N.
    """
    if op.vector_kind != "dense":
        raise KindMismatch("window growth needs a dense operator")
    matrix = op.dense_matrix()
    dim = matrix.shape[0]
    if dim > WINDOW_GROWTH_MAX_DIM:
        raise ValueError(f"window growth is limited to dimension {WINDOW_GROWTH_MAX_DIM}")
    if any(n < 0 for n in n_list):
        raise ValueError("window half-lengths must be nonnegative")
    # powers up to the largest N, shared by every N and checked once
    top = max(n_list, default=0)
    eye = np.eye(dim)
    forward = power_stack(matrix, eye, top + 1)
    backward = power_stack(np.linalg.inv(matrix), eye, top + 1) if op.invertible() else forward[:1]
    basis = list(np.eye(dim, dtype=complex))
    rng = rng_from_seed(rng_seed)
    # (N, pinned bracket, descent problem or None) in n_list's order
    brackets = []
    for N in n_list:
        if N == 0:
            brackets.append((0, MinMaxNorm(basis[0], 1.0, 1.0), None))
            continue
        stack = np.concatenate([forward[: N + 1], backward[1 : N + 1]])
        growth = _growth_objective(stack, op.norm_tag)
        random_seeds = list(unit_dense_rows(dim, op.norm_tag, GROWTH_RANDOM_SEEDS, rng))
        best, pinned = _pinned_growth(stack, growth, op.norm_tag)
        is_open = best.value - best.lower > MIN_MAX_RTOL * best.value
        brackets.append((N, best, (growth, basis + random_seeds + pinned) if is_open else None))
    dirs = coordinate_directions(dim) + diagonal_directions(dim)
    descents = iter(descend([p for _, _, p in brackets if p is not None], dirs, scale=0.5))
    out: dict[int, MinMaxNorm] = {}
    for N, best, problem in brackets:
        if problem is not None:
            for x, val in next(descents):
                if val < best.value:
                    best = MinMaxNorm(x / array_norm(x, op.norm_tag), val, best.lower)
        out[N] = best
    return out


@dataclass(frozen=True)
class EcsResult:
    member: bool
    first_violation_n: Optional[int]
    max_ratio: float


def ecs_membership(op: LinOp, x, c: float, beta: float, horizon: int) -> EcsResult:
    """Check the forward decay certificate ||L^n x|| <= c * beta^n * ||x||.

    Membership in the contracting cone at the stated constants, verified on
    the finite horizon. The zero vector is trivially a member. The orbit is
    divided by beta at every step, so beta^n is never formed and long
    horizons neither overflow nor underflow the bound; a scaled orbit that
    leaves the float range has ratio inf and ends the check.
    """
    if c <= 0 or beta <= 0:
        raise ValueError("certificate constants must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    base = x.norm()
    if base == 0.0:
        return EcsResult(member=True, first_violation_n=None, max_ratio=0.0)
    cur = x
    max_ratio = 0.0
    first_violation = None
    for n in range(horizon + 1):
        try:
            if n:
                with np.errstate(over="ignore"):
                    cur = op.apply(cur) * (1.0 / beta)
            ratio = cur.norm() / base / c
        except NonFinite:
            ratio = math.inf
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + 1e-12 and first_violation is None:
            first_violation = n
        if ratio == math.inf:
            break
    return EcsResult(
        member=first_violation is None,
        first_violation_n=first_violation,
        max_ratio=max_ratio,
    )


@dataclass(frozen=True)
class ExpansivityReport:
    """The diagnostics that apply; window_growth holds (N, bracket) pairs
    from central_window_growth, in increasing N."""

    eigen: Optional[EigenExpansivity]
    uniform: Optional[UniformExpansivity]
    window_growth: tuple


def expansivity_scan(
    op: LinOp,
    n_list: Sequence[int] = (1, 2, 4),
    m_max: int = 64,
    rng_seed: int = 0,
) -> ExpansivityReport:
    """Run all applicable diagnostics, recording failures as absences."""
    eigen = None
    if op.vector_kind == "dense":
        eigen = expansive_eigen_test(op)
    uniform = None
    try:
        uniform = uniform_expansivity_search(op, m_max, rng_seed=rng_seed)
    except NotCertified:
        uniform = None
    growth: tuple = ()
    if op.vector_kind == "dense" and op.dense_matrix().shape[0] <= WINDOW_GROWTH_MAX_DIM:
        table = central_window_growth(op, n_list, rng_seed=rng_seed)
        growth = tuple(sorted(table.items()))
    return ExpansivityReport(eigen=eigen, uniform=uniform, window_growth=growth)
