"""Windowed difference operator xi |-> (xi_{n+1} - L(xi_n)) and the
shadowing diagnostics built on it.

Orbits are exactly the kernel of the difference map, so a lower bound on its
injectivity margin controls how well pseudo-orbits can be shadowed, and
defect sequences pushed through a window solve give concrete lower estimates
of the shadowing constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KindMismatch, LindynError, NotCertified
from .linalg import DenseVector, dense_eig, mat_norm, matrix_powers, max_row_norm, row_norms
from .operators import DenseOp, LinOp
from .optim import NormRatio, descend
from .sampling import rng_from_seed
from .shadowing import PseudoOrbit, _kind, shad_bounds, shadow_window_solve
from .splitting import spectral_split

MAX_WINDOW_VARIABLES = 4096


@dataclass(frozen=True)
class WindowedLinf:
    """The difference operator restricted to windows indexed -N .. N.

    A base whose powers up to 2N overflow is refused with NonFinite: the
    estimates walk pseudo-orbits across the whole window.
    """

    base: LinOp
    window_N: int

    def __post_init__(self):
        if self.base.vector_kind != "dense":
            raise KindMismatch("windowed operator needs a dense base")
        if self.window_N < 0:
            raise ValueError("window_N must be nonnegative")
        dim = self.base.dense_matrix().shape[0]
        if dim * (2 * self.window_N + 1) > MAX_WINDOW_VARIABLES:
            raise ValueError(
                f"window holds {dim * (2 * self.window_N + 1)} variables, "
                f"over the cap {MAX_WINDOW_VARIABLES}"
            )
        matrix_powers(self.base.dense_matrix(), 2 * self.window_N)

    @property
    def dim(self) -> int:
        return self.base.dense_matrix().shape[0]

    @property
    def window_length(self) -> int:
        return 2 * self.window_N + 1


def linf_apply(w: WindowedLinf, xs: Sequence[DenseVector]) -> tuple:
    """Interior outputs xi_{n+1} - L(xi_n) for n = -N .. N-1 (2N of them)."""
    if len(xs) != w.window_length:
        raise ValueError(f"window needs {w.window_length} points, got {len(xs)}")
    return tuple(xs[i + 1] - w.base.apply(xs[i]) for i in range(len(xs) - 1))


def _margin_objective(w: WindowedLinf) -> NormRatio:
    """The margin of a flat window: the largest output over the largest point."""
    matrix = w.base.dense_matrix()
    shape = (w.window_length, w.dim)

    def outputs(flat: np.ndarray) -> np.ndarray:
        xs = flat.reshape(shape)
        # the interior outputs, then the two boundary outputs that the zero
        # extension outside the window adds
        return np.concatenate([xs[1:] - xs[:-1] @ matrix.T, xs[:1], xs[-1:] @ matrix.T])

    return NormRatio(outputs, lambda flat: flat.reshape(shape), w.base.norm_tag, floor=1e-14)


def _taper_profile_seeds(w: WindowedLinf) -> list[np.ndarray]:
    """Eigenvector profiles lam^n * taper(n) * v with a triangular taper that
    vanishes at both window ends, so boundary outputs vanish and interior
    outputs scale like 1/N."""
    N = w.window_N
    seeds = []
    for lam, vec in dense_eig(w.base.dense_matrix()):
        profile = np.zeros((w.window_length, w.dim), dtype=complex)
        coeff = 1.0 + 0.0j
        scale_back = 1.0 / lam if lam != 0 else 0.0
        for n in range(0, N + 1):
            taper = 1.0 - n / N
            profile[N + n] = coeff * taper * vec
            coeff *= lam
        coeff = scale_back
        for n in range(-1, -N - 1, -1):
            taper = 1.0 + n / N
            profile[N + n] = coeff * taper * vec
            coeff *= scale_back
        sup = max_row_norm(profile, w.base.norm_tag)
        if sup > 0 and np.isfinite(sup):
            seeds.append(profile.reshape(-1) / sup)
        if abs(lam) < 1.0 - 1e-12:
            # saturation ramp y_{n+1} = lam y_n + 1 from y_{-N} = 1: every
            # interior defect is exactly 1 while the sup approaches the
            # steady state 1 / (1 - lam), the extremal stable-side window
            powers = complex(lam) ** np.arange(w.window_length)
            ramp = np.cumsum(powers)
            profile = np.outer(ramp, vec)
            sup = max_row_norm(profile, w.base.norm_tag)
            if sup > 0 and np.isfinite(sup):
                seeds.append(profile.reshape(-1) / sup)
    return seeds


def linf_injectivity_margin(w: WindowedLinf, rng_seed: int = 0) -> float:
    """Upper estimate of min over unit windows of the sup norm of the full
    zero-extension output (interior differences plus both boundary outputs).

    Near-circle spectrum shows up as a margin decaying like 1/N; a margin
    bounded away from zero across N is the hyperbolic signature. N = 0 has
    no dynamics to constrain, returned as the infinity sentinel.
    """
    if w.window_N == 0:
        return math.inf
    objective = _margin_objective(w)
    seeds: list[np.ndarray] = _taper_profile_seeds(w)
    rng = rng_from_seed(rng_seed)
    for _ in range(3):
        raw = rng.standard_normal((w.window_length, w.dim)) + 1j * rng.standard_normal(
            (w.window_length, w.dim)
        )
        sup = max_row_norm(raw, w.base.norm_tag)
        seeds.append((raw / sup).reshape(-1))
    spike = np.zeros((w.window_length, w.dim), dtype=complex)
    spike[w.window_N, 0] = 1.0
    seeds.append(spike.reshape(-1))

    # rank the seeds by raw objective, then spend the descent budget on the
    # best one; taper profiles are near-optimal already so polish is cheap
    ranked = sorted(seeds, key=objective)
    n_vars = w.window_length * w.dim
    dirs = []
    for j in range(n_vars):
        e = np.zeros(n_vars, dtype=complex)
        e[j] = 1.0
        dirs.append(e)
        dirs.append(1j * e)
    return descend(objective, ranked[0], dirs, scale=0.25)[1]


def _defect_samples(w: WindowedLinf, count: int, rng_seed: int) -> list[np.ndarray]:
    """Deterministic defect mix: iid unit rows, constant directions (basis
    first), and resonant rows riding the operator's own powers."""
    rng = rng_from_seed(rng_seed)
    matrix = w.base.dense_matrix()
    dim = w.dim
    tag = w.base.norm_tag
    steps = 2 * w.window_N
    samples = []
    basis_cursor = 0
    for j in range(count):
        kind = j % 3
        rows = np.zeros((steps, dim), dtype=complex)
        if kind == 0:
            raw = rng.standard_normal((steps, dim)) + 1j * rng.standard_normal((steps, dim))
            norms = row_norms(raw, tag)
            rows = raw / norms[:, None]
        elif kind == 1:
            if basis_cursor < dim:
                u = np.zeros(dim, dtype=complex)
                u[basis_cursor] = 1.0
                basis_cursor += 1
            else:
                raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                u = raw / row_norms(raw[None, :], tag)[0]
            rows[:] = u
        else:
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u = raw / row_norms(raw[None, :], tag)[0]
            cur = u
            for i in range(steps):
                cur = matrix @ cur
                nrm = row_norms(cur[None, :], tag)[0]
                if nrm < 1e-300:
                    cur = u
                    nrm = 1.0
                rows[i] = cur / nrm
        samples.append(rows)
    return samples


def shad_estimate_linf(w: WindowedLinf, z_samples: int = 64, rng_seed: int = 0) -> float:
    """Lower estimate of the shadowing constant from windowed defects.

    Each unit defect sequence is integrated into a pseudo-orbit with delta 1
    and solved for the best exact orbit over the window; the window solve's
    certified lower bound on the distance of every exact orbit is a lower
    bound for the constant. No exact orbit can come closer than
    1 / (1 + ||L||) (the one-step inequality), so a lower bound below that
    means the solve stopped short, and is refused per sample.
    """
    if w.window_N < 1:
        raise ValueError("estimates need window_N >= 1")
    if z_samples < 1:
        raise ValueError("z_samples must be positive")
    floor = 1.0 / (1.0 + w.base.operator_norm()) - 1e-9
    tag = w.base.norm_tag
    zero = DenseVector(np.zeros(w.dim), tag)
    k = _kind(w.base, None, [zero])
    best = 0.0
    for z_rows in _defect_samples(w, z_samples, rng_seed):
        zs = k.from_rows(z_rows, tag)
        points = k.walk(k.point(zero), len(zs), lambda i, img: img + zs[i])
        po = PseudoOrbit(n0=-w.window_N, points=k.vectors(points), delta=1.0)
        lower = shadow_window_solve(w.base, po).lower
        if lower < floor:
            raise NotCertified(f"window lower bound {lower:.6g} fell below the one-step floor")
        best = max(best, lower)
    return best


@dataclass(frozen=True)
class RobustnessScan:
    original_upper: float
    rows: tuple


def shadowing_robustness_scan(
    op: LinOp, radii: Sequence[float], trials: int = 8, rng_seed: int = 0
) -> RobustnessScan:
    """Perturb the matrix within each radius and re-derive the upper bound.

    A trial passes when the perturbed operator still splits off the circle
    and its upper bound stays within twice the original. Failures to split
    count as failed trials; hyperbolicity is an open condition so small
    radii should pass cleanly.
    """
    if op.vector_kind != "dense":
        raise KindMismatch("robustness scan needs a dense operator")
    matrix = op.dense_matrix()
    dim = matrix.shape[0]
    split0 = spectral_split(op)
    upper0 = shad_bounds(op, split0).upper
    rng = rng_from_seed(rng_seed)
    rows = []
    for radius in radii:
        if radius < 0:
            raise ValueError("radii must be nonnegative")
        passes = 0
        worst = 0.0
        for _ in range(trials):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            scale = mat_norm(raw, op.norm_tag)
            pert = matrix + (radius / scale) * raw if scale > 0 else matrix
            try:
                pop = DenseOp(pert, op.norm_tag)
                psplit = spectral_split(pop)
                upper = shad_bounds(pop, psplit).upper
            except (LindynError, np.linalg.LinAlgError):
                continue
            worst = max(worst, upper)
            if upper <= 2.0 * upper0:
                passes += 1
        rows.append((radius, passes, trials, worst))
    return RobustnessScan(original_upper=upper0, rows=tuple(rows))
