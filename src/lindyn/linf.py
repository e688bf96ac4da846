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
from .linalg import (
    L1,
    L2,
    LINF,
    DenseVector,
    dense_eig,
    mat_norm,
    matrix_powers,
    max_row_norm,
    row_norms,
)
from .operators import DenseOp, LinOp
from .optim import NormRatio, descend
from .sampling import rng_from_seed
from .shadowing import (
    PseudoOrbit,
    _as_dense,
    _certified,
    _correction,
    _defect_split,
    _kind,
    _orbit_basis,
    max_defect,
    shad_bounds,
    shadow_window_solve,
)
from .splitting import SpectralSplit, spectral_split

MAX_WINDOW_VARIABLES = 4096
# A sample walk is refused once its rounding, eps times its peak, reaches
# this fraction of its unit defects; below it the re-verified defects stay
# within pseudo_orbit's 1e-12 relative tolerance.
WALK_ROUNDING = 1e-12
EPS = float(np.finfo(float).eps)
DUAL_TAG = {L1: LINF, L2: L2, LINF: L1}


@dataclass(frozen=True)
class WindowedLinf:
    """The difference operator restricted to windows indexed -N .. N.

    A base whose powers up to 2N overflow is refused with NonFinite: where
    the base has no split, the estimate walks pseudo-orbits across the
    whole window.
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
    bounded away from zero across N is the hyperbolic signature. On an
    isometry the descent stops at the triangular taper's 1/N, above the
    minimum 1/(N+1) that a linear ramp nonzero at both window ends attains.
    N = 0 has no dynamics to constrain, returned as the infinity sentinel.
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


def _unit_maximizers(g: np.ndarray, tag: str) -> np.ndarray:
    """For each row g_j of g, a unit vector z_j (in tag) with Re g_j z_j the
    dual norm of g_j: the conjugate phases under linf, the phase of the
    largest entry under l1, g_j^H / ||g_j|| under l2. A zero entry takes
    the phase 1 (of either sign of zero), and a zero row a unit vector too.
    Moduli are scaled by the row's largest before they divide, so subnormal
    entries do not overflow."""
    mags = np.abs(g)
    live = mags > 0
    phases = np.ones_like(g)
    phases[live] = np.exp(-1j * np.angle(g[live]))
    if tag == LINF:
        return phases
    top = mags.argmax(axis=1)
    rows = np.arange(len(g))
    z = np.zeros_like(g)
    if tag == L1:
        z[rows, top] = phases[rows, top]
        return z
    peak = mags[rows, top]
    nonzero = peak > 0
    scaled = mags[nonzero] / peak[nonzero, None]
    z[nonzero] = phases[nonzero] * scaled / row_norms(scaled, L2)[:, None]
    z[~nonzero, 0] = 1.0
    return z


def _extremal_defect(dense: DenseOp, split: SpectralSplit, N: int) -> np.ndarray:
    """The unit defects that the window's midpoint correction answers most to.

    Over a window of 2N defects, the correction at the midpoint is
    e_N = sum_j G_j z_j with G_j = Gamma(N, j): (P_S M)^(N-1-j) P_S for
    j < N and -(P_U M^-1)^(j-N+1) P_U for j >= N, the re-projected steps of
    _correction. Row i* has the largest sum over j of the dual norms of
    G_j[i, :], and z_j is the unit dual maximizer of G_j[i*, :]
    (_unit_maximizers), so entry i* of e_N is that sum: under linf the
    largest midpoint correction that unit defects can force.
    """
    P_S, P_U = split.P_S, split.P_U
    K_U = P_U @ dense.inverse().matrix
    G = np.concatenate(
        [
            _orbit_basis(P_S @ dense.matrix, P_S, N)[::-1],
            -_orbit_basis(K_U, K_U @ P_U, N),
        ]
    )
    duals = row_norms(G.reshape(-1, G.shape[2]), DUAL_TAG[dense.norm_tag])
    i_star = int(duals.reshape(G.shape[:2]).sum(axis=0).argmax())
    return _unit_maximizers(G[:, i_star, :], dense.norm_tag)


def _bounded_orbit(w: WindowedLinf, k, zs: np.ndarray) -> PseudoOrbit:
    """The pseudo-orbit x = -e with defects zs, e their bounded correction
    (_correction): 0 is an exact orbit within sup |e|, so no point grows
    past about the shadowing constant times the defects. Its delta is its
    measured largest defect."""
    points = k.store(-_correction(k, zs, None))
    tag = w.base.norm_tag
    delta = max_defect(w.base, PseudoOrbit(-w.window_N, points, 1.0, tag))
    return PseudoOrbit(-w.window_N, points, delta, tag)


def _walked_orbit(w: WindowedLinf, k, start, zs: np.ndarray) -> PseudoOrbit:
    """The pseudo-orbit walked forward from start with unit defects zs, and
    delta 1. A walk whose rounding, eps times its peak, reaches WALK_ROUNDING
    of delta no longer resolves its defects, and is refused; the defects of
    the rest are re-verified against delta, as pseudo_orbit does."""
    points = k.walk(start, len(zs), lambda i, img: img + zs[i])
    peak = k.sup(points)
    if peak * EPS >= WALK_ROUNDING:
        raise NotCertified(
            f"the sample walk peaks at {peak:.6g}, where rounding passes "
            f"{WALK_ROUNDING:g} of its unit defects"
        )
    try:
        return _certified(w.base, PseudoOrbit(-w.window_N, k.store(points), 1.0, w.base.norm_tag))
    except ValueError as exc:
        raise NotCertified(f"the sample walk peaks at {peak:.6g}: {exc}") from None


def shad_estimate_linf(w: WindowedLinf, z_samples: int = 64, rng_seed: int = 0) -> float:
    """Lower estimate of the shadowing constant from windowed defects.

    Each sample is a pseudo-orbit over the window with delta its largest
    defect, solved for the best exact orbit (shadow_window_solve); the
    solve's certified lower bound on the distance of every exact orbit,
    over delta, is a lower bound for the constant. Which samples run:

    - Where the window solve poses its problem in defect coordinates (a
      spectral split and an inverse), each orbit is x = -e, e the bounded
      correction of its defects, and the first sample is the extremal
      defect (_extremal_defect). Under linf it is the only sample and
      z_samples is not used; under l1 and l2 the z_samples mixed samples
      (_defect_samples) follow it.
    - Without a split (a spectrum touching the circle) each of the
      z_samples mixed samples is walked forward from 0 with delta 1, and a
      walk too large to resolve its unit defects is refused (_walked_orbit).

    The estimate holds up to the rounding of the window solve's dual sums.
    No exact orbit can come closer than 1 / (1 + ||L||) (the one-step
    inequality), so a lower bound below that means the solve stopped short,
    and is refused per sample.
    """
    if w.window_N < 1:
        raise ValueError("estimates need window_N >= 1")
    if z_samples < 1:
        raise ValueError("z_samples must be positive")
    floor = 1.0 / (1.0 + w.base.operator_norm()) - 1e-9
    tag = w.base.norm_tag
    zero = np.zeros((1, w.dim), dtype=complex)
    dense = _as_dense(w.base)
    split = _defect_split(dense)
    if split is None:
        k = _kind(w.base, None, zero, tag)
        start = k.load(zero)[0]
        orbits = (
            _walked_orbit(w, k, start, k.load(z_rows))
            for z_rows in _defect_samples(w, z_samples, rng_seed)
        )
    else:
        k = _kind(dense, split, zero, tag)
        mixed = [] if tag == LINF else _defect_samples(w, z_samples, rng_seed)
        samples = [_extremal_defect(dense, split, w.window_N), *mixed]
        orbits = (_bounded_orbit(w, k, zs) for zs in samples)
    best = 0.0
    for po in orbits:
        lower = shadow_window_solve(w.base, po).lower / po.delta
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
