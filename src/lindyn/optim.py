"""Deterministic minimization used across the toolkit.

Two tools, neither drawing random numbers, so repeated runs agree bit for
bit. The derivative-free descent (golden-section line searches along a
fixed direction list, steps taken only when they decrease the objective)
serves linf's injectivity margin, and the window growth where its pinned
min_max_norm bracket stays open; it gives an upper estimate of a minimum
and certifies nothing. Both of its objectives are a NormRatio, a ratio of
the largest row norms of two linear maps, so along a line each row is
affine in the step: a line search builds the rows the direction moves once
and evaluates them on Python scalars, with every row it does not move
folded into a constant. min_max_norm solves the
convex problem min_w max_n ||A_n w + e_n|| of the window solve: a cutting
plane LP (a revised simplex, warm-started between rounds) polished by
Newton's method on the active pieces, returning its point with a lower
bound from the Lagrangian dual, certified up to the rounding of the dual
sums. The window solve and the window growth call it. There is no restart
minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import L1, L2, LINF, max_row_norm

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the descent's caps and tolerances: golden-section steps per line search, line
# search tolerance relative to its bracket, relative gain of a pass that ends a
# descent, passes at most, diagonal directions offered
GOLDEN_MAX_ITER = 120
LINE_TOL_REL = 1e-11
DESCEND_TOL = 1e-10
DESCEND_MAX_PASSES = 40
DIAGONAL_DIRECTIONS_CAP = 24


def golden_section(
    phi: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Minimize phi on [a, b]; intended for unimodal slices."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    it = 0
    while (b - a) > tol and it < GOLDEN_MAX_ITER:
        it += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = phi(x2)
    t = x1 if f1 <= f2 else x2
    return t, min(f1, f2)


def line_minimize(phi: Callable[[float], float], phi0: float, scale: float) -> tuple[float, float]:
    """Minimize phi over the real line starting from t = 0.

    Brackets by doubling in whichever direction descends or stays level,
    then refines with golden section. A level stretch is walked on, not
    taken for a minimum: a ratio of largest row norms stays level while a
    move leaves the largest rows alone, and may fall beyond that. Returns
    (t, phi(t)) with phi(t) <= phi(0).
    """
    step = max(scale, 1e-300)
    fp = phi(step)
    fm = phi(-step)
    if fp > phi0 and fm > phi0:
        lo, hi = -step, step
    else:
        sgn = 1.0 if fp <= fm else -1.0
        best = fp if sgn > 0 else fm
        t_prev, t_cur = 0.0, sgn * step
        while True:
            t_next = t_cur * 2.0
            f_next = phi(t_next)
            if f_next > best or abs(t_next) > 1e12 * step:
                break
            t_prev, t_cur, best = t_cur, t_next, f_next
        lo, hi = (t_prev, t_next) if sgn > 0 else (t_next, t_prev)
    width = hi - lo
    t, ft = golden_section(phi, lo, hi, tol=max(width * LINE_TOL_REL, 1e-14))
    if phi0 <= ft:
        return 0.0, phi0
    return t, ft


@dataclass(frozen=True)
class NormRatio:
    """The objective x -> max_r ||num(x)_r|| / max_r ||den(x)_r|| in the norm
    tag, for linear maps num and den from x to (rows, d) arrays; infinite
    where the denominator is below floor."""

    num: Callable[[np.ndarray], np.ndarray]
    den: Callable[[np.ndarray], np.ndarray]
    tag: str
    floor: float

    def __call__(self, x: np.ndarray) -> float:
        bottom = max_row_norm(self.den(x), self.tag)
        if bottom < self.floor:
            return math.inf
        return max_row_norm(self.num(x), self.tag) / bottom

    def line(self, x: np.ndarray, u: np.ndarray) -> Callable[[float], float]:
        """phi(t) = self(x + t u) up to rounding, evaluated on Python scalars.

        Along the line each row is affine in t: a_r + t b_r with a = num(x)
        and b = num(u), and c_r + t e_r with c = den(x) and e = den(u), so
        phi(t) = max(r_out, max_r ||a_r + t b_r||) / max(r_in, max_r ||c_r + t e_r||)
        over the rows the direction moves, with the constants r_out and r_in
        the largest norms of the rows it does not move. All of these are
        built once per line.
        """
        num = _line_norm(self.num(x), self.num(u), self.tag)
        den = _line_norm(self.den(x), self.den(u), self.tag)
        floor = self.floor

        def phi(t: float) -> float:
            bottom = den(t)
            if bottom < floor:
                return math.inf
            return num(t) / bottom

        return phi


def _line_norm(a: np.ndarray, b: np.ndarray, tag: str) -> Callable[[float], float]:
    """t -> max_r ||a_r + t b_r|| on Python scalars, for (rows, d) arrays a
    and b. Only the rows with b_r != 0 are evaluated; the largest norm of
    the others is a constant. Under linf every entry is a row of its own,
    and under l2 the rows are taken in real coordinates, for math.hypot."""
    if tag == LINF:
        moving = b != 0
        rest = float(np.abs(a[~moving]).max(initial=0.0))
        pairs = list(zip(a[moving].tolist(), b[moving].tolist()))

        def largest_entry(t: float) -> float:
            top = rest
            for p, q in pairs:
                v = abs(p + t * q)
                if v > top:
                    top = v
            return top

        return largest_entry
    moving = b.any(axis=1)
    rest = max_row_norm(a[~moving], tag)
    a, b = a[moving], b[moving]
    if tag == L2:
        a, b = np.hstack([a.real, a.imag]), np.hstack([b.real, b.imag])
    rows = [list(zip(ar, br)) for ar, br in zip(a.tolist(), b.tolist())]
    if tag == L1:

        def largest_l1(t: float) -> float:
            top = rest
            for row in rows:
                v = 0.0
                for p, q in row:
                    v += abs(p + t * q)
                if v > top:
                    top = v
            return top

        return largest_l1

    def largest_l2(t: float) -> float:
        top = rest
        for row in rows:
            v = math.hypot(*[p + t * q for p, q in row])
            if v > top:
                top = v
        return top

    return largest_l2


def descend(
    objective: NormRatio,
    x0: np.ndarray,
    directions: Sequence[np.ndarray],
    scale: float,
) -> tuple[np.ndarray, float]:
    """Repeated line minimization along a fixed direction list.

    Each direction is normalized once, and each line search minimizes
    objective.line: the rows the direction moves, on Python scalars. Steps
    are only accepted when they strictly decrease the line's value. The
    value returned is the full objective at the point returned: the final
    point, or x0 where rounding left the final point's value above f(x0).
    So the result never exceeds f(x0), even on objectives with non-unimodal
    slices, and it is always the objective at a concrete point.
    """
    x0 = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    f0 = objective(x0)
    units = [d / dn for d in directions if (dn := float(np.linalg.norm(d))) > 0.0]
    x, fx = x0, f0
    for _ in range(DESCEND_MAX_PASSES):
        improved = 0.0
        for u in units:
            t, ft = line_minimize(objective.line(x, u), fx, scale)
            if ft < fx - 1e-16:
                improved += fx - ft
                x = x + t * u
                fx = ft
        if improved <= DESCEND_TOL * (1.0 + abs(fx)):
            break
    fx = objective(x)
    return (x, fx) if fx <= f0 else (x0, f0)


def coordinate_directions(dim: int) -> list[np.ndarray]:
    return [np.eye(dim)[j] for j in range(dim)]


def diagonal_directions(dim: int) -> list[np.ndarray]:
    """Pairwise two-coordinate diagonals, capped to keep passes cheap."""
    dirs: list[np.ndarray] = []
    eye = np.eye(dim)
    for j in range(dim):
        for k in range(j + 1, dim):
            dirs.append(eye[j] + eye[k])
            dirs.append(eye[j] - eye[k])
            if len(dirs) >= DIAGONAL_DIRECTIONS_CAP:
                return dirs
    return dirs


# ---------------------------------------------------------------------------
# Certified min-max of affine norms
# ---------------------------------------------------------------------------

# min_max_norm stops once its bracket is this close, relative to its value,
# or after this many cut rounds or simplex pivots with the bracket reached
MIN_MAX_RTOL = 1e-9
MIN_MAX_ROUNDS = 30
MIN_MAX_PIVOTS = 1000
# steps of one Newton polish on the active pieces
NEWTON_STEPS = 10


@dataclass(frozen=True)
class MinMaxNorm:
    """A point w of min_w max_n ||A_n w + e_n|| with a certified bracket:
    lower <= optimum <= value, where value is the objective at w. The window
    growth reports its bracket in this form too, with w a unit vector."""

    w: np.ndarray
    value: float
    lower: float


def _blocks(A: np.ndarray, e: np.ndarray, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of the objective in real coordinates x = (Re w, Im w).

    Piece p is sum_b ||B[p, b] x + c[p, b]||_2 over its blocks b: one
    complex entry (two real rows) per piece under linf, one piece per n with
    a block per entry under l1, and one block of all 2d real rows per n
    under l2. The objective is the largest piece.
    """
    N, d, m = A.shape
    B = np.empty((N, d, 2, 2 * m))
    B[:, :, 0, :m], B[:, :, 0, m:] = A.real, -A.imag
    B[:, :, 1, :m], B[:, :, 1, m:] = A.imag, A.real
    c = np.stack([e.real, e.imag], axis=-1)
    if tag == LINF:
        return B.reshape(N * d, 1, 2, 2 * m), c.reshape(N * d, 1, 2)
    if tag == L1:
        return B, c
    return B.reshape(N, 1, 2 * d, 2 * m), c.reshape(N, 1, 2 * d)


def _pieces(B: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = B @ x + c
    return np.sqrt((s * s).sum(axis=-1)).sum(axis=-1)


def _cuts(B: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Supporting cuts piece >= a.x + b at x, one per piece of B and c.

    Each cut is a block-wise unit vector u with piece >= u.(B x + c) for
    every x (Cauchy-Schwarz); it is a point of the dual unit ball.
    """
    s = B @ x + c
    nrm = np.sqrt((s * s).sum(axis=-1, keepdims=True))
    u = np.divide(s, nrm, out=np.zeros_like(s), where=nrm > 0)
    u[(nrm == 0)[..., 0], 0] = 1.0
    return np.einsum("pbkx,pbk->px", B, u), np.einsum("pbk,pbk->p", c, u)


def _certificate(a: np.ndarray, b: np.ndarray, lam: np.ndarray, radius: float) -> float:
    """Lower bound on the optimum from cut weights lam >= 0, for optima in
    the box |x_i| <= radius: the weighted cuts bound the objective below by
    lam.b + (lam a).x, and the box bounds the second term by its 1-norm."""
    total = lam.sum()
    if not total > 0:
        return 0.0
    return float((lam @ b - radius * np.abs(lam @ a).sum()) / total)


def _simplex(cols, cost, basis, budget: int):
    """Revised simplex for max cost.z, cols z = (0, ..., 0, 1), z >= 0, from
    the feasible basis given (updated in place). Returns the pivots spent,
    the multipliers and the basic values. The entering column has the
    largest reduced cost, except after a degenerate pivot, where Bland's
    rule (the lowest index on both sides) keeps the method from cycling.
    Rounding can still swap two nearly parallel columns back and forth, so
    a run of len(basis) degenerate pivots ends the solve: it leaves the
    objective where it is, and every basis is feasible."""
    degenerate = 0
    for pivots in range(budget + 1):
        inv = np.linalg.inv(cols[:, basis])
        xb = inv[:, -1]
        # rounding leaves zero basics at about +-1e-17; count them as zero,
        # so that a degenerate pivot is seen as one
        xb = np.where(xb > 1e-13 * np.abs(xb).max(), xb, 0.0)
        pi = cost[basis] @ inv
        reduced = cost - pi @ cols
        # a reduced cost counts only above the rounding of its own terms
        reduced[reduced <= 1e-12 * (np.abs(cost) + np.abs(pi) @ np.abs(cols))] = 0.0
        reduced[basis] = 0.0
        j = int(np.argmax(reduced > 0.0) if degenerate else np.argmax(reduced))
        if reduced[j] == 0.0 or pivots == budget or degenerate > len(basis):
            return pivots, pi, xb
        col = inv @ cols[:, j]
        pos = col > 1e-12 * np.abs(col).max()
        ratios = np.full(len(col), math.inf)
        ratios[pos] = xb[pos] / col[pos]
        ties = np.flatnonzero(ratios == ratios.min())
        leave = ties[np.argmin(np.asarray(basis)[ties])]
        degenerate = degenerate + 1 if ratios[leave] == 0.0 else 0
        basis[leave] = j
    raise AssertionError("unreachable")


def _newton(B, c, x, t, lam, radius: float):
    """Newton's method on the KKT system of min t s.t. piece_p(x) <= t over
    the given pieces, all taken as active: sum lam_p grad_p = 0,
    sum lam_p = 1, piece_p(x) = t. Each step is the least-squares solution,
    which stays put along a flat face of optima where the system is
    singular. Returns (x, t, lam), or None where a block vanishes (a kink of
    the piece), the system overflows, or x leaves the box |x_i| <= radius
    that holds every optimum."""
    nv, k = B.shape[-1], len(lam)
    BtB = np.einsum("pbkx,pbky->pbxy", B, B)
    J = np.zeros((nv + 1 + k, nv + 1 + k))
    J[nv, nv + 1 :] = 1.0
    J[nv + 1 :, nv] = -1.0
    for _ in range(NEWTON_STEPS):
        s = B @ x + c
        nrm = np.sqrt((s * s).sum(axis=-1))
        if not (nrm > 0).all():
            return None
        Bu = np.einsum("pbkx,pbk->pbx", B, s / nrm[..., None])
        G = Bu.sum(axis=1)
        hess = (BtB - Bu[..., :, None] * Bu[..., None, :]) / nrm[..., None, None]
        J[:nv, :nv] = np.einsum("p,pbxy->xy", lam, hess)
        J[:nv, nv + 1 :] = G.T
        J[nv + 1 :, :nv] = G
        F = np.concatenate([G.T @ lam, [lam.sum() - 1.0], nrm.sum(axis=1) - t])
        if not (np.isfinite(J).all() and np.isfinite(F).all()):
            # overflowed squares; LAPACK would only complain on stdout
            return None
        step = np.linalg.lstsq(J, -F, rcond=1e-12)[0]
        x, t, lam = x + step[:nv], t + step[nv], lam + step[nv + 1 :]
        if not np.abs(x).max() <= radius:
            return None
        if np.abs(step).max() <= 1e-15 * max(np.abs(x).max(), abs(t), 1.0):
            break
    return x, t, lam


def min_max_norm(A: np.ndarray, e: np.ndarray, tag: str) -> MinMaxNorm:
    """Minimize max_n ||A_n w + e_n||_tag over complex w, with a dual bound.

    A is (N, d, m) and e is (N, d), complex; the stacked A_n must have full
    column rank. Column generation on the dual LP
    max { sum lam_c b_c : lam >= 0, sum lam_c = 1, sum lam_c a_c = 0 }
    over supporting cuts (a_c, b_c) of the pieces (see _blocks): each round
    adds the cuts most violated at the last point, the simplex continues
    from the last basis, and Newton's method on the KKT system of an active
    set of pieces, starting from those of the basis, polishes the point. It
    stops once value - lower <= MIN_MAX_RTOL * value, or at MIN_MAX_ROUNDS
    rounds or MIN_MAX_PIVOTS pivots with the bracket reached by then. Under l1 an entry that
    vanishes at the optimum is a kink Newton cannot follow, and the bracket
    then closes only as fast as the cutting planes do.

    lower is certified by weights lam on cuts, each a point of the dual
    ball: max_n ||A_n w + e_n|| >= sum lam_c b_c + (sum lam_c a_c).x. Every
    optimal x lies in the box |x_i| <= R, with R from the level set of w = 0
    and the smallest singular value of the stacked A_n, so the residual of
    the dual equality is paid for as R ||sum lam_c a_c||_1 rather than
    assumed zero. The bound holds up to the rounding of these sums.
    """
    N, d, m = A.shape
    B, c = _blocks(A, e, tag)
    nv = 2 * m
    x_best = np.zeros(nv)
    phi = _pieces(B, c, x_best)
    f_best = float(phi.max())
    if f_best == 0.0:
        return MinMaxNorm(np.zeros(m, dtype=complex), 0.0, 0.0)
    sigma = float(np.linalg.svd(A.reshape(N * d, m), compute_uv=False)[-1])
    if not sigma > 0:
        raise ValueError("the stacked A_n must have full column rank")
    kappa = math.sqrt(d) if tag == LINF else 1.0
    # ||A w*||_2 <= ||A w* + e||_2 + ||e||_2 <= 2 sqrt(N) kappa f(0)
    radius = 2.0 * math.sqrt(N) * kappa * f_best / sigma

    # LP columns: (a_c; 1) at cost b_c per cut, then the box columns (+-e_i; 0)
    # at cost -radius; cut c belongs to piece owner[c]
    eye = np.eye(nv + 1, nv)
    cols = np.hstack([eye, -eye])
    cost = np.full(2 * nv, -radius)
    owner = np.full(2 * nv, -1)
    per_round = 2 * (nv + 1)

    def add(x, idx):
        nonlocal cols, cost, owner
        a, b = _cuts(B[idx], c[idx], x)
        cols = np.hstack([cols, np.vstack([a.T, np.ones(len(idx))])])
        cost = np.concatenate([cost, b])
        owner = np.concatenate([owner, idx])
        return a, b

    a0, _ = add(x_best, np.argsort(phi)[::-1][:per_round])
    basis = [2 * nv] + [i if a0[0, i] <= 0 else nv + i for i in range(nv)]
    lower, rounds, pivots = 0.0, 0, 0

    def gap_open() -> bool:
        return f_best - lower > MIN_MAX_RTOL * f_best

    while gap_open() and rounds < MIN_MAX_ROUNDS and pivots < MIN_MAX_PIVOTS:
        rounds += 1
        try:
            spent, pi, xb = _simplex(cols, cost, basis, MIN_MAX_PIVOTS - pivots)
        except np.linalg.LinAlgError:
            break
        pivots += spent
        x, t = -pi[:nv], float(pi[nv])
        cut_pos = [i for i, j in enumerate(basis) if owner[j] >= 0]
        cut_ids = [basis[i] for i in cut_pos]
        lower = max(lower, _certificate(cols[:nv, cut_ids].T, cost[cut_ids], xb[cut_pos], radius))
        phi = _pieces(B, c, x)
        if phi.max() < f_best:
            x_best, f_best = x, float(phi.max())
        if not gap_open():
            break
        # polish with Newton on an active set of pieces: first those of
        # every basic cut, binding at the LP point even at weight 0 (a
        # degenerate vertex); then a piece whose weight turns negative
        # leaves (stop at the last one), or else the most violated one joins
        act, inv = np.unique(owner[cut_ids], return_inverse=True)
        lam = np.bincount(inv, weights=xb[cut_pos], minlength=len(act))
        xn, tn = x, float(phi[act].max())
        for _ in range(2 * nv):
            # squares past about 1e154 overflow, and lstsq then raises LinAlgError
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    polished = _newton(B[act], c[act], xn, tn, lam, radius)
            except np.linalg.LinAlgError:
                break
            if polished is None:
                break
            xn, tn, lam = polished
            phi_n = _pieces(B, c, xn)
            if phi_n.max() < f_best:
                x_best, f_best = xn, float(phi_n.max())
            a_n, b_n = add(xn, act)
            lower = max(lower, _certificate(a_n, b_n, np.maximum(lam, 0.0), radius))
            worst = int(np.argmax(phi_n))
            if not gap_open() or (worst in act if lam.min() >= 0.0 else len(act) == 1):
                break
            if lam.min() < 0.0:
                keep = np.arange(len(act)) != np.argmin(lam)
                act, lam = act[keep], lam[keep]
            else:
                act, lam = np.append(act, worst), np.append(lam, 0.0)
        # cuts that separate this round's LP point keep the next round moving
        viol = np.argsort(phi)[::-1][:per_round]
        add(x, viol[phi[viol] > t])
    return MinMaxNorm(x_best[:m] + 1j * x_best[m:], f_best, min(lower, f_best))
