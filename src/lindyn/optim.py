"""Deterministic minimization used across the toolkit.

Two tools, neither drawing random numbers, so repeated runs agree bit for
bit. The derivative-free descent (golden-section line searches along a
fixed direction list, steps taken only when they decrease the objective)
serves linf's injectivity margin, and the window growth where its pinned
min_max_norm bracket stays open; it gives an upper estimate of a minimum
and certifies nothing. Both of its objectives are a NormRatio, a ratio of
the largest row norms of two linear maps, so along a line each row is
affine in the step. The descent searches its lines in lockstep: the lines
of a pass start from the same point until one takes a step, so one numpy
line search runs them all, over every seed and objective of a call, each
line holding only the rows its direction moves and a constant for the
rest. Every line takes the steps it would take searched alone, and under
linf and l1 it finds the values of the scalar objective bit for bit; under
l2 it reduces rows in extended precision, within rounding of math.hypot.
min_max_norm solves the convex problem min_w max_n ||A_n w + e_n|| of the
window solve: a cutting plane LP (a revised simplex, warm-started between
rounds) polished by Newton's method on the active pieces, returning its
point with a lower bound from the Lagrangian dual, certified up to the
rounding of the dual sums. The window solve and the window growth call it.
There is no restart minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RankDeficient
from .linalg import L1, L2, LINF, max_row_norm, row_norms

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the descent's caps and tolerances: golden-section steps per line search, line
# search tolerance relative to its bracket, relative gain of a pass that ends a
# descent, passes at most, diagonal directions offered
GOLDEN_MAX_ITER = 120
LINE_TOL_REL = 1e-11
DESCEND_TOL = 1e-10
DESCEND_MAX_PASSES = 40
DIAGONAL_DIRECTIONS_CAP = 24
# directions whose images are held at once, which bounds the memory a long
# direction list takes
IMAGE_CHUNK = 16


@dataclass(frozen=True)
class NormRatio:
    """The objective x -> max_r ||num(x)_r|| / max_r ||den(x)_r|| in the norm
    tag, for linear maps num and den from x to (rows, d) arrays, which take
    a leading stack axis: a (c, n) stack of points maps to (c, rows, d), each
    image the bits of its point's own; infinite where the denominator is
    below floor or the ratio is not finite, so an overflowed value is never
    a minimum. Its callers silence the overflow warnings, once per solve
    (see descend)."""

    num: Callable[[np.ndarray], np.ndarray]
    den: Callable[[np.ndarray], np.ndarray]
    tag: str
    floor: float

    def __call__(self, x: np.ndarray) -> float:
        bottom = max_row_norm(self.den(x), self.tag)
        if bottom < self.floor:
            return math.inf
        ratio = max_row_norm(self.num(x), self.tag) / bottom
        return ratio if ratio < math.inf else math.inf


def _rows(image: np.ndarray, tag: str, lead: tuple = ()) -> np.ndarray:
    """An image of a NormRatio's num or den, or a stack of lead images, as
    the rows its tag reduces: under linf every entry is a row of its own."""
    return image.reshape(*lead, -1, 1 if tag == LINF else image.shape[-1])


class _Lines:
    """The lines x + t u of one objective along fixed unit directions u.

    Along a line each row of num and den is affine in t, a_r + t b_r with
    a = num(x) and b = num(u) (den alike). A line holds in slots only the
    rows its direction moves (b_r != 0), padded with zero rows to counts
    shared by every objective of a descent: the num slots, then the den
    slots, as (part, slot, entry, line) arrays of real and imaginary parts,
    so that a block reduces its rows along leading axes. The rows it leaves
    alone enter as two constants, their largest num and den norms. The
    moved rows of each direction are taken once, and fit lays out their
    slots; at(x) builds the slots and constants of a point.
    """

    def __init__(self, objective: NormRatio, units: Sequence[np.ndarray]):
        self.objective, self.units = objective, units
        self.moved, self.values = zip(*(self._moved_rows(f) for f in (objective.num, objective.den)))
        # at least one slot each, so that a block's reductions are never empty
        self.counts = [max(1, int(moved.sum(axis=1).max())) for moved in self.moved]

    def _moved_rows(self, image: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of image(u) each direction u moves, and their values
        in (line, row) order; the images are taken IMAGE_CHUNK at a time,
        each chunk in one call on its stack of directions."""
        moved, values = [], []
        for start in range(0, len(self.units), IMAGE_CHUNK):
            chunk = np.stack(self.units[start : start + IMAGE_CHUNK])
            b = _rows(image(chunk), self.objective.tag, (len(chunk),))
            moved.append(b.any(axis=-1))
            values.append(b[moved[-1]])
        return np.concatenate(moved), np.concatenate(values)

    def fit(self, counts: Sequence[int]) -> None:
        """Lay out counts[0] num and counts[1] den slots per line."""
        self.gather, slots = [], []
        for moved, values, k in zip(self.moved, self.values, counts):
            n, rows = moved.shape
            line, row = np.nonzero(moved)
            per_line = moved.sum(axis=1)
            slot = np.arange(len(line)) - np.repeat(np.cumsum(per_line) - per_line, per_line)
            gather = np.full((n, k), rows)
            gather[line, slot] = row
            self.gather.append(gather)
            b = np.zeros((n, k, values.shape[1]), dtype=values.dtype)
            b[line, slot] = values
            slots.append(b)
        q = np.concatenate(slots, axis=1)
        # a line along a direction whose image is not finite is infinite
        # everywhere: at(x) makes its num constant infinite
        self.dead = ~np.isfinite(q).all(axis=(1, 2))
        q[self.dead] = 0.0
        self.q = _parts(q)

    def at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slots a of every line through x, and its (2, line) constants.
        The constants take numpy moduli, as max_row_norm does."""
        objective, slots, rest = self.objective, [], []
        images = [_rows(objective.num(x), objective.tag), _rows(objective.den(x), objective.tag)]
        for a, moved, gather in zip(images, self.moved, self.gather):
            # the largest norm a line leaves alone is among the k + 1 largest,
            # where it moves k rows at most
            norms = row_norms(a, objective.tag)
            top = np.argsort(-norms, kind="stable")[: gather.shape[1] + 1]
            free = ~moved[:, top]
            rest.append(np.where(free.any(axis=1), norms[top][free.argmax(axis=1)], 0.0))
            slots.append(np.concatenate([a, np.zeros_like(a[:1])])[gather])
        p, rest = np.concatenate(slots, axis=1).astype(complex), np.array(rest)
        dead = self.dead | ~np.isfinite(images[0]).all()
        p[dead] = 0.0
        rest[0, dead] = math.inf
        return _parts(p), rest


def _parts(slots: np.ndarray) -> np.ndarray:
    """(line, slot, entry) complex slots as (part, slot, entry, line) reals."""
    slots = slots.transpose(1, 2, 0)
    return np.stack([slots.real, slots.imag])


class _Block:
    """phi_i(t_i) = objective_i(x_i + t_i u_i) on a block of lines at once,
    from their slots p (at x_i) and q (along u_i), of which the first split
    are num slots, and their constants rest. A moved complex entry's
    modulus is np.hypot of its parts, as Python's abs takes it, and an l1
    row is summed left to right, so that these values are those of the
    scalar objective bit for bit. An l2 row is the root of its sum of
    squares in np.longdouble, rounded once. Where that type has a 64-bit
    mantissa (x86-64) it cannot overflow, and it is math.hypot's value in
    all but about 3 rows in 10,000; where it is a float64, a row past about
    1e154 reads as infinite."""

    def __init__(self, p, q, rest, split: int, tag: str, floor: np.ndarray):
        self.p, self.q, self.rest, self.split, self.tag, self.floor = p, q, rest, split, tag, floor
        self.cuts = np.array([0, split])

    def take(self, idx: np.ndarray) -> "_Block":
        p, q, rest = self.p[..., idx], self.q[..., idx], self.rest[:, idx]
        return _Block(p, q, rest, self.split, self.tag, self.floor[idx])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        z = self.p + t * self.q
        if self.tag == L2:
            z = z.astype(np.longdouble)
            norms = np.sqrt(np.einsum("psel,psel->sl", z, z)).astype(float)
        else:
            # under linf a row is one entry
            m = np.hypot(z[0], z[1])
            norms = m[:, 0]
            for c in range(1, m.shape[1]):
                norms = norms + m[:, c]
        top, bottom = np.maximum(np.maximum.reduceat(norms, self.cuts), self.rest)
        # infinite where bottom < floor, and where the ratio is not finite
        return np.fmin(top / np.where(bottom >= self.floor, bottom, 0.0), math.inf)


def _line_searches(phi: _Block, phi0: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The line search of every line of a block at once, from phi(0) = phi0.

    Per line it brackets by doubling in whichever direction descends or
    stays level, then refines with golden section, and returns (t, phi(t))
    with phi(t) <= phi0: (0, phi0) unless the search went below phi0. A
    level stretch is walked on, not taken for a minimum: a ratio of largest
    row norms stays level while a move leaves the largest rows alone, and
    may fall beyond that. Each line takes the same steps, and the same
    values, as it would searched alone.
    """
    n = len(phi0)
    fp, fm = phi(np.full(n, step)), phi(np.full(n, -step))
    lo, hi = np.full(n, -step), np.full(n, step)
    walk = np.flatnonzero(~((fp > phi0) & (fm > phi0)))
    if walk.size:
        up = fp[walk] <= fm[walk]
        best = np.where(up, fp[walk], fm[walk])
        t_prev, t_next = _walk(phi, walk, np.where(up, step, -step), best, step)
        lo[walk] = np.where(up, t_prev, t_next)
        hi[walk] = np.where(up, t_next, t_prev)
    t, ft = _golden_section(phi, lo, hi)
    keep = phi0 <= ft
    return np.where(keep, 0.0, t), np.where(keep, phi0, ft)


def _walk(phi: _Block, lines: np.ndarray, t_cur: np.ndarray, best: np.ndarray, step: float):
    """Double t from t_cur while phi stays at or below its last value, at
    most until |t| passes 1e12 step; returns the points before and at the
    stop. Each round tries twice the doublings of the last on every line
    still walking, two at first: most walks stop within two."""
    t_prev, t_next = np.zeros(len(lines)), np.empty(len(lines))
    todo, tries = np.arange(len(lines)), 2
    while todo.size:
        ladder = t_cur[todo, None] * 2.0 ** np.arange(1, tries + 1)
        f = phi.take(np.repeat(lines[todo], tries))(ladder.ravel()).reshape(ladder.shape)
        last = np.concatenate([best[todo, None], f[:, :-1]], axis=1)
        stop = (f > last) | (np.abs(ladder) > 1e12 * step)
        hit, at = stop.any(axis=1), stop.argmax(axis=1)
        path = np.concatenate([t_prev[todo, None], t_cur[todo, None], ladder], axis=1)
        rows = np.flatnonzero(hit)
        t_next[todo[rows]] = ladder[rows, at[rows]]
        t_prev[todo[rows]] = path[rows, at[rows]]
        todo, rows = todo[~hit], np.flatnonzero(~hit)
        t_prev[todo], t_cur[todo], best[todo] = ladder[rows, -2], ladder[rows, -1], f[rows, -1]
        tries *= 2
    return t_prev, t_next


def _golden_section(phi: _Block, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden section on every [a_i, b_i] in lockstep, each to its own
    tolerance (relative to its width) or GOLDEN_MAX_ITER steps; returns the
    better inner point of each and its value. A line leaves the block once
    its bracket is within tolerance."""
    tol = np.maximum((b - a) * LINE_TOL_REL, 1e-14)
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    t, ft = np.empty(len(a)), np.empty(len(a))
    lines = np.arange(len(a))
    live = (b - a) > tol
    for it in range(GOLDEN_MAX_ITER + 1):
        if it == GOLDEN_MAX_ITER:
            live[:] = False
        if np.count_nonzero(live) < len(lines):
            left, done = f1 <= f2, ~live
            t[lines[done]] = np.where(left, x1, x2)[done]
            ft[lines[done]] = np.where(left, f1, f2)[done]
            if not live.any():
                break
            keep = np.flatnonzero(live)
            phi, lines = phi.take(keep), lines[keep]
            a, b, x1, x2, f1, f2, tol = (v[keep] for v in (a, b, x1, x2, f1, f2, tol))
        # f1 <= f2: b, x2, f2 = x2, x1, f1 and x1 is new;
        # else: a, x1, f1 = x1, x2, f2 and x2 is new
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        width = b - a
        new = np.where(left, b - GOLDEN * width, a + GOLDEN * width)
        fn = phi(new)
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        f1, f2 = np.where(left, fn, f2), np.where(left, f1, fn)
        live = width > tol
    return t, ft


def _point(x0: np.ndarray) -> np.ndarray:
    return np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)


class _Run:
    """One descent's state: its point, its place in the pass, its gain, and
    how many lines its next block holds."""

    def __init__(self, lines: _Lines, x0: np.ndarray):
        self.lines = lines
        self.x0 = self.x = _point(x0)
        self.f0 = self.fx = lines.objective(self.x0)
        self.p, self.rest = lines.at(self.x)
        self.pos, self.passes, self.improved, self.done = 0, 0, 0.0, False
        self.window = len(lines.units)

    def block(self, whole: bool) -> tuple:
        """The slots p and q, the constants, the floor and phi(0) of the
        lines of its next block; all the lines left in its pass if whole."""
        n = len(self.lines.units)
        lines = slice(self.pos, n if whole else min(self.pos + self.window, n))
        size = lines.stop - lines.start
        floor = np.full(size, self.lines.objective.floor)
        phi0 = np.full(size, self.fx)
        return self.p[..., lines], self.lines.q[..., lines], self.rest[:, lines], floor, phi0

    def advance(self, t: np.ndarray, ft: np.ndarray) -> None:
        """Take the first step of the block's lines that goes below fx, if
        any; the lines after it are searched again from the new point. The
        next block holds twice the lines this one needed."""
        hit = np.flatnonzero(ft < self.fx - 1e-16)
        if hit.size:
            j = int(hit[0])
            self.improved += self.fx - float(ft[j])
            self.x = self.x + t[j] * self.lines.units[self.pos + j]
            self.fx = float(ft[j])
            self.pos += j + 1
            self.window = 2 * (j + 1)
            self.p, self.rest = self.lines.at(self.x)
        else:
            self.pos += len(t)
            self.window *= 2
        if self.pos == len(self.lines.units):
            self.passes += 1
            ended = self.improved <= DESCEND_TOL * (1.0 + abs(self.fx))
            self.done = ended or self.passes == DESCEND_MAX_PASSES
            self.pos, self.improved = 0, 0.0

    def result(self) -> tuple[np.ndarray, float]:
        fx = self.lines.objective(self.x)
        return (self.x, fx) if fx <= self.f0 else (self.x0, self.f0)


# one errstate per solve: the objective and its lines overflow where powers
# or cuts pass the largest float, and read an overflow as infinite
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def descend(
    problems: Sequence[tuple[NormRatio, Sequence[np.ndarray]]],
    directions: Sequence[np.ndarray],
    scale: float,
) -> list[list[tuple[np.ndarray, float]]]:
    """Repeated line minimization along a fixed direction list: for each
    (objective, seeds) problem, one (x, value) per seed. The objectives
    share their norm tag and the width of their rows.

    Each direction is normalized once. A pass searches the lines through the
    current point along every direction, in order, and a step is only
    accepted when it strictly decreases the line's value. Until one is, the
    lines of a pass start from the same point, so one lockstep line search
    (_line_searches, on numpy arrays) takes a block of lines from every
    seed of every problem: a lone seed's block holds all the lines left in
    its pass; with several seeds, a block holds twice the lines the seed's
    last block needed (the first, a whole pass), so that few lines are
    searched past a step. The first line below the current value takes its
    step, and the lines after it are searched again from the new point.
    Every line takes the steps it would take searched alone.
    The value returned is the full objective at the point returned: the
    final point, or the seed where rounding left the final point's value
    above the seed's. So a result never exceeds the objective at its seed,
    even on objectives with non-unimodal slices, and it is always the
    objective at a concrete point.
    """
    # each row's re.re + im.im, as np.linalg.norm sums one vector, on views of D
    D = np.asarray(directions)
    sq = np.einsum("ij,ij->i", D.real, D.real) + np.einsum("ij,ij->i", D.imag, D.imag)
    units = [d / dn for d, dn in zip(directions, np.sqrt(sq).tolist()) if dn > 0.0]
    if not units:
        return [[(x, objective(x)) for x in map(_point, seeds)] for objective, seeds in problems]
    lines = [_Lines(objective, units) for objective, _ in problems]
    counts = np.max([ln.counts for ln in lines], axis=0, initial=0)
    runs = []
    for ln, (_, seeds) in zip(lines, problems):
        ln.fit(counts)
        runs.append([_Run(ln, s) for s in seeds])
    step = max(scale, 1e-300)
    searching = [r for rs in runs for r in rs]
    while searching:
        # a lone descent searches all its remaining lines: a block of its
        # own costs it a whole line search of rounds
        blocks = [r.block(len(searching) == 1) for r in searching]
        p, q, rest, floor, phi0 = (np.concatenate(part, axis=-1) for part in zip(*blocks))
        t, ft = _line_searches(_Block(p, q, rest, int(counts[0]), problems[0][0].tag, floor), phi0, step)
        cuts = np.cumsum([len(b[-1]) for b in blocks])[:-1]
        for r, ts, fs in zip(searching, np.split(t, cuts), np.split(ft, cuts)):
            r.advance(ts, fs)
        searching = [r for r in searching if not r.done]
    return [[r.result() for r in rs] for rs in runs]


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
    objective where it is, and every basis is feasible. So does a reduced
    cost that is not finite."""
    degenerate = 0
    for pivots in range(budget + 1):
        inv = np.linalg.inv(cols[:, basis])
        xb = inv[:, -1]
        # rounding leaves zero basics at about +-1e-17; count them as zero,
        # so that a degenerate pivot is seen as one
        xb = np.where(xb > 1e-13 * np.abs(xb).max(), xb, 0.0)
        # pricing overflows where the cuts pass about 1e308 (min_max_norm
        # silences the warnings)
        pi = cost[basis] @ inv
        reduced = cost - pi @ cols
        noise = 1e-12 * (np.abs(cost) + np.abs(pi) @ np.abs(cols))
        if not np.isfinite(reduced).all():
            return pivots, pi, xb
        # a reduced cost counts only above the rounding of its own terms
        reduced[reduced <= noise] = 0.0
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


@np.errstate(over="ignore", invalid="ignore")
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

    The solve runs under one errstate: pieces and cuts overflow where the
    entries pass about 1e154. An overflowed piece is never taken for a
    minimum (nan and inf fail every comparison below f_best), and a reduced
    cost that is not finite ends the simplex.
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
        raise RankDeficient("the stacked A_n must have full column rank")
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
