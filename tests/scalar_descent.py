"""The derivative-free descent as it ran before its line searches were run
in lockstep: one Python-scalar line search per direction, in order. The
tests compare optim.descend against it bit for bit."""

from __future__ import annotations

import math

import numpy as np

from lindyn.linalg import L1, L2, LINF, max_row_norm
from lindyn.optim import DESCEND_MAX_PASSES, DESCEND_TOL, GOLDEN, GOLDEN_MAX_ITER, LINE_TOL_REL


def golden_section(phi, a, b, tol):
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


def line_minimize(phi, phi0, scale):
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


def line(objective, x, u):
    """t -> objective(x + t u) up to rounding, on Python scalars."""
    a, b = objective.num(x), objective.num(u)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return lambda t: math.inf
    num = _line_norm(a, b, objective.tag)
    den = _line_norm(objective.den(x), objective.den(u), objective.tag)
    floor = objective.floor

    def phi(t):
        bottom = den(t)
        if bottom < floor:
            return math.inf
        ratio = num(t) / bottom
        return ratio if ratio < math.inf else math.inf

    return phi


def _line_norm(a, b, tag):
    if tag == LINF:
        moving = b != 0
        rest = float(np.abs(a[~moving]).max(initial=0.0))
        pairs = list(zip(a[moving].tolist(), b[moving].tolist()))

        def largest_entry(t):
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

        def largest_l1(t):
            top = rest
            for row in rows:
                v = 0.0
                for p, q in row:
                    v += abs(p + t * q)
                if v > top:
                    top = v
            return top

        return largest_l1

    def largest_l2(t):
        top = rest
        for row in rows:
            v = math.hypot(*[p + t * q for p, q in row])
            if v > top:
                top = v
        return top

    return largest_l2


@np.errstate(over="ignore", invalid="ignore")
def descend(objective, x0, directions, scale):
    x0 = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    f0 = objective(x0)
    units = [d / dn for d in directions if (dn := float(np.linalg.norm(d))) > 0.0]
    x, fx = x0, f0
    for _ in range(DESCEND_MAX_PASSES):
        improved = 0.0
        for u in units:
            t, ft = line_minimize(line(objective, x, u), fx, scale)
            if ft < fx - 1e-16:
                improved += fx - ft
                x = x + t * u
                fx = ft
        if improved <= DESCEND_TOL * (1.0 + abs(fx)):
            break
    fx = objective(x)
    return (x, fx) if fx <= f0 else (x0, f0)
