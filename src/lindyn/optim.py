"""Deterministic derivative-free minimization used across the toolkit.

Everything here is exact-arithmetic-free numerics: bracketed golden-section
line searches driven by coordinate passes, augmented with pairwise diagonal
directions when a pass stalls, restarted from a small deterministic seed set.
No randomness is consumed beyond generators the caller passes in, so repeated
runs agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .linalg import max_row_norm

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(
    phi: Callable[[float], float], a: float, b: float, tol: float, max_iter: int = 120
) -> tuple[float, float]:
    """Minimize phi on [a, b]; intended for unimodal slices."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    it = 0
    while (b - a) > tol and it < max_iter:
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


def line_minimize(
    phi: Callable[[float], float], phi0: float, scale: float, tol_rel: float = 1e-11
) -> tuple[float, float]:
    """Minimize phi over the real line starting from t = 0.

    Brackets by doubling in whichever direction descends, then refines with
    golden section. Returns (t, phi(t)) with phi(t) <= phi(0).
    """
    step = max(scale, 1e-300)
    fp = phi(step)
    fm = phi(-step)
    if fp >= phi0 and fm >= phi0:
        lo, hi = -step, step
    else:
        sgn = 1.0 if fp <= fm else -1.0
        best = fp if sgn > 0 else fm
        t_prev, t_cur = 0.0, sgn * step
        while True:
            t_next = t_cur * 2.0
            f_next = phi(t_next)
            if f_next >= best or abs(t_next) > 1e12 * step:
                break
            t_prev, t_cur, best = t_cur, t_next, f_next
        lo, hi = (t_prev, t_next) if sgn > 0 else (t_next, t_prev)
    width = hi - lo
    t, ft = golden_section(phi, lo, hi, tol=max(width * tol_rel, 1e-14))
    if phi0 <= ft:
        return 0.0, phi0
    return t, ft


def descend(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    directions: Sequence[np.ndarray],
    scale: float,
    tol: float = 1e-10,
    max_passes: int = 40,
) -> tuple[np.ndarray, float]:
    """Repeated line minimization along a fixed direction list.

    Steps are only accepted when they strictly decrease f, so the result
    never exceeds f(x0) even on objectives with non-unimodal slices.
    """
    x = np.array(x0, dtype=complex if np.iscomplexobj(x0) else float)
    fx = f(x)
    for _ in range(max_passes):
        improved = 0.0
        for d in directions:
            dn = float(np.linalg.norm(d))
            if dn == 0.0:
                continue
            u = d / dn

            def phi(t: float) -> float:
                return f(x + t * u)

            t, ft = line_minimize(phi, fx, scale)
            if ft < fx - 1e-16:
                improved += fx - ft
                x = x + t * u
                fx = ft
        if improved <= tol * (1.0 + abs(fx)):
            break
    return x, fx


def coordinate_directions(dim: int) -> list[np.ndarray]:
    return [np.eye(dim)[j] for j in range(dim)]


def diagonal_directions(dim: int, limit: int = 24) -> list[np.ndarray]:
    """Pairwise two-coordinate diagonals, capped to keep passes cheap."""
    dirs: list[np.ndarray] = []
    eye = np.eye(dim)
    for j in range(dim):
        for k in range(j + 1, dim):
            dirs.append(eye[j] + eye[k])
            dirs.append(eye[j] - eye[k])
            if len(dirs) >= limit:
                return dirs
    return dirs


class AffineSupProblem:
    """Minimize s -> max_n || M_n s + w_n ||_tag over complex seeds s.

    The per-direction slices are convex, and every line evaluation is a
    single vectorized pass over precomputed arrays.
    """

    def __init__(self, mats: np.ndarray, offs: np.ndarray, tag: str):
        # mats: (N, out, m) complex; offs: (N, out) complex
        self.mats = np.asarray(mats, dtype=complex)
        self.offs = np.asarray(offs, dtype=complex)
        self.tag = tag
        self.m = self.mats.shape[2]

    def value(self, s: np.ndarray) -> float:
        return max_row_norm(self.mats @ s + self.offs, self.tag)

    def minimize(self, seeds: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
        m = self.m
        base_dirs: list[np.ndarray] = []
        eye = np.eye(m, dtype=complex)
        for j in range(m):
            base_dirs.append(eye[j])
            base_dirs.append(1j * eye[j])
        diag_dirs: list[np.ndarray] = []
        for j in range(m):
            for k in range(j + 1, m):
                diag_dirs.append(eye[j] + eye[k])
                diag_dirs.append(eye[j] - eye[k])
                diag_dirs.append(eye[j] + 1j * eye[k])
                if len(diag_dirs) >= 18:
                    break
            if len(diag_dirs) >= 18:
                break

        best_s, best_f = None, math.inf
        for seed in seeds:
            s = np.array(seed, dtype=complex)
            fs = self.value(s)
            scale = max(1e-6, 0.5 * (1.0 + fs))
            for _ in range(60):
                improved = 0.0
                stalled = True
                for dirs in (base_dirs, diag_dirs):
                    for u in dirs:
                        A_pt = self.mats @ s + self.offs
                        A_dir = self.mats @ u

                        def phi(t: float) -> float:
                            return max_row_norm(A_pt + t * A_dir, self.tag)

                        t, ft = line_minimize(phi, fs, scale)
                        if ft < fs - 1e-16:
                            improved += fs - ft
                            s = s + t * u
                            fs = ft
                            stalled = False
                    if not stalled:
                        break  # retry cheap coordinate pass before diagonals
                scale = max(1e-9, min(scale, 0.5 * (1.0 + fs)))
                if improved <= 1e-11 * (1.0 + abs(fs)):
                    break
            if fs < best_f:
                best_s, best_f = s, fs
        assert best_s is not None
        return best_s, best_f
