"""Scalars, vectors, norms, and the shared numerical kernels.

Two vector kinds cover the whole toolkit: dense coordinate vectors for
finite-dimensional work (dimension capped at 32) and finitely supported
bilateral sequences indexed by the integers, stored as exact index to value
maps. Every vector carries a norm tag (l1, l2, linf); arithmetic between
mismatched tags is rejected rather than coerced.

Every vector norm is reduced by tag in one kernel, _tag_norms: row_norms,
array_norm and SparseBiSeq.norm differ only in how they take the moduli.
mat_norm is the one-matrix case of mat_norms, and DUAL_TAG and
_unit_maximizers give dual norms. Outside the kernel only max_row_norm
(its fast path), optim._Block (the descent's lockstep line evaluator: it
takes np.hypot moduli and sums l1 rows left to right, as Python's scalar
arithmetic does, and sums l2 squares in extended precision) and
optim._blocks (the window solver's real pieces) reduce a vector norm by
tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import KindMismatch, NoConvergence, NonContracting, NonFinite

L1 = "l1"
L2 = "l2"
LINF = "linf"
NORM_TAGS = (L1, L2, LINF)

MAX_DENSE_DIM = 32

# Entries below this modulus are dropped during canonicalization. Denormal
# guard only; never used as a modeling tolerance.
SPARSE_DROP = 1e-300


def check_norm_tag(tag: str) -> str:
    if tag not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {tag!r}; expected one of {NORM_TAGS}")
    return tag


def check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFinite("coordinates must be finite")
    return arr


def check_scalar(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite("scalar must have finite real and imaginary parts")
    return z


class DenseVector:
    """Coordinate vector in dimension 1..32 with an attached norm tag."""

    __slots__ = ("coords", "norm_tag")

    def __init__(self, coords, norm_tag: str):
        arr = np.array(coords, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("coords must be one-dimensional")
        if not 1 <= arr.size <= MAX_DENSE_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DENSE_DIM}, got {arr.size}")
        check_finite(arr)
        arr.setflags(write=False)
        self.coords = arr
        self.norm_tag = check_norm_tag(norm_tag)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def norm(self) -> float:
        return array_norm(self.coords, self.norm_tag)

    def _require_same(self, other: "DenseVector") -> None:
        if not isinstance(other, DenseVector):
            raise KindMismatch("expected a dense vector")
        if other.norm_tag != self.norm_tag or other.dim != self.dim:
            raise KindMismatch("dense vectors disagree in norm tag or dimension")

    def __add__(self, other: "DenseVector") -> "DenseVector":
        self._require_same(other)
        return DenseVector(self.coords + other.coords, self.norm_tag)

    def __sub__(self, other: "DenseVector") -> "DenseVector":
        self._require_same(other)
        return DenseVector(self.coords - other.coords, self.norm_tag)

    def __mul__(self, c) -> "DenseVector":
        return DenseVector(self.coords * check_scalar(c), self.norm_tag)

    __rmul__ = __mul__

    def __neg__(self) -> "DenseVector":
        return DenseVector(-self.coords, self.norm_tag)

    def __repr__(self) -> str:
        return f"DenseVector({self.coords.tolist()!r}, {self.norm_tag!r})"


class SparseBiSeq:
    """Finitely supported sequence over the integers.

    Stored as a dict from index to nonzero complex value, so arithmetic on
    disjoint supports is exact. Canonical form never stores zeros.
    """

    __slots__ = ("entries", "norm_tag")

    def __init__(self, entries: Mapping[int, complex], norm_tag: str):
        clean: dict[int, complex] = {}
        for k, v in entries.items():
            if not isinstance(k, (int, np.integer)):
                raise ValueError(f"index {k!r} is not an integer")
            z = check_scalar(v)
            if abs(z) < SPARSE_DROP:
                continue
            clean[int(k)] = z
        self.entries = clean
        self.norm_tag = check_norm_tag(norm_tag)

    @classmethod
    def zero(cls, norm_tag: str) -> "SparseBiSeq":
        return cls({}, norm_tag)

    @classmethod
    def basis(cls, k: int, norm_tag: str, value: complex = 1.0) -> "SparseBiSeq":
        return cls({k: value}, norm_tag)

    def __getitem__(self, k: int) -> complex:
        return self.entries.get(int(k), 0j)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def is_zero(self) -> bool:
        return not self.entries

    def norm(self) -> float:
        # Python abs keeps each modulus's bits
        vals = np.fromiter((abs(v) for v in self.entries.values()), float, len(self.entries))
        return float(_tag_norms(vals[None], self.norm_tag)[0])

    def _require_same(self, other: "SparseBiSeq") -> None:
        if not isinstance(other, SparseBiSeq):
            raise KindMismatch("expected a bilateral sequence")
        if other.norm_tag != self.norm_tag:
            raise KindMismatch("sequences disagree in norm tag")

    def __add__(self, other: "SparseBiSeq") -> "SparseBiSeq":
        self._require_same(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0j) + v
        return SparseBiSeq(out, self.norm_tag)

    def __sub__(self, other: "SparseBiSeq") -> "SparseBiSeq":
        return self + (-1.0) * other

    def __mul__(self, c) -> "SparseBiSeq":
        z = check_scalar(c)
        if z == 0:
            return SparseBiSeq.zero(self.norm_tag)
        return SparseBiSeq({k: v * z for k, v in self.entries.items()}, self.norm_tag)

    __rmul__ = __mul__

    def __neg__(self) -> "SparseBiSeq":
        return self * (-1.0)

    def restrict(self, keep: Callable[[int], bool]) -> "SparseBiSeq":
        return SparseBiSeq(
            {k: v for k, v in self.entries.items() if keep(k)}, self.norm_tag
        )

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self.entries.items()))
        return f"SparseBiSeq({{{items}}}, {self.norm_tag!r})"


def _scaled_l2(mags: np.ndarray) -> np.ndarray:
    """l2 norms of the rows of the (n, d) moduli mags, as
    max * sqrt(sum (m / max)^2), finite wherever the norm is: the plain sum
    of squares overflows from about 1.3e154. A row whose max is 0, inf or
    nan keeps it as its norm."""
    top = mags.max(axis=1)
    out = top.copy()
    ok = np.isfinite(top) & (top > 0)
    scaled = mags[ok] / top[ok, None]
    out[ok] = top[ok] * np.sqrt((scaled * scaled).sum(axis=1))
    return out


def _tag_norms(mags: np.ndarray, tag: str) -> np.ndarray:
    """The tag norm of each row of the (n, d) moduli mags: the sum (l1), the
    max, 0 for an empty row (linf), or the root of the sum of squares, a row
    that overflows redone by _scaled_l2 (l2). The ufunc reductions are those
    of ndarray.sum and ndarray.max, without their Python wrappers."""
    if tag == L1:
        return np.add.reduce(mags, -1)
    if tag == LINF:
        return np.maximum.reduce(mags, -1, initial=0.0)
    check_norm_tag(tag)
    with np.errstate(over="ignore"):
        out = np.sqrt(np.add.reduce(mags * mags, -1))
    if not math.isfinite(np.maximum.reduce(out, None, initial=0.0)):
        over = ~np.isfinite(out)
        out[over] = _scaled_l2(mags[over])
    return out


def array_norm(arr: np.ndarray, tag: str) -> float:
    """The norm of all entries of arr, taken as one vector."""
    return float(_tag_norms(np.abs(arr).reshape(1, -1), tag)[0])


def row_norms(rows: np.ndarray, tag: str) -> np.ndarray:
    """Norm of every row of an (n, d) array; entry k equals array_norm(rows[k], tag)."""
    return _tag_norms(np.abs(rows), tag)


def max_row_norm(rows: np.ndarray, tag: str) -> float:
    """The largest row norm of an (n, d) array, 0.0 when n = 0.

    Bit for bit float(row_norms(rows, tag).max(initial=0.0)), but cheaper:
    under linf one flat max replaces n row maxima, and under l2 one square
    root of the largest sum of squares replaces n (the square root is
    monotone and correctly rounded, so it commutes with the max) unless a
    sum overflows.
    """
    mags = np.abs(rows)
    if tag == LINF:
        return float(mags.max(initial=0.0))
    if tag == L1:
        return float(mags.sum(axis=1).max(initial=0.0))
    check_norm_tag(tag)
    with np.errstate(over="ignore"):
        top = float((mags * mags).sum(axis=1).max(initial=0.0))
    return math.sqrt(top) if math.isfinite(top) else float(row_norms(rows, tag).max())


# the tag of the dual norm: ||g||_dual = max over unit z (in tag) of Re g z
DUAL_TAG = {L1: LINF, L2: L2, LINF: L1}


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


def as_square_matrix(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not 1 <= m.shape[0] <= MAX_DENSE_DIM:
        raise ValueError(f"matrix side must be in 1..{MAX_DENSE_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def mat_norm(m: np.ndarray, tag: str) -> float:
    """Induced operator norm of a (possibly rectangular) matrix."""
    return mat_norms(m[None], tag)[0]


def mat_norms(stack: np.ndarray, tag: str) -> list[float]:
    """mat_norm of each matrix in a (k, rows, cols) stack, in one call.

    Each matrix gets the same LAPACK call (the singular values, under l2)
    or the same reduction (column or row sums, under l1 or linf) that
    mat_norm makes on it alone, so every norm is the same float.
    """
    check_norm_tag(tag)
    if stack.size == 0:
        return [0.0] * len(stack)
    if tag == L2:
        return np.linalg.svd(stack, compute_uv=False).max(-1).tolist()
    return np.abs(stack).sum(axis=1 if tag == L1 else 2).max(-1).tolist()


def power_stack(K: np.ndarray, Q: np.ndarray, count: int) -> np.ndarray:
    """K^n Q for n = 0 .. count - 1 as a (count, *Q.shape) complex array, in
    about log2(count) doubling passes, each multiplying the powers filled so
    far by the next power of K; refused with NonFinite where one overflows."""
    out = np.empty((count, *Q.shape), dtype=complex)
    out[0] = Q
    filled, power = 1, K
    with np.errstate(over="ignore", invalid="ignore"):
        while filled < count:
            step = min(filled, count - filled)
            out[filled : filled + step] = power @ out[:step]
            filled += step
            if filled < count:
                power = power @ power
    if not np.isfinite(out).all():
        raise NonFinite(f"powers of the matrix up to {count - 1} overflow")
    return out


@dataclass(frozen=True)
class FixedPointResult:
    point: object
    iterations: int
    final_step: float


def _distance(a, b) -> float:
    if isinstance(a, (DenseVector, SparseBiSeq)):
        return (a - b).norm()
    if isinstance(a, np.ndarray):
        return array_norm(a - b, LINF)
    return abs(complex(a) - complex(b))


def banach_fixed_point(
    map_fn: Callable,
    x0,
    contraction_bound: float,
    tol: float,
) -> FixedPointResult:
    """Iterate a declared contraction to a point p with d(map(p), p) <= tol.

    The iteration count never exceeds the a priori bound computed from the
    declared contraction factor and the first step length. If any observed
    step ratio exceeds the declared factor by more than 1e-9 the declaration
    was false and the iteration aborts.
    """
    if not 0.0 < contraction_bound < 1.0:
        raise ValueError("contraction_bound must lie in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    lam = contraction_bound
    x = x0
    fx = map_fn(x)
    step = _distance(fx, x)
    if step <= tol:
        return FixedPointResult(point=x, iterations=0, final_step=step)

    # lam^n * step <= tol * (1 - lam) guarantees the post condition.
    budget = math.ceil(math.log(tol * (1.0 - lam) / step) / math.log(lam)) + 1
    iterations = 0
    while step > tol:
        iterations += 1
        x = fx
        fx = map_fn(x)
        new_step = _distance(fx, x)
        if step > 0 and new_step / step > lam + 1e-9:
            raise NonContracting(
                f"observed step ratio {new_step / step:.6g} exceeds declared "
                f"bound {lam:.6g}",
                ratio=new_step / step,
                bound=lam,
            )
        step = new_step
        if iterations > budget:
            raise NonContracting(
                "iteration exceeded the a priori budget for the declared bound",
                ratio=float("nan"),
                bound=lam,
            )
    return FixedPointResult(point=x, iterations=iterations, final_step=step)


EIG_RESIDUAL_REL = 1e-8


def dense_eig(matrix) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a square matrix, deterministically ordered.

    Pairs are sorted by modulus then angle. Eigenvectors are unit l2 with the
    largest-modulus coordinate rotated to the positive real axis, so repeated
    runs give identical output. Residuals are checked against the matrix
    scale; a failure means the backend result cannot be trusted.
    """
    m = as_square_matrix(matrix)
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigen decomposition failed: {exc}") from exc
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(vals)).all():
            raise NonFinite("eigenvalue moduli must be finite")

    scale = max(float(np.linalg.norm(m, 2)), 1e-300)
    pairs: list[tuple[complex, np.ndarray]] = []
    for j in range(m.shape[0]):
        lam = complex(vals[j])
        v = np.array(vecs[:, j], dtype=complex)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise NoConvergence("zero eigenvector returned")
        v = v / nrm
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        v = v / phase
        # array_norm, as a sum of squares of entries past 1e154 overflows
        resid = array_norm(m @ v - lam * v, L2)
        if resid > EIG_RESIDUAL_REL * scale:
            raise NoConvergence(
                f"eigen residual {resid:.3g} exceeds {EIG_RESIDUAL_REL:.0e} * norm",
                residual=resid,
            )
        pairs.append((lam, v))

    def key(p):
        lam = p[0]
        # cmath.phase raises where the angle underflows; math.atan2 does not
        return (abs(lam), math.atan2(lam.imag, lam.real), lam.real, lam.imag)

    pairs.sort(key=key)
    return pairs
