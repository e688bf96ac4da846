"""Deterministic sample generators.

All randomness flows through numpy Generators constructed from explicit
seeds, so every diagnostic that consumes samples is reproducible from its
recorded seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import DenseVector, SparseBiSeq, row_norms

MARGIN_MATRIX_TRIES = 10_000
# a random contraction's spectral radius is drawn uniformly from this interval
CONTRACTION_RADII = (0.2, 0.9)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def dense_basis(dim: int, tag: str) -> list[DenseVector]:
    out = []
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        out.append(DenseVector(e, tag))
    return out


def unit_dense_rows(
    dim: int,
    tag: str,
    count: int,
    rng: np.random.Generator,
    real: bool = False,
) -> np.ndarray:
    """`count` unit vectors as the rows of a (count, dim) complex array.

    Each row takes dim normals (then dim more for the imaginary part, unless
    real) and is redrawn if its norm is below 1e-12. A pass draws all the
    rows still missing at once, which takes the same numbers from the
    generator, in the same order, as drawing row by row.
    """
    out = np.empty((0, dim), dtype=complex)
    while len(out) < count:
        raw = rng.standard_normal((count - len(out), 1 if real else 2, dim))
        v = np.asarray(raw[:, 0] if real else raw[:, 0] + 1j * raw[:, 1], dtype=complex)
        n = row_norms(v, tag)
        keep = n >= 1e-12
        out = np.concatenate([out, v[keep] / n[keep, None]])
    return out


def unit_dense_samples(
    dim: int, tag: str, count: int, rng: np.random.Generator
) -> list[DenseVector]:
    return [DenseVector(row, tag) for row in unit_dense_rows(dim, tag, count, rng)]


def unit_seq_samples(
    lo: int,
    hi: int,
    tag: str,
    count: int,
    rng: np.random.Generator,
    support: int = 3,
) -> list[SparseBiSeq]:
    """Unit-norm sequences supported on `support` indices inside [lo, hi]."""
    out: list[SparseBiSeq] = []
    width = hi - lo + 1
    k = min(support, width)
    while len(out) < count:
        idx = rng.choice(width, size=k, replace=False) + lo
        vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        seq = SparseBiSeq({int(i): complex(z) for i, z in zip(idx, vals)}, tag)
        n = seq.norm()
        if n < 1e-12:
            continue
        out.append(seq * (1.0 / n))
    return out


def random_margin_matrix(
    dim: int, rng: np.random.Generator, margin: float = 0.05, min_modulus: float = 1e-6
) -> np.ndarray:
    """Random real matrix whose eigenvalue moduli sit at least `margin` off
    the unit circle and at least `min_modulus` off zero, by rejection."""
    for _ in range(MARGIN_MATRIX_TRIES):
        m = rng.standard_normal((dim, dim))
        moduli = np.abs(np.linalg.eigvals(m))
        if np.all(np.abs(moduli - 1.0) >= margin) and np.all(moduli >= min_modulus):
            return m
    raise RuntimeError(f"no margin-{margin} matrix found in {MARGIN_MATRIX_TRIES} draws")


def random_spectral_contraction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random real matrix rescaled so its spectral radius lands uniformly in
    CONTRACTION_RADII. The operator norm may still exceed 1."""
    target = rng.uniform(*CONTRACTION_RADII)
    while True:
        m = rng.standard_normal((dim, dim))
        r = float(np.abs(np.linalg.eigvals(m)).max())
        if r > 1e-9:
            return m * (target / r)
