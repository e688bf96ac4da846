"""Standing examples used by tests, scenarios, and docs.

Each constructor returns fresh objects so callers can mutate nothing shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import L1, L2, LINF, check_norm_tag
from .operators import (
    CompositionOp,
    DenseOp,
    DiagonalOp,
    ShiftOp,
    SignWeights,
    ApproachOneWeights,
)
from .splitting import CoordinateSplit


def saddle(norm_tag: str = LINF) -> DenseOp:
    """diag(1/2, 2): the minimal hyperbolic saddle."""
    return DenseOp([[0.5, 0.0], [0.0, 2.0]], norm_tag, invertible=True)


def quarter_rotation(norm_tag: str = L2) -> DenseOp:
    """Rotation by 90 degrees; an isometry with spectrum on the circle."""
    return DenseOp([[0.0, -1.0], [1.0, 0.0]], norm_tag, invertible=True)


def contraction_half(dim: int = 2, norm_tag: str = LINF) -> DenseOp:
    return DenseOp(0.5 * np.eye(dim), norm_tag, invertible=True)


def shifted_weighted_contraction(
    alpha: float = 0.5, norm_tag: str = L1
) -> tuple[DiagonalOp, ShiftOp, CompositionOp, CoordinateSplit]:
    """Weighted shift L = R o W on bilateral sequences, cut at index 0.

    W multiplies by alpha on indices <= 0 and by 1/alpha on indices > 0;
    R shifts support down by one. For 0 < alpha < 1 the composition is
    generalized hyperbolic but not hyperbolic: L(e_1) lands on e_0, so
    L(U) meets S in a nonzero vector. Forward and backward orbits of e_0
    decay like alpha^n on both sides, giving exact homoclinic profiles.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    check_norm_tag(norm_tag)
    w = DiagonalOp(SignWeights(neg_and_zero=alpha, pos=1.0 / alpha), norm_tag)
    r = ShiftOp(1, norm_tag)
    composed = CompositionOp([r, w])
    return w, r, composed, CoordinateSplit(cutoff=0, norm_tag=norm_tag)


def diagonal_sup_one(norm_tag: str = L1) -> tuple[DiagonalOp, CoordinateSplit]:
    """Diagonal weights with moduli rising to 1: the Undetermined boundary case."""
    return (
        DiagonalOp(ApproachOneWeights(), norm_tag),
        CoordinateSplit(cutoff=0, norm_tag=norm_tag),
    )


@dataclass(frozen=True)
class DifferentiableMap:
    """A nonlinear map with a fixed point and an analytic Jacobian.

    bounds(rho), for rho > 0, returns entrywise bounds (b, B) with
    b >= |h(z)| and B >= |Dh(z)| on the box |z_i| <= rho, which holds every
    l1, l2 and linf ball of radius rho. Here h(z) = F(p + z) - p - Jz is the
    nonlinearity at the fixed point p, with J the Jacobian at p. A map
    without them cannot be linearized locally.
    """

    name: str
    norm_tag: str
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    fixed_point: np.ndarray
    bounds: Optional[Callable[[float], tuple[np.ndarray, np.ndarray]]] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=complex))


def saddle_cubic_map(norm_tag: str = LINF) -> DifferentiableMap:
    """F(x, y) = (x/2 + 0.005 x^2, 2y - 0.005 y^3), fixed point 0.

    The derivative at 0 is the saddle diag(1/2, 2); the nonlinearity is
    small near the origin, so local linearization certifies on a usable box.
    """

    def fn(v: np.ndarray) -> np.ndarray:
        x, y = v
        return np.array([0.5 * x + 0.005 * x * x, 2.0 * y - 0.005 * y**3], dtype=complex)

    def jac(v: np.ndarray) -> np.ndarray:
        x, y = v
        return np.array(
            [[0.5 + 0.01 * x, 0.0], [0.0, 2.0 - 0.015 * y * y]], dtype=complex
        )

    return DifferentiableMap(
        name="saddle_cubic",
        norm_tag=norm_tag,
        fn=fn,
        jac=jac,
        fixed_point=np.zeros(2, dtype=complex),
        bounds=lambda r: (
            np.array([0.005 * r**2, 0.005 * r**3]), np.diag([0.01 * r, 0.015 * r**2])
        ),
    )


def rotation_cubic_map(norm_tag: str = L2) -> DifferentiableMap:
    """A map whose derivative at the fixed point is a rotation.

    Local linearization has no hyperbolic model here, so certification must
    fail; kept as the standing negative example.
    """

    def fn(v: np.ndarray) -> np.ndarray:
        x, y = v
        return np.array([-y + 0.01 * x * x, x], dtype=complex)

    def jac(v: np.ndarray) -> np.ndarray:
        x, _ = v
        return np.array([[0.02 * x, -1.0], [1.0, 0.0]], dtype=complex)

    return DifferentiableMap(
        name="rotation_cubic",
        norm_tag=norm_tag,
        fn=fn,
        jac=jac,
        fixed_point=np.zeros(2, dtype=complex),
        bounds=lambda r: (np.array([0.01 * r**2, 0.0]), np.diag([0.02 * r, 0.0])),
    )


NAMED_MAPS = {
    "saddle_cubic": saddle_cubic_map,
    "rotation_cubic": rotation_cubic_map,
}
