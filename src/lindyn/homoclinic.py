"""Homoclinic points of the origin and the core structure that separates
generalized hyperbolicity from plain hyperbolicity.

A point is homoclinic when both half orbits decay to zero. On a sequence
operator with shift s != 0, every basis vector walks forward into one weight
tail and backward into the other, so the verdict on every nonzero finitely
supported point is exact from two limit moduli: the point is homoclinic
exactly when the tail L's walk runs into and the tail L^-1's walk runs into
both have modulus below 1 (is_homoclinic). A tail of modulus 1 leaves the
decay to weights no limit decides, and is refused with NotCertified. At
shift 0, and on a dense operator, only 0 is homoclinic. For coordinate
splits, membership in the core can be decided exactly from supports: push
the point backward until it lives in the unstable side, forward until it
lives in the stable side. A nontrivial homoclinic point rules out
hyperbolicity, which is the one-sided half of the dichotomy this module
automates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatch, NotAChain, NotCertified, NotHomoclinic, NotInvertible
from .linalg import DenseVector, SparseBiSeq, check_scalar
from .operators import LinOp
from .shadowing import PseudoOrbit, _stack, _stored, max_defect
from .splitting import UNDETERMINED_BAND, CoordinateSplit


def _walk_tails(op: LinOp) -> Optional[tuple[float, float]]:
    """The limit moduli of the tails that L's and L^-1's walks run into
    (MonomialForm.walk_limit_abs), or None where no walk moves: at shift 0
    and on a dense operator."""
    mono = op.monomial
    if mono is None or mono.shift == 0:
        return None
    return mono.walk_limit_abs, op.inverse().monomial.walk_limit_abs


def _tails_text(tails: Optional[tuple[float, float]]) -> str:
    if tails is None:
        return "no walk moves (shift 0 or a dense operator)"
    return f"L's walk tail has modulus {tails[0]:.6g}, L^-1's {tails[1]:.6g}"


def is_homoclinic(op: LinOp, x) -> bool:
    """Whether both half orbits of x decay to zero, exactly, from the weight
    tails (see the module docstring); on a dense operator or at shift 0,
    whether x is 0.

    A tail within UNDETERMINED_BAND of modulus 1, with no tail above it,
    raises NotCertified. An operator that is not invertible has no backward
    orbit and raises NotInvertible.
    """
    vector = SparseBiSeq if op.vector_kind == "seq" else DenseVector
    if not isinstance(x, vector) or x.norm_tag != op.norm_tag:
        raise KindMismatch("the point disagrees with the operator in kind or norm tag")
    if not op.invertible():
        raise NotInvertible("a homoclinic point needs the backward orbit of an invertible operator")
    tails = _walk_tails(op)
    if tails is None or x.norm() == 0.0:
        return x.norm() == 0.0
    if max(tails) > 1.0 + UNDETERMINED_BAND:
        return False
    if max(tails) >= 1.0 - UNDETERMINED_BAND:
        raise NotCertified(f"a weight tail of modulus 1 leaves the decay undecided: {_tails_text(tails)}")
    return True


def homoclinic_core_member(
    op: LinOp, split: CoordinateSplit, x: SparseBiSeq, n: int, m: int
) -> bool:
    """Exact support test: L^-n x inside the unstable side and L^m x inside
    the stable side. Sparse arithmetic makes this decidable, not numeric."""
    if not isinstance(split, CoordinateSplit):
        raise ValueError("core membership is defined against a coordinate splitting")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    back = op.inverse().apply_power(n, x)
    if any(k <= split.cutoff for k in back.support()):
        return False
    fwd = op.apply_power(m, x)
    if any(k > split.cutoff for k in fwd.support()):
        return False
    return True


@dataclass(frozen=True)
class CoreApproximation:
    """Split x along the orbit at distance n.

    unstable_approx = L^n P_U L^-n x converges to x exactly when the
    backward orbit eventually lives in the unstable side; stable_remainder
    is its distance from x. The mirrored forward quantities do the same
    through the stable side.
    """

    n: int
    unstable_approx: SparseBiSeq
    stable_remainder: float
    stable_approx: SparseBiSeq
    unstable_remainder: float


def homoclinic_core_approximate(
    op: LinOp, split: CoordinateSplit, x: SparseBiSeq, n: int
) -> CoreApproximation:
    """The core split of a homoclinic x at distance n; a point that is not
    homoclinic raises NotHomoclinic (and an undecided one NotCertified, see
    is_homoclinic)."""
    if not isinstance(split, CoordinateSplit):
        raise ValueError("core approximants are defined against a coordinate splitting")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_homoclinic(op, x):
        raise NotHomoclinic(f"the point is not homoclinic: {_tails_text(_walk_tails(op))}")
    inv = op.inverse()
    back = inv.apply_power(n, x)
    s_n = op.apply_power(n, split.apply_P_S(back))
    u_approx = x - s_n
    fwd = op.apply_power(n, x)
    t_n = inv.apply_power(n, split.apply_P_U(fwd))
    s_approx = x - t_n
    return CoreApproximation(
        n=n,
        unstable_approx=u_approx,
        stable_remainder=s_n.norm(),
        stable_approx=s_approx,
        unstable_remainder=t_n.norm(),
    )


@dataclass(frozen=True)
class DichotomyReport:
    verdict: str
    witness: SparseBiSeq


def homoclinic_dichotomy(op: LinOp, split: CoordinateSplit) -> DichotomyReport:
    """A nontrivial homoclinic point, decided from the weight tails.

    Every nonzero finitely supported point gets the verdict of e_0
    (is_homoclinic), so e_0 is the witness when there is one, and it settles
    that the operator cannot be hyperbolic. Otherwise NotCertified names both
    tail moduli: no finitely supported point is homoclinic, and that decides
    nothing about hyperbolicity.
    """
    if not isinstance(split, CoordinateSplit):
        raise ValueError("the dichotomy is defined against a coordinate splitting")
    x = SparseBiSeq.basis(0, op.norm_tag)
    if is_homoclinic(op, x):
        return DichotomyReport(verdict="NontrivialHomoclinic", witness=x)
    raise NotCertified(
        f"no nonzero finitely supported point is homoclinic ({_tails_text(_walk_tails(op))}); "
        "absence here decides nothing"
    )


def chain_scale(po: PseudoOrbit, lam: complex) -> PseudoOrbit:
    """Scale a chain by a scalar; defects scale with |lam| by linearity."""
    points = _stored(po.points * check_scalar(lam))
    return PseudoOrbit(po.n0, points, abs(lam) * po.delta, po.norm_tag)


def chain_combine(op: LinOp, chains: Sequence[Sequence], delta: float) -> PseudoOrbit:
    """Concatenate half-delta chains through the fixed point at zero, one
    zero point between consecutive chains.

    Every input chain is verified at delta / 2 first (NotAChain names the
    offender), then the splice is re-verified at delta: junction defects
    are the norms of L(last) and of the next chain's first point, so chains
    need small endpoints to be combinable.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    parts = [_stack(op, c) for c in chains]
    if not parts:
        raise ValueError("chains must be nonempty")
    for i, points in enumerate(parts):
        worst = max_defect(op, PseudoOrbit(0, points, delta / 2.0, op.norm_tag))
        if worst > (delta / 2.0) * (1.0 + 1e-12):
            raise NotAChain(
                f"chain {i} has defect {worst:.6g}, over delta/2 = {delta / 2.0:.6g}",
                index=i,
            )
    zero = parts[0][:1] * 0.0
    pieces = [x for points in parts for x in (zero, points)][1:]
    combined = PseudoOrbit(0, _stored(np.concatenate(pieces)), delta, op.norm_tag)
    worst = max_defect(op, combined)
    if worst > delta * (1.0 + 1e-12):
        raise NotAChain(
            f"combined chain has junction defect {worst:.6g}, over delta = {delta:.6g}",
            index=-1,
        )
    return combined
