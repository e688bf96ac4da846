"""Homoclinic points of the origin and the core structure that separates
generalized hyperbolicity from plain hyperbolicity.

A point is homoclinic when both half orbits decay to zero. For weighted
shift families split along a coordinate cutoff, membership in the core can
be decided exactly from supports: push the point backward until it lives in
the unstable side, forward until it lives in the stable side. A verified
nontrivial homoclinic point rules out hyperbolicity, which is the cheap
one-sided half of the dichotomy this module automates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotAChain, NotCertified, NotHomoclinic
from .linalg import SparseBiSeq, check_scalar
from .operators import LinOp
from .shadowing import PseudoOrbit, _stack, _stored, max_defect
from .splitting import CoordinateSplit

# A half orbit decays when its last norm is below HOMOCLINIC_TOL relative to
# the point; the dichotomy search walks DICHOTOMY_HORIZON steps each way.
HOMOCLINIC_TOL = 1e-9
DICHOTOMY_HORIZON = 64


@dataclass(frozen=True)
class HomoclinicEvidence:
    vector: object
    horizon: int
    forward_decay: tuple[float, ...]
    backward_decay: tuple[float, ...]
    verdict: bool


def _envelope_decays(values: Sequence[float]) -> bool:
    tail = list(values)[-max(2, len(values) // 4):]
    return all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(tail, tail[1:]))


def is_homoclinic(op: LinOp, x, horizon: int = 40) -> HomoclinicEvidence:
    """Decay evidence for both half orbits of x.

    The verdict requires the final norms to sit below HOMOCLINIC_TOL
    (relative to x) and the decay envelopes to be monotone over the last
    quarter, so a transient dip cannot masquerade as convergence.
    """
    if horizon < 4:
        raise ValueError("horizon must be at least 4")
    inv = op.inverse()
    fwd = [x.norm()]
    bwd = [x.norm()]
    cur_f, cur_b = x, x
    for _ in range(horizon):
        cur_f = op.apply(cur_f)
        cur_b = inv.apply(cur_b)
        fwd.append(cur_f.norm())
        bwd.append(cur_b.norm())
    scale = max(1.0, x.norm())
    verdict = (
        fwd[-1] <= HOMOCLINIC_TOL * scale
        and bwd[-1] <= HOMOCLINIC_TOL * scale
        and _envelope_decays(fwd)
        and _envelope_decays(bwd)
    )
    return HomoclinicEvidence(
        vector=x,
        horizon=horizon,
        forward_decay=tuple(fwd),
        backward_decay=tuple(bwd),
        verdict=verdict,
    )


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
    op: LinOp, split: CoordinateSplit, x: SparseBiSeq, n: int, horizon: int = 40
) -> CoreApproximation:
    if not isinstance(split, CoordinateSplit):
        raise ValueError("core approximants are defined against a coordinate splitting")
    if n < 0:
        raise ValueError("n must be nonnegative")
    evidence = is_homoclinic(op, x, horizon=horizon)
    if not evidence.verdict:
        raise NotHomoclinic("the point is not homoclinic at this horizon/tolerance")
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
    witness: Optional[SparseBiSeq]
    evidence: Optional[HomoclinicEvidence]
    checked: int


def homoclinic_dichotomy(
    op: LinOp, split: CoordinateSplit, index_range: int = 64
) -> DichotomyReport:
    """Search basis vectors for a verified nontrivial homoclinic point.

    Finding one settles the question: the operator cannot be hyperbolic.
    Finding none proves nothing about the full space, so that outcome is an
    explicit refusal rather than a verdict.
    """
    checked = 0
    for k in range(0, index_range + 1):
        for idx in ((k,) if k == 0 else (k, -k)):
            x = SparseBiSeq.basis(idx, op.norm_tag)
            checked += 1
            ev = is_homoclinic(op, x, horizon=DICHOTOMY_HORIZON)
            if ev.verdict:
                return DichotomyReport(
                    verdict="NontrivialHomoclinic",
                    witness=x,
                    evidence=ev,
                    checked=checked,
                )
    raise NotCertified(
        f"no homoclinic basis witness among {checked} candidates; "
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
