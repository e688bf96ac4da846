"""Matrix families and the exact linf shadowing constant, shared by the tests.

This module holds no tests. jordan_family draws Jordan blocks beside an
unstable eigenvalue, random_saddle draws real 2x2 saddles in a random
basis as the window_estimate benchmark does, and exact_linf_constant sums
the Green's function of a split. reference_walk, reference_max_defect and
reference_series redo a dense orbit's walk, defects and splitting series
one step at a time, the references for the batched rows arithmetic of
lindyn.shadowing. random_monomial draws weighted shifts whose weight tails
decide their radii and homoclinic points, and late_tails builds one whose
tails lie past any 64-step horizon.
"""

import math

import numpy as np

from lindyn import CompositionOp, DiagonalOp, ShiftOp
from lindyn.linalg import array_norm
from lindyn.operators import InverseWeights, SignWeights, TableWeights
from lindyn.sampling import rng_from_seed, unit_dense_rows

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.0 / 1.324717957244746


def jordan_family(basis, count, seed, gap=0.0):
    """J(r, c) + (u) with r in +-[0.2, 0.8], c in {0.5, 1, 2, 5} and u in
    +-[1.3, 3], written in coordinates, in a permuted basis or in a random
    orthogonal one; yields the matrix and its exact stable projection. A
    nonzero gap moves the block's second eigenvalue to r + gap, a
    near-defective pair."""
    rng = rng_from_seed(seed)
    for _ in range(count):
        r = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
        c = rng.choice([0.5, 1.0, 2.0, 5.0])
        u = rng.uniform(1.3, 3.0) * rng.choice([-1.0, 1.0])
        J = np.array([[r, c, 0.0], [0.0, r + gap, 0.0], [0.0, 0.0, u]])
        if basis == "coordinates":
            Q = np.eye(3)
        elif basis == "permuted":
            Q = np.eye(3)[rng.permutation(3)]
        else:
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        yield Q @ J @ Q.T, Q @ np.diag([1.0, 1.0, 0.0]) @ Q.T


def exact_linf_constant(M, P_S):
    """max_i sum_k sum_j |G_k[i, j]| for the Green's function G_k = M^k P_S
    (k >= 0) and -M^-k P_U (k >= 1), the exact linf shadowing constant,
    with re-projected powers summed until they vanish in double precision."""
    P_U = np.eye(len(M)) - P_S
    acc = np.zeros_like(M)
    for P, step in ((P_S, P_S @ M), (P_U, P_U @ np.linalg.inv(M))):
        X = P if P is P_S else step @ P
        while np.abs(X).max() > 1e-20:
            acc += np.abs(X)
            X = step @ X
    return float(acc.sum(axis=1).max())


def kronecker(offset, k, alpha):
    return (offset + k * alpha) % 1.0


def random_saddle(offsets, k, rng):
    """The k-th random saddle of the window_estimate benchmark: eigenvalue
    moduli in [0.3, 0.8] and [1.25, 3] with random signs, eigenvectors 30
    to 90 degrees apart at a random orientation; offsets are its four
    Kronecker offsets."""
    stable = (0.3 + 0.5 * kronecker(offsets[0], k, GOLDEN)) * rng.choice((-1.0, 1.0))
    unstable = (1.25 + 1.75 * kronecker(offsets[1], k, PLASTIC)) * rng.choice((-1.0, 1.0))
    gap = math.pi / 6 + (math.pi / 3) * kronecker(offsets[3], k, PLASTIC**2)
    angle = rng.uniform(0.0, math.pi)
    basis = np.array(
        [
            [math.cos(angle), math.cos(angle + gap)],
            [math.sin(angle), math.sin(angle + gap)],
        ]
    )
    return basis @ np.diag([stable, unstable]) @ np.linalg.inv(basis)


def saddle_draw(s):
    """Draw s of the saddle set: random_saddle with k = s, its offsets and
    its own draws from np.random.default_rng(100 + s)."""
    rng = np.random.default_rng(100 + s)
    return random_saddle(rng.uniform(0.0, 1.0, size=4), s, rng)


def reference_walk(op, seed, steps, delta, rng_seed):
    """The rows of generate_pseudo_orbit's walk on a dense operator, one
    step at a time: the same draws (every direction first, then one
    magnitude a step), one M @ x a step, and a kick whose sum lands more
    than delta from its image dropped."""
    M, tag = op.dense_matrix(), op.norm_tag
    rng = rng_from_seed(rng_seed)
    dirs = unit_dense_rows(len(M), tag, steps, rng)
    points = [np.asarray(seed.coords, dtype=complex)]
    for i in range(steps):
        img = M @ points[-1]
        x = img + dirs[i] * complex(delta * rng.uniform(0.0, 1.0))
        points.append(img if array_norm(x - img, tag) > delta else x)
    return np.array(points)


def reference_max_defect(op, points):
    """The largest one-step defect of the rows points, one M @ x a point."""
    M, tag = op.dense_matrix(), op.norm_tag
    return max((array_norm(M @ x - y, tag) for x, y in zip(points, points[1:])), default=0.0)


def reference_series(op, split, points):
    """The splitting-series orbit through the rows points by the step
    recursion: the defects z_n = M x_n - x_{n+1}, f_{n+1} = P_S(M f_n +
    P_S z_n) forward from 0, b_n = P_U(M^-1(b_{n+1} + P_U z_n)) backward
    from 0, and the points x_n + f_n - b_n."""
    M, M_inv = op.dense_matrix(), op.inverse().dense_matrix()
    P_S, P_U = split.P_S, split.P_U
    zs = [M @ x - y for x, y in zip(points, points[1:])]
    f = b = np.zeros(len(M), dtype=complex)
    fwd, bwd = [f], [b]
    for z in zs:
        f = P_S @ (M @ f + P_S @ z)
        fwd.append(f)
    for z in reversed(zs):
        b = P_U @ (M_inv @ (b + P_U @ z))
        bwd.append(b)
    return points + (np.array(fwd) - np.array(bwd[::-1]))


# weight moduli of random_monomial: 1 among them, so that some tails sit on
# the unit circle, and the others well off it
MONOMIAL_MODULI = (0.5, 0.8, 1.0, 1.25, 2.0)


def late_tails(tag):
    """R o W with weights 0.5 on -80..0 and 2 on 1..80 over a default of 1.5:
    e_0's walks decay as 2^-n for 81 steps each way, and ||L^n|| = 2^n up to
    n = 80, but both tails have modulus 1.5, so r(L) = 1.5 and no nonzero
    finitely supported point is homoclinic."""
    table = {k: 0.5 if k <= 0 else 2.0 for k in range(-80, 81)}
    return CompositionOp([ShiftOp(1, tag), DiagonalOp(TableWeights.from_mapping(table, 1.5), tag)])


def _random_weight(rng, moduli=MONOMIAL_MODULI):
    """A weight of modulus drawn from moduli, with a random phase."""
    return complex(rng.choice(moduli) * np.exp(2j * np.pi * rng.choice([0.0, 0.5, rng.uniform()])))


def _maybe_inverted(rule, rng):
    return InverseWeights(rule) if rng.uniform() < 1.0 / 3.0 else rule


def random_monomial(rng, tag):
    """A seeded weighted shift: a shift by +-1 or +-2 after a diagonal of
    SignWeights, half the time a diagonal of TableWeights whose stretches
    reach more than 64 steps from index 0, and half the time a finite bump,
    a diagonal that multiplies indices -5..0 by 3, 10 or 100. Each of the
    first two rules is inverted (InverseWeights) a third of the time. Half
    the SignWeights contract on the side the shift walks to and expand on
    the other, as a generalized hyperbolic shift does."""
    offset = int(rng.choice([-2, -1, 1, 2]))
    if rng.uniform() < 0.5:
        # ShiftOp(offset) walks toward -inf when offset > 0
        walk_end, other = _random_weight(rng, (0.5, 0.8)), _random_weight(rng, (1.25, 2.0))
        sign = SignWeights(walk_end, other) if offset > 0 else SignWeights(other, walk_end)
    else:
        sign = SignWeights(neg_and_zero=_random_weight(rng), pos=_random_weight(rng))
    factors = [ShiftOp(offset, tag), DiagonalOp(_maybe_inverted(sign, rng), tag)]
    if rng.uniform() < 0.5:
        left, right = (int(rng.integers(65, 100)) for _ in range(2))
        a, b = _random_weight(rng), _random_weight(rng)
        table = {k: a if k <= 0 else b for k in range(-left, right + 1)}
        rule = TableWeights.from_mapping(table, _random_weight(rng))
        factors.append(DiagonalOp(_maybe_inverted(rule, rng), tag))
    if rng.uniform() < 0.5:
        bump = float(rng.choice([3.0, 10.0, 100.0]))
        factors.append(DiagonalOp(TableWeights.from_mapping({k: bump for k in range(-5, 1)}, 1.0), tag))
    return CompositionOp(factors)
