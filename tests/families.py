"""Matrix families and the exact linf shadowing constant, shared by the tests.

This module holds no tests. jordan_family draws Jordan blocks beside an
unstable eigenvalue, random_saddle draws real 2x2 saddles in a random
basis as the window_estimate benchmark does, and exact_linf_constant sums
the Green's function of a split.
"""

import math

import numpy as np

from lindyn.sampling import rng_from_seed

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
