"""Cross-routine consistency of the dense certificates.

On every draw the classifier and the two-sided bounds must tell one story:
classify says Hyperbolic exactly when shad_bounds certifies, the certified
lower bound never exceeds the upper one, and under linf the upper bound is
at least the exact shadowing constant (exact_linf_constant). Where the
eigenvector basis is well conditioned, the sign-function projection agrees
with the eigenvector one. The families are Jordan blocks, near-defective
pairs, and random matrices with a margin off the unit circle.
"""

import numpy as np
import pytest

from lindyn import L1, L2, LINF, DenseOp, classify, shad_bounds, spectral_split
from lindyn.errors import LindynError
from lindyn.sampling import random_margin_matrix, rng_from_seed
from lindyn.splitting import HYPERBOLIC
from test_restricted_powers import exact_linf_constant, jordan_family

BASES = ("coordinates", "permuted", "orthogonal")


def near_defective_family(basis, count, seed):
    """[[r, c], [0, r + 1e-9]] beside an unstable u, as jordan_family draws
    r, c and u, written in the same three bases; yields the matrix and its
    exact stable projection."""
    rng = rng_from_seed(seed)
    for _ in range(count):
        r = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
        c = rng.choice([0.5, 1.0, 2.0, 5.0])
        u = rng.uniform(1.3, 3.0) * rng.choice([-1.0, 1.0])
        J = np.array([[r, c, 0.0], [0.0, r + 1e-9, 0.0], [0.0, 0.0, u]])
        if basis == "coordinates":
            Q = np.eye(3)
        elif basis == "permuted":
            Q = np.eye(3)[rng.permutation(3)]
        else:
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        yield Q @ J @ Q.T, Q @ np.diag([1.0, 1.0, 0.0]) @ Q.T


def check_consistent(M, tag, P_exact=None):
    op = DenseOp(M, tag)
    split = spectral_split(op)
    try:
        klass = classify(op, split).klass
    except LindynError:
        klass = None
    try:
        bounds = shad_bounds(op, split)
    except LindynError:
        bounds = None
    assert (klass == HYPERBOLIC) == (bounds is not None)
    if bounds is None:
        return
    assert bounds.lower <= bounds.upper
    if tag == LINF:
        P_S = split.P_S if P_exact is None else P_exact
        # the two sums round in different orders
        assert bounds.upper >= exact_linf_constant(M, P_S) * (1.0 - 1e-12)
    lam, V = np.linalg.eig(M)
    if np.linalg.cond(V) < 1e3:
        P_eig = V @ np.diag((np.abs(lam) < 1.0).astype(float)) @ np.linalg.inv(V)
        assert np.abs(split.P_S - P_eig).max() <= 1e-12 * max(1.0, np.abs(P_eig).max())


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("basis", BASES)
def test_jordan_and_near_defective_families_are_consistent(basis, tag):
    for M, P_S in jordan_family(basis, 100, 41):
        check_consistent(M, tag, P_S)
    for M, P_S in near_defective_family(basis, 30, 47):
        check_consistent(M, tag, P_S)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("margin", [0.2, 1e-2, 1e-4])
def test_random_margin_matrices_are_consistent(margin, tag):
    for seed in range(28):
        rng = rng_from_seed(9000 + seed)
        check_consistent(random_margin_matrix(2 + seed % 7, rng, margin=margin), tag)


@pytest.mark.parametrize(
    "matrix, least",
    [
        # the sum is 1 + 5; closed at the spectral radius 1e-13 it read 1
        ([[1e-13, 5.0], [0.0, 1e-13]], 6.0),
        # the sum is 1 + 1e-4 + ...; closed at the radius it read 1 + 1e-13,
        # under the resolvent lower bound
        ([[1e-13, 1e-4], [0.0, 0.0]], 1.0001),
    ],
)
def test_non_normal_series_close_above_their_sum(matrix, least):
    for tag in (L1, L2, LINF):
        op = DenseOp(matrix, tag)
        bounds = shad_bounds(op, spectral_split(op))
        assert bounds.upper >= least
        assert bounds.lower <= bounds.upper
