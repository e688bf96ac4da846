"""Cross-routine consistency of the dense certificates.

On every draw the classifier and the two-sided bounds must tell one story:
classify says Hyperbolic exactly when shad_bounds certifies, the certified
lower bound never exceeds the upper one, and under linf the upper bound is
at least the exact shadowing constant (exact_linf_constant), which in turn
is at least the windowed lower estimate. Where the eigenvector basis is
well conditioned, the sign-function projection agrees with the eigenvector
one. The families are Jordan blocks, near-defective pairs, and random
matrices with a margin off the unit circle.
"""

import numpy as np
import pytest

from lindyn import (
    L1,
    L2,
    LINF,
    DenseOp,
    WindowedLinf,
    classify,
    shad_bounds,
    shad_estimate_linf,
    spectral_split,
)
from lindyn.errors import LindynError
from lindyn.sampling import random_margin_matrix, rng_from_seed
from lindyn.splitting import HYPERBOLIC

from families import exact_linf_constant, jordan_family

BASES = ("coordinates", "permuted", "orthogonal")


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
        exact = exact_linf_constant(M, P_S)
        # the two sums round in different orders
        assert bounds.upper >= exact * (1.0 - 1e-12)
        # the extremal-defect window solve is the estimate's only sample
        estimate = shad_estimate_linf(WindowedLinf(op, 16))
        assert estimate <= exact * (1.0 + 1e-9)
    lam, V = np.linalg.eig(M)
    if np.linalg.cond(V) < 1e3:
        P_eig = V @ np.diag((np.abs(lam) < 1.0).astype(float)) @ np.linalg.inv(V)
        assert np.abs(split.P_S - P_eig).max() <= 1e-12 * max(1.0, np.abs(P_eig).max())


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("basis", BASES)
def test_jordan_and_near_defective_families_are_consistent(basis, tag):
    for M, P_S in jordan_family(basis, 100, 41):
        check_consistent(M, tag, P_S)
    for M, P_S in jordan_family(basis, 30, 47, gap=1e-9):
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


# shad_estimate_linf at N = 16 with 6 samples before the extremal defect
# joined them: each mixed sample was walked forward from 0
WALKED_ESTIMATES = {
    L1: [
        3.045093256062052, 2.154052963786298, 18.053756411369186,
        1.8334077314605184, 3.4890101037357706, 4.099871345901346,
        1.5050672476572726, 4.780295426876639, 24.744983739199018,
        1.7263837822865278, 2.2851891106366837, 5.544785795331044,
        1.637943527975509, 4.376778266377477, 6.789799001229089,
        3.5203306489992614, 2.686338968442331, 4.738343373253515,
        7.1386726619999665, 1.8138461830700003, 18.573522738398253,
        3.9265309830704953, 7.499562179152736, 1.415443441973272,
        4.472200030178307, 16.513547571941356, 3.000438608212518,
        3.730927256077836, 1.2838271491924165, 5.842694700941867,
    ],
    L2: [
        2.7078350562858065, 1.8161259463164912, 9.445860778312603,
        1.8165347019779585, 3.7276645567229876, 2.0633030246963187,
        1.4103858647381424, 2.8906140885929754, 15.232675496392478,
        1.5968547840877803, 1.7275908186173967, 4.710382061052919,
        1.6031320087890077, 3.210177747603753, 4.371767791391648,
        3.5203411829928366, 2.758497605646016, 4.514330092532712,
        6.339199123276929, 1.1130773587215423, 10.726854750083914,
        3.1472727688309963, 5.656794422030819, 1.4652693791584461,
        4.601060496309079, 9.692475379918937, 2.806027043536014,
        2.8837978354092635, 1.2267094315605889, 4.0696106042498235,
    ],
}


@pytest.mark.parametrize("tag", [L1, L2])
def test_bounded_samples_never_lose_to_the_walked_ones(tag):
    # a bounded sample and its walk differ by an exact orbit, so they pose
    # one window problem; the extremal defect only adds a sample
    for seed, walked in enumerate(WALKED_ESTIMATES[tag]):
        M = random_margin_matrix(2 + seed % 3, rng_from_seed(700 + seed), margin=0.05)
        estimate = shad_estimate_linf(WindowedLinf(DenseOp(M, tag), 16))
        assert estimate >= walked * (1.0 - 1e-6)
