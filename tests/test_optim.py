import numpy as np
import pytest

from lindyn import L1, L2, LINF
from lindyn import optim
from lindyn.optim import min_max_norm


def collinear(n, d, u):
    # A_n = I and e_n = -k u for k = 0 .. n-1: the midpoint w = (n - 1) / 2 u
    # is at distance (n - 1) / 2 * ||u|| from both ends, and no w does
    # better, since the ends are (n - 1) ||u|| apart
    A = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
    e = -np.outer(np.arange(n), u).astype(complex)
    return A, e


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_min_max_norm_finds_the_midpoint_with_a_closed_bracket(tag):
    u = np.array([0.6, 0.8j])
    A, e = collinear(11, 2, u)
    opt = 5.0 * {L1: 1.4, L2: 1.0, LINF: 0.8}[tag]
    sol = min_max_norm(A, e, tag)
    assert sol.lower <= opt * (1.0 + 1e-12)
    assert sol.value >= opt * (1.0 - 1e-12)
    assert sol.value - sol.lower <= 1e-9 * sol.value
    if tag == L2:
        # the enclosing ball is unique; l1 and linf have other optimal w
        assert np.allclose(sol.w, 5.0 * u)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_min_max_norm_capped_early_still_brackets(tag, monkeypatch):
    # a capped solve returns the bracket it reached, never a bound it has
    # not certified
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    e = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    full = min_max_norm(A, e, tag)
    assert full.value - full.lower <= 1e-9 * full.value
    for rounds, pivots in ((1, 1000), (30, 3), (2, 5)):
        monkeypatch.setattr(optim, "MIN_MAX_ROUNDS", rounds)
        monkeypatch.setattr(optim, "MIN_MAX_PIVOTS", pivots)
        capped = min_max_norm(A, e, tag)
        assert capped.lower <= full.value * (1.0 + 1e-12)
        assert capped.value >= full.lower * (1.0 - 1e-12)
        assert capped.lower <= capped.value


def test_min_max_norm_refuses_a_rank_deficient_problem():
    A = np.zeros((4, 2, 2), dtype=complex)
    A[:, 0, 0] = 1.0
    e = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError, match="full column rank"):
        min_max_norm(A, e, LINF)


def test_min_max_norm_zero_offsets_are_exact():
    A, _ = collinear(5, 2, np.ones(2))
    sol = min_max_norm(A, np.zeros((5, 2), dtype=complex), L2)
    assert (sol.value, sol.lower) == (0.0, 0.0)
    assert not sol.w.any()
