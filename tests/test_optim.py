import math

import numpy as np
import pytest

from lindyn import (
    L1,
    L2,
    LINF,
    DenseOp,
    DenseVector,
    WindowedLinf,
    central_window_growth,
    linf_apply,
    linf_injectivity_margin,
)
from lindyn import expansivity as expansivity_module
from lindyn import linf as linf_module
from lindyn import optim
from lindyn.expansivity import _growth_objective
from lindyn.linalg import array_norm, max_row_norm, power_stack
from lindyn.linf import _margin_objective
from lindyn.optim import min_max_norm
from lindyn.sampling import random_margin_matrix, rng_from_seed

import scalar_descent


def two_sided_powers(M, N):
    """M^0 .. M^N, then M^-1 .. M^-N, as one (2 N + 1, d, d) stack."""
    eye = np.eye(len(M))
    backward = power_stack(np.linalg.inv(M), eye, N + 1)[1:]
    return np.concatenate([power_stack(M, eye, N + 1), backward])


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


def test_min_max_norm_polish_keeps_its_last_piece(monkeypatch):
    # Newton weights that turn negative make the polish drop pieces; on a
    # single-piece problem (N = 1) it must stop rather than drop the last one
    rng = np.random.default_rng(0)
    problems = []
    for k in range(60):
        tag = (L1, L2, LINF)[k % 3]
        A = rng.standard_normal((1, 6, 2)) + 1j * rng.standard_normal((1, 6, 2))
        e = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        problems.append((A, e, tag, min_max_norm(A, e, tag)))
    newton = optim._newton

    def negative(*args):
        out = newton(*args)
        return None if out is None else (out[0], out[1], out[2] - 2.0)

    monkeypatch.setattr(optim, "_newton", negative)
    for A, e, tag, full in problems:
        sol = min_max_norm(A, e, tag)
        assert sol.lower <= sol.value
        assert sol.lower <= full.value * (1.0 + 1e-12)


def _grid_min(A, e, tag, center, width, points=101):
    """The least objective over a square grid of complex w around center,
    for one unknown, and the grid point that attains it."""
    axis = np.linspace(-width, width, points)
    w = (center + axis[:, None] + 1j * axis[None, :]).ravel()
    r = np.abs(A[None, :, :, 0] * w[:, None, None] + e[None])
    norms = {L1: r.sum(axis=-1), L2: np.sqrt((r * r).sum(axis=-1)), LINF: r.max(axis=-1)}[tag]
    f = norms.max(axis=-1)
    k = int(np.argmin(f))
    return float(f[k]), w[k]


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_min_max_norm_with_one_unknown_matches_a_grid(tag):
    # the shape of a pinned growth solve on a 2x2 operator at N = 4
    rng = np.random.default_rng(21)
    for _ in range(4):
        A = rng.standard_normal((9, 2, 1)) + 1j * rng.standard_normal((9, 2, 1))
        e = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        sol = min_max_norm(A, e, tag)
        assert sol.value - sol.lower <= 1e-9 * sol.value
        # a grid over a box that holds the optimum (||A w|| <= 2 f(0)), then
        # finer ones around the best point so far; every grid value is feasible
        width = 2.0 * float(np.abs(e).sum() / np.linalg.norm(A))
        best, grid = 0.0, math.inf
        for _ in range(7):
            value, best = _grid_min(A, e, tag, best, width)
            grid = min(grid, value)
            width /= 5.0
        assert sol.lower <= sol.value <= grid * (1.0 + 1e-12)
        # the grid comes close enough to make lower <= grid a sharp test; a
        # square grid closes in on a kink in a slanted valley only slowly
        assert grid <= sol.value * (1.0 + 1e-5)


def test_min_max_norm_refuses_a_rank_deficient_problem():
    A = np.zeros((4, 2, 2), dtype=complex)
    A[:, 0, 0] = 1.0
    e = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError, match="full column rank"):
        min_max_norm(A, e, LINF)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_min_max_norm_survives_an_overflowing_polish(tag, capfd):
    # powers of [[1e40, 1], [0.3, 0.5]] up to +-4 reach 1e160, so Newton's
    # squared residuals overflow; the polish ends there, without an escaped
    # LinAlgError or RuntimeWarning and without handing LAPACK the
    # non-finite system (its DLASCL complaint), and the bracket still holds
    M = np.array([[1e40, 1.0], [0.3, 0.5]])
    stack = two_sided_powers(M, 4)
    e = stack[:, :, 1]
    sol = min_max_norm(stack[:, :, [0]], e, tag)
    assert 0.0 <= sol.lower <= sol.value <= max_row_norm(e, tag)
    assert math.isfinite(sol.value)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


def test_min_max_norm_zero_offsets_are_exact():
    A, _ = collinear(5, 2, np.ones(2))
    sol = min_max_norm(A, np.zeros((5, 2), dtype=complex), L2)
    assert (sol.value, sol.lower) == (0.0, 0.0)
    assert not sol.w.any()


# ---------------------------------------------------------------------------
# Line restrictions of the descent's objectives
# ---------------------------------------------------------------------------


def _margin_reference(w, flat):
    """The margin objective at a flat window, through linf_apply and the
    vector norms: the interior outputs and the two boundary outputs of the
    zero extension over the largest point."""
    xs = [DenseVector(row, w.base.norm_tag) for row in flat.reshape(w.window_length, w.dim)]
    sup = max(x.norm() for x in xs)
    if sup < 1e-14:
        return math.inf
    outputs = [*linf_apply(w, xs), xs[0], w.base.apply(xs[-1])]
    return max(v.norm() for v in outputs) / sup


def _growth_reference(op, N, v):
    x = DenseVector(v, op.norm_tag)
    if x.norm() < 1e-12:
        return math.inf
    return max(op.apply_power(n, x).norm() for n in range(-N, N + 1)) / x.norm()


def _line(objective, x, u):
    """t -> objective(x + t u) through the descent's block evaluator, as a
    block of one line."""
    lines = optim._Lines(objective, [u])
    lines.fit(lines.counts)
    p, rest = lines.at(x)
    phi = optim._Block(p, lines.q, rest, lines.counts[0], objective.tag, np.array([objective.floor]))

    def at(t):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return float(phi(np.array([t]))[0])

    return at


def _assert_line_matches(phi, reference, t):
    got, want = phi(t), reference
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert abs(got - want) <= 1e-12 * want, (t, got, want)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_margin_line_equals_the_objective_along_the_line(tag, dim):
    rng = np.random.default_rng(dim)
    op = DenseOp(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), tag)
    w = WindowedLinf(op, 3)
    L = w.window_length
    objective = _margin_objective(w)
    x = rng.standard_normal(L * dim) + 1j * rng.standard_normal(L * dim)

    def unit(row, k):
        e = np.zeros(L * dim, dtype=complex)
        e[row * dim + k] = 1.0
        return e

    # the first and last rows touch the boundary outputs
    for row in (0, 1, L // 2, L - 1):
        k = row % dim
        real, imag = unit(row, k), 1j * unit(row, k)
        diagonal = unit(row, k) + unit((row + 1) % L, (k + 1) % dim)
        # the direction that is the row itself, at t = -1, zeroes it
        whole_row = np.zeros(L * dim, dtype=complex)
        whole_row[row * dim : (row + 1) * dim] = x[row * dim : (row + 1) * dim]
        cases = [
            (real, [-2.5, -x[row * dim + k].real, 0.0, 0.3, 7.0]),
            (imag, [-1.1, -x[row * dim + k].imag, 0.0, 0.8]),
            (diagonal, [-0.7, 0.0, 0.4, 3.0]),
            (whole_row, [-1.0, -0.5, 2.0]),
        ]
        for u, ts in cases:
            phi = _line(objective, x, u)
            for t in ts:
                _assert_line_matches(phi, _margin_reference(w, x + t * u), t)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_growth_line_equals_the_objective_along_the_line(tag, dim):
    rng = np.random.default_rng(10 + dim)
    op = DenseOp(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), tag)
    N = 3
    matrix = op.dense_matrix()
    stack = two_sided_powers(matrix, N)
    objective = _growth_objective(stack, tag)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    eye = np.eye(dim)
    directions = [eye[0], 1j * eye[-1], eye[0] + 1j * eye[-1], eye[0] - eye[-1]]
    for u in directions:
        phi = _line(objective, x, u)
        for t in (-2.0, -0.3, 0.0, 0.6, 5.0):
            _assert_line_matches(phi, _growth_reference(op, N, x + t * u), t)
    # t = -1 along x itself zeroes the vector: both sides are infinite
    _assert_line_matches(_line(objective, x, x), _growth_reference(op, N, x - x), -1.0)


# ---------------------------------------------------------------------------
# The lockstep descent against the scalar one
# ---------------------------------------------------------------------------


def _scalar_descents(problems, directions, scale):
    return [[scalar_descent.descend(f, s, directions, scale) for s in seeds] for f, seeds in problems]


def _spy(monkeypatch, module):
    """Record every descend call of module with its results."""
    calls = []

    def spy(problems, directions, scale):
        found = optim.descend(problems, directions, scale)
        calls.append((problems, directions, scale, found))
        return found

    monkeypatch.setattr(module, "descend", spy)
    return calls


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for (x, value), (x_ref, value_ref) in zip(got, want):
        assert value.hex() == value_ref.hex()
        assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("tag", [L1, LINF])
@pytest.mark.parametrize("N", [4, 8])
def test_margin_descent_is_the_scalar_descent_bit_for_bit(tag, N, monkeypatch):
    calls = _spy(monkeypatch, linf_module)
    rng = rng_from_seed(40)
    for dim in (2, 3, 2):
        op = DenseOp(random_margin_matrix(dim, rng, margin=0.1), tag)
        linf_injectivity_margin(WindowedLinf(op, N))
    assert len(calls) == 3
    for problems, directions, scale, found in calls:
        for got, want in zip(found, _scalar_descents(problems, directions, scale)):
            _assert_same_points(got, want)


@pytest.mark.parametrize("seed, n_list", [(302, (1, 2, 4)), (306, (1, 2, 4)), (307, (2, 4))])
def test_growth_descent_is_the_scalar_descent_bit_for_bit(seed, n_list, monkeypatch):
    op = DenseOp(random_margin_matrix(2 + seed % 2, rng_from_seed(seed), margin=0.1), L1)
    calls = _spy(monkeypatch, expansivity_module)
    table = central_window_growth(op, n_list)
    # one call for every open bracket, each with its seeds in order
    (problems, directions, scale, found), = calls
    assert problems
    for got, want in zip(found, _scalar_descents(problems, directions, scale)):
        _assert_same_points(got, want)
    monkeypatch.setattr(expansivity_module, "descend", _scalar_descents)
    for N, want in central_window_growth(op, n_list).items():
        got = table[N]
        assert (got.value.hex(), got.lower.hex()) == (want.value.hex(), want.lower.hex())
        assert got.w.tobytes() == want.w.tobytes()


def test_descent_falls_back_to_its_seed_where_the_objective_ends_higher():
    # num is not linear, so a line through x predicts 1 + x^2 + 2 t, which
    # the descent drives down while the objective at its points rises; it
    # returns the seed and its value, as the scalar descent does
    objective = optim.NormRatio(
        lambda x: np.atleast_2d(1.0 + x * x), lambda x: np.atleast_2d(1.0 - x * x), L1, floor=1e-12
    )
    seed = np.zeros(1, dtype=complex)
    (found,), = optim.descend([(objective, [seed])], [np.ones(1)], scale=0.5)
    want = scalar_descent.descend(objective, seed, [np.ones(1)], scale=0.5)
    assert found[1] == 1.0 and not found[0].any()
    _assert_same_points([found], [want])


def test_window_growth_keeps_the_first_seed_with_the_least_value(monkeypatch):
    firsts = []

    def ties(problems, directions, scale):
        found = []
        for _, seeds in problems:
            # seeds 3 and 5 tie, below every other seed and the pinned value
            found.append([(s * (k + 1), 0.5 if k in (3, 5) else 0.75) for k, s in enumerate(seeds)])
            firsts.append(seeds[3] * 4)
        return found

    monkeypatch.setattr(expansivity_module, "descend", ties)
    op = DenseOp(random_margin_matrix(2, rng_from_seed(302), margin=0.1), L1)
    opened = [g for g in central_window_growth(op, (1, 2, 4)).values() if g.value == 0.5]
    assert len(opened) == len(firsts) == 2
    for g, x in zip(opened, firsts):
        assert g.w.tobytes() == (x / array_norm(x, L1)).tobytes()


# ---------------------------------------------------------------------------
# Descent values against pinned references
# ---------------------------------------------------------------------------

# The values the descent reached when every line search evaluated the whole
# objective at x + t u: the margin at N = 8 and the growth at N = 1, 2, 4 of
# random_margin_matrix(dim, rng_from_seed(dim), margin=0.2) in each norm,
# and the margin at N = 32 and the growth of a random saddle of the
# window_estimate benchmark (seed 1), at its scenario's rng_seed.
PINNED_DESCENTS = {
    (2, L1): (0.7312739568099601, 1.6921104323325171, 4.7457886608722335, 34.97891253240908),
    (2, L2): (0.7312739568099601, 2.053937594377334, 5.694875126196675, 39.223235071249896),
    (2, LINF): (0.73127395680996, 2.269744004993027, 5.943146281411207, 39.14370633629355),
    (3, L1): (0.4391438525553559, 1.0, 1.5819222693296036, 2.6076127993071436),
    (3, L2): (0.32913616036636917, 1.0, 1.5130092653469014, 23.69610589443857),
    (3, LINF): (0.5020810763878826, 1.703510256832155, 4.177067457137081, 20.602532231685046),
    (4, L1): (0.45316998444095496, 1.0, 1.1454990857913896, 6.732636608049694),
    (4, L2): (0.3899162454087595, 1.0, 1.3519340549643297, 6.025823823427709),
    (4, LINF): (0.40657601812670235, 1.0, 1.3660715536690125, 5.663731483205383),
}
BENCH_SADDLE = [
    [0.6039755899834242, -2.298552196196419],
    [0.09050763047589346, -2.083811496519879],
]
BENCH_SADDLE_PINNED = (0.491392682806, 1.0, 2.088907991763503, 7.699086770372951)
# the descent stalls at kinks of a max of norms, and a line search that
# rounds differently stalls a few 1e-9 away
DESCENT_SLACK = 1e-8


def _descent_values(op, N, rng_seed=0):
    growth = central_window_growth(op, (1, 2, 4), rng_seed=rng_seed)
    margin = linf_injectivity_margin(WindowedLinf(op, N), rng_seed=rng_seed)
    return (margin, *(g.value for g in growth.values()))


@pytest.mark.parametrize("dim, tag", sorted(PINNED_DESCENTS))
def test_descent_is_not_above_its_pinned_values(dim, tag):
    op = DenseOp(random_margin_matrix(dim, rng_from_seed(dim), margin=0.2), tag)
    for got, pinned in zip(_descent_values(op, 8), PINNED_DESCENTS[dim, tag]):
        assert got <= pinned * (1.0 + DESCENT_SLACK)


def test_descent_on_the_benchmark_saddle_is_not_above_its_pinned_values():
    got = _descent_values(DenseOp(BENCH_SADDLE, LINF), 32, rng_seed=1208825652)
    for value, pinned in zip(got, BENCH_SADDLE_PINNED):
        assert value <= pinned * (1.0 + DESCENT_SLACK)


@pytest.mark.parametrize("tag", [L1, L2, LINF])
def test_stacked_images_are_the_per_direction_images(tag):
    # a descent takes a chunk of its directions' images in one call: the
    # margin's stacked gemm and the growth's stacked gemv must give every
    # direction the bits of its own image
    for dim in (2, 3, 4):
        rng = rng_from_seed(dim)
        op = DenseOp(random_margin_matrix(dim, rng, margin=0.2), tag)
        cases = [(_margin_objective(WindowedLinf(op, N)), (2 * N + 1) * dim) for N in (8, 16, 32)]
        cases.append((_growth_objective(two_sided_powers(op.dense_matrix(), 4), tag), dim))
        for objective, n in cases:
            eye = np.eye(n)
            units = [*eye[:20], *(1j * eye[-10:])]
            units += list(rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n)))
            stack = np.stack(units)
            for image in (objective.num, objective.den):
                assert image(stack).tobytes() == np.stack([image(u) for u in units]).tobytes()
