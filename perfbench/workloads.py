"""The four benchmark workloads.

Each workload is a closed loop with one client: an item is one certified
result, and the next item starts only after the previous one returns. A
run plays a workload's item stream in rounds of `items` consecutive items
(see run.py); every round holds the same families at the same places, and
a workload without `redraw` replays the same items in every round. Item
inputs come from the run seed and the item index alone, so the same seed
gives the same inputs. lindyn receives only
these generated inputs; every call into it goes through the attributes of
its modules, so the tracer's wrappers see them.

Families within a workload follow a fixed cycle, and continuous parameters
(rotation angles, shift weights) follow evenly spread sequences whose offset
is drawn from the seed. Every round therefore covers the same mix of
families and parameter ranges, and the seed changes only where inside them
each item falls. This keeps the seed-to-seed spread of the end-to-end
metrics small without narrowing what is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# second generator of the two-dimensional Kronecker sequence (plastic number)
PLASTIC = 1.0 / 1.324717957244746

# SeedSequence stream tags: the timed items, the warm-up item, the plan
TIMED, WARMUP, PLAN = 0, 1, 2

OK, REFUSED, ERROR, WINDOW_SOLVE, UNSOUND = "ok", "refused", "error", "window_solve", "unsound"
# statuses counted as failed operations in the result line
FAILED = frozenset({REFUSED, ERROR, UNSOUND})


@dataclass(frozen=True)
class Verdict:
    """Outcome of one item's output check. Every status but ok lowers
    ok_ratio; refused, error and unsound also count as failed operations.

    refused: lindyn raised one of its own errors, an explicit refusal.
    error: any other exception escaped from lindyn.
    window_solve: a check failed that traces to shadow_window_solve missing
    its optimum, the open defect of ROADMAP item 3: the window orbit loses
    to the splitting series, the window solve rejects its own orbit, or a
    window-based lower estimate exceeds the certified upper bound. The
    item's certified result (series orbit, certified bounds) is still
    returned and checked, so the operation counts as done and the run stays
    correct; the defect shows in ok_ratio.
    unsound: any other certified claim is false; the run is incorrect.
    """

    status: str
    tightness: Optional[float] = None
    detail: str = ""


def item_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, i]))


def kronecker(offset: float, k: int, alpha: float = GOLDEN) -> float:
    return (offset + k * alpha) % 1.0


def tent(u: float) -> float:
    """Map [0, 1) onto itself, uniform in and out, continuous as u wraps
    around, so sums of a cost along a Kronecker sequence settle fast."""
    return 1.0 - abs(2.0 * (u % 1.0) - 1.0)


def rel_close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


class Workload:
    name = ""
    # length of the family cycle; both item lists below hold whole cycles
    period = 1
    # items in one round of the timed run
    items = 1
    # whether each round draws new items or replays the first round's
    redraw = True
    # items in the traced pass, the first of the round's list; fixed so
    # that per-layer counts repeat exactly between runs of the same seed
    trace_items = 1

    def prepare(self, lx, seed: int) -> SimpleNamespace:
        """Everything built once per run, timed as part of setup_s."""
        plan = np.random.default_rng(np.random.SeedSequence([seed, PLAN]))
        return SimpleNamespace(lx=lx, seed=seed, offsets=plan.uniform(0.0, 1.0, size=4))

    def inputs(self, state, i: int, stream: int = TIMED):
        raise NotImplementedError

    def run(self, state, inp):
        raise NotImplementedError

    def check(self, state, inp, out) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shadow_orbits: AC02's reconstruction, split into one orbit per item
# ---------------------------------------------------------------------------

SADDLE = [[0.5, 0.0], [0.0, 2.0]]


class ShadowOrbits(Workload):
    """Length-200 pseudo-orbits (delta 1e-3) shadowed by the splitting series
    and by the window solve. Even items use the saddle, odd items a random
    real hyperbolic matrix of dimension 2 or 3 (margin 0.2, linf norm)."""

    name = "shadow_orbits"
    period = 4
    items = 48
    trace_items = 40
    delta = 1e-3
    length = 200
    # AC02 allows the window solve 1e-6 over the series at delta 1e-3
    window_rel_tol = 1e-3

    def inputs(self, state, i, stream=TIMED):
        rng = item_rng(state.seed, stream, i)
        if i % 2 == 0:
            matrix, saddle = np.array(SADDLE), True
        else:
            dim = 2 + (i // 2) % 2
            matrix = state.lx.sampling.random_margin_matrix(dim, rng, margin=0.2)
            saddle = False
        seed_coords = rng.standard_normal(matrix.shape[0])
        return SimpleNamespace(
            matrix=matrix, saddle=saddle, seed_coords=seed_coords,
            orbit_seed=int(rng.integers(2**31)),
        )

    def run(self, state, inp):
        lx = state.lx
        op = lx.DenseOp(inp.matrix, lx.LINF)
        split = lx.spectral_split(op)
        po = lx.generate_pseudo_orbit(
            op, lx.DenseVector(inp.seed_coords, lx.LINF), (0, self.length), self.delta,
            rng_seed=inp.orbit_seed,
        )
        series = lx.shadow_splitting_series(op, split, po)
        try:
            window = lx.shadow_window_solve(op, po)
        except lx.LindynError as exc:
            # the window solve rejecting its own orbit is ROADMAP item 3
            window = exc
        return series, window

    def check(self, state, inp, out):
        series, window = out
        bound = series.constant_used * self.delta
        tightness = series.sup_error / bound if bound > 0 else None
        if series.sup_error > bound * (1.0 + 1e-9):
            return Verdict(UNSOUND, tightness, f"series error {series.sup_error:.3g} > {bound:.3g}")
        if inp.saddle and series.sup_error > 3.0 * self.delta * (1.0 + 1e-9):
            return Verdict(UNSOUND, tightness, f"saddle series error {series.sup_error:.3g} > 3 delta")
        if isinstance(window, Exception):
            return Verdict(
                WINDOW_SOLVE, tightness, f"window solve refused: {type(window).__name__}: {window}"
            )
        if window.sup_error > series.sup_error * (1.0 + self.window_rel_tol):
            return Verdict(
                WINDOW_SOLVE, tightness,
                f"window error {window.sup_error:.3g} above series {series.sup_error:.3g}",
            )
        return Verdict(OK, tightness)


# ---------------------------------------------------------------------------
# certify_bounds: AC05's matrices plus weighted shifts
# ---------------------------------------------------------------------------


class CertifyBounds(Workload):
    """Eight dense items (dimension 2..6, margin 0.05, norms cycling l1, l2,
    linf) for every weighted-shift item R o W with SignWeights(a, b) and a
    coordinate split. The stable series decays at rate a in [0.2, 0.65] and
    the unstable one at 1/b in [0.25, 0.65]. A shift item's cost grows with
    about the square of its series lengths (2.7 s at rate 0.8, 0.35 s at
    0.7), so both rates come from one evenly spaced grid with a seeded
    offset through a tent map, half a period apart. The grid has one point
    per shift item of a round, so every round holds the same shift items
    and the same spread of their costs. With twenty shift items a round,
    the tail percentile falls on the middle of their costs."""

    name = "certify_bounds"
    period = 9
    items = 180
    trace_items = 63
    margin = 0.05
    a_range = (0.2, 0.65)
    inv_b_range = (0.25, 0.65)

    def inputs(self, state, i, stream=TIMED):
        cycle, slot = divmod(i, self.period)
        if slot == self.period - 1:
            shifts = self.items // self.period
            u = (state.offsets[0] + (cycle % shifts) / shifts) % 1.0
            a_lo, a_hi = self.a_range
            inv_lo, inv_hi = self.inv_b_range
            a = a_lo + (a_hi - a_lo) * tent(u)
            b = 1.0 / (inv_lo + (inv_hi - inv_lo) * tent(u + 0.5))
            return SimpleNamespace(shift=True, a=a, b=b)
        j = cycle * (self.period - 1) + slot
        rng = item_rng(state.seed, stream, i)
        dim = 2 + j % 5
        matrix = state.lx.sampling.random_margin_matrix(dim, rng, margin=self.margin)
        return SimpleNamespace(shift=False, matrix=matrix, norm=("l1", "l2", "linf")[j % 3])

    def run(self, state, inp):
        lx = state.lx
        if inp.shift:
            weights = lx.operators.SignWeights(neg_and_zero=inp.a, pos=inp.b)
            op = lx.CompositionOp([lx.ShiftOp(1, lx.L1), lx.DiagonalOp(weights, lx.L1)])
            split = lx.CoordinateSplit(cutoff=0, norm_tag=lx.L1)
            return lx.classify(op, split), lx.shad_bounds(op, split), None
        op = lx.DenseOp(inp.matrix, inp.norm)
        split = lx.spectral_split(op)
        report = lx.classify(op, split)
        bounds = lx.shad_bounds(op, split)
        return report, bounds, lx.expansive_eigen_test(op)

    def check(self, state, inp, out):
        report, bounds, expansivity = out
        lower, upper = bounds.lower, bounds.upper
        tightness = lower / upper if upper > 0 and math.isfinite(upper) else None
        if not lower <= upper:
            return Verdict(UNSOUND, tightness, f"lower {lower:.9g} > upper {upper:.9g}")
        if inp.shift:
            exact_upper = 1.0 / (1.0 - inp.a) + 1.0 / (inp.b - 1.0)
            exact_lower = max(1.0 / (1.0 - inp.a), 1.0 / (inp.b - 1.0))
            if not (rel_close(upper, exact_upper, 1e-9) and rel_close(lower, exact_lower, 1e-9)):
                return Verdict(
                    UNSOUND, tightness,
                    f"shift a={inp.a:.6g} b={inp.b:.6g}: [{lower:.12g}, {upper:.12g}] vs "
                    f"[{exact_lower:.12g}, {exact_upper:.12g}]",
                )
            if report.klass != state.lx.GENERALIZED:
                return Verdict(UNSOUND, tightness, f"shift classified {report.klass}")
            return Verdict(OK, tightness)
        # AC05's three routes must agree (eigenvalues off the circle, a
        # finite shadowing upper bound, eigen-expansivity), and so must the class
        moduli = np.abs(np.linalg.eigvals(inp.matrix))
        routes = (
            bool(np.all(np.abs(moduli - 1.0) >= self.margin)),
            math.isfinite(upper),
            expansivity.verdict == state.lx.EXPANSIVE,
            report.klass == state.lx.HYPERBOLIC,
        )
        if len(set(routes)) != 1:
            return Verdict(UNSOUND, tightness, f"routes disagree (eig, finite, expansive, class) {routes}")
        return Verdict(OK, tightness)


# ---------------------------------------------------------------------------
# window_estimate: generated scenarios in the shape of `rotation` and
# `saddle_diag`, through cli.run_scenario
# ---------------------------------------------------------------------------


class WindowEstimate(Workload):
    """One cli.run_scenario call per item with tasks linf and expansivity.
    The cycle holds six rotations by a seeded angle (l2), five saddles and
    one random real 2x2 hyperbolic matrix (linf); the window size runs
    through 8, 16 and 32 so each family meets each size. A random item
    takes about twice as long as the others, mostly in the descent of
    central_window_growth, so one per cycle, at its end, keeps a round's
    length from hinging on it.

    The random matrices are saddles in a random basis: eigenvalue moduli in
    [0.3, 0.8] and [1.25, 3], random signs, and eigenvectors 30 to 90
    degrees apart, at a random orientation. Draws from random_margin_matrix
    also give contractions with a near-zero eigenvalue and bases with
    condition numbers near 30, on which central_window_growth alone takes up
    to 8 s; a handful of such items would set the length of a whole run.
    """

    name = "window_estimate"
    period = 12
    items = 12
    trace_items = 12
    # a round holds only twelve items, each about a second long, so rounds
    # replay them and the copies of a place do the same work
    redraw = False
    families = ("rotation", "saddle") * 5 + ("rotation", "random")
    sizes = (8, 16, 32)
    linf_samples = 6
    angle_range = (0.25, math.pi - 0.25)

    def inputs(self, state, i, stream=TIMED):
        cycle, slot = divmod(i, self.period)
        family = self.families[slot]
        size = self.sizes[(i + cycle) % len(self.sizes)]
        rng = item_rng(state.seed, stream, i)
        if family == "rotation":
            lo, hi = self.angle_range
            theta = lo + (hi - lo) * kronecker(state.offsets[2], i)
            c, s = math.cos(theta), math.sin(theta)
            matrix, norm = [[c, -s], [s, c]], "l2"
        elif family == "saddle":
            matrix, norm = SADDLE, "linf"
        else:
            matrix, norm = self.random_saddle(state, cycle, rng), "linf"
        scenario = {
            "name": f"{family}_{i}",
            "operator": {"kind": "dense", "matrix": matrix, "norm": norm},
            "tasks": ["linf", "expansivity"],
            "parameters": {"linf_N": size, "linf_samples": self.linf_samples},
            "rng_seed": int(rng.integers(2**31)),
        }
        return SimpleNamespace(family=family, size=size, scenario=scenario)

    @staticmethod
    def random_saddle(state, k: int, rng) -> list:
        stable = (0.3 + 0.5 * kronecker(state.offsets[0], k, GOLDEN)) * rng.choice((-1.0, 1.0))
        unstable = (1.25 + 1.75 * kronecker(state.offsets[1], k, PLASTIC)) * rng.choice((-1.0, 1.0))
        gap = math.pi / 6 + (math.pi / 3) * kronecker(state.offsets[3], k, PLASTIC**2)
        angle = rng.uniform(0.0, math.pi)
        basis = np.array([
            [math.cos(angle), math.cos(angle + gap)],
            [math.sin(angle), math.sin(angle + gap)],
        ])
        return (basis @ np.diag([stable, unstable]) @ np.linalg.inv(basis)).tolist()

    def run(self, state, inp):
        return state.lx.cli.run_scenario(inp.scenario)

    def check(self, state, inp, out):
        tasks = out["tasks"]
        refused = [name for name, task in tasks.items() if not task["ok"]]
        if refused:
            return Verdict(REFUSED, None, f"tasks not ok: {refused}")
        linf = tasks["linf"]["result"]
        estimate = float(linf["shad_estimate"])
        margin = float(linf["injectivity_margin"])
        if inp.family == "rotation":
            if not (rel_close(estimate, inp.size, 1e-6) and rel_close(margin, 1.0 / inp.size, 1e-6)):
                return Verdict(
                    UNSOUND, None,
                    f"rotation N={inp.size}: estimate {estimate!r}, margin {margin!r}",
                )
            return Verdict(OK, None)
        # the certified upper bound is computed here, outside the timed item
        lx = state.lx
        op_cfg = inp.scenario["operator"]
        op = lx.DenseOp(op_cfg["matrix"], op_cfg["norm"])
        upper = lx.shad_bounds(op, lx.spectral_split(op)).upper
        tightness = estimate / upper
        if estimate > upper * (1.0 + 1e-9):
            return Verdict(
                WINDOW_SOLVE, tightness,
                f"{inp.family} N={inp.size}: estimate {estimate:.9g} above upper {upper:.9g}",
            )
        return Verdict(OK, tightness)


# ---------------------------------------------------------------------------
# conjugacy_field: AC06's bump conjugacy, one query point per item
# ---------------------------------------------------------------------------


class ConjugacyField(Workload):
    """AC06's bump conjugacy on the saddle. conjugacy_solve and
    inverse_conjugacy run in setup; each item is one query point x in AC06's
    ball of linf radius 3. The points are real: a Kronecker sequence gives
    the position on the unit linf circle and the radius, uniform in [0, 3]
    as in AC06, so every round spreads its points evenly. The item evaluates
    the conjugacy residual at x, which needs h(x) and h(Lx) and so shares
    memo entries, and the round trip x -> x + h(x) -> back through the
    inverse. Every round, and the warm-up, runs on a freshly solved
    conjugacy, so the memo the timed items use starts empty, as it does for
    a user, and fills the same way in every round.

    An item's tightness is the bracket on sup|h| after it: the largest
    |h(x)| evaluated so far over the certified bound h_bound. |h(x)| at
    single points spans four decades, so its median is no steady gauge."""

    name = "conjugacy_field"
    period = 1
    items = 64
    trace_items = 50
    # an item's cost depends on the memo its predecessors left, so each
    # round replays the same points and the copies of a place do the same work
    redraw = False
    radius = 3.0

    def prepare(self, lx, seed):
        state = super().prepare(lx, seed)
        op = lx.DenseOp(SADDLE, lx.LINF, invertible=True)
        split = lx.spectral_split(op)
        bump = lx.BumpPerturbation(
            center=lx.DenseVector([0.8, -0.4], lx.LINF),
            radius=1.6,
            amplitude=0.01,
            direction=lx.DenseVector([1.0, 0.3], lx.LINF),
        )
        state.op, state.bump = op, bump
        state.solution = lx.conjugacy_solve(op, split, bump, tol=1e-8)
        state.inverse = lx.inverse_conjugacy(op, split, bump, tol=1e-8)
        state.h_max = 0.0
        return state

    def setup_ok(self, state) -> bool:
        """AC06's certificate on the perturbation and the Picard factor."""
        bump = state.bump
        return bump.sup_norm <= 0.01 and bump.lip <= 0.01 and state.solution.factor <= 0.03 + 1e-9

    def inputs(self, state, i, stream=TIMED):
        # walk the perimeter of the unit linf square, side by side
        side, t = divmod(4.0 * kronecker(state.offsets[stream], i, GOLDEN), 1.0)
        along = 2.0 * t - 1.0
        unit = ((1.0, along), (-along, 1.0), (-1.0, -along), (along, -1.0))[int(side)]
        r = self.radius * kronecker(state.offsets[2 + stream], i, PLASTIC)
        return SimpleNamespace(x=state.lx.DenseVector([r * unit[0], r * unit[1]], state.lx.LINF))

    def run(self, state, inp):
        lx, x, field = state.lx, inp.x, state.solution.field
        residual = lx.conjugacy_residual(state.op, state.bump, field, [x])
        hx = field(x)
        y = x + hx
        back = y + state.inverse.field(y)
        return residual, (back - x).norm(), hx.norm()

    def check(self, state, inp, out):
        residual, round_trip, h_norm = out
        # every evaluated |h(x)| bounds sup|h| from below, h_bound from above
        state.h_max = max(state.h_max, h_norm)
        tightness = state.h_max / state.solution.h_bound
        if not self.setup_ok(state):
            return Verdict(UNSOUND, tightness, "AC06 certificate on the bump or factor fails")
        if residual > 1e-6 or round_trip > 1e-5 or h_norm > 0.03:
            return Verdict(
                UNSOUND, tightness,
                f"residual {residual:.2e}, round trip {round_trip:.2e}, |h| {h_norm:.4f}",
            )
        return Verdict(OK, tightness)


WORKLOADS = {w.name: w for w in (ShadowOrbits(), CertifyBounds(), WindowEstimate(), ConjugacyField())}
