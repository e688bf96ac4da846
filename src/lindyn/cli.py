"""Command line front end: run scenario files, run randomized suites, list
the bundled examples.

Exit codes: 0 success, 2 invalid configuration or unreadable/unwritable
files, 3 when at least one requested task reported an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from typing import Optional

import numpy as np

from .errors import ConfigInvalid, LindynError, NonFinite, NotCertified, ReportIOError
from .expansivity import EXPANSIVE, expansive_eigen_test, expansivity_scan
from .hypercyclic import adjoint_eigen_obstruction, criterion_witness, rolewicz
from .gallery import NAMED_MAPS
from .homoclinic import homoclinic_dichotomy
from .linalg import MAX_DENSE_DIM, DenseVector, SparseBiSeq
from .linf import WindowedLinf, linf_injectivity_margin, shad_estimate_linf
from .operators import BackwardScaledOp, DenseOp, LinOp, op_from_config, scalar_from_json
from .sampling import (
    random_margin_matrix,
    random_spectral_contraction,
    rng_from_seed,
    unit_dense_samples,
)
from .shadowing import (
    WINDOW_SOLVE_MAX_DIM,
    WINDOW_SOLVE_MAX_LEN,
    ShadInterval,
    generate_pseudo_orbit,
    shad_bounds,
    shad_conjugate,
    shad_inverse,
    shad_product,
    shadow_contraction,
    shadow_splitting_series,
    shadow_window_solve,
)
from .splitting import CoordinateSplit, classify, spectral_split
from .stability import (
    BumpPerturbation,
    conjugacy_residual,
    conjugacy_solve,
    grobman_hartman_local,
    inverse_conjugacy,
    verify_contractive_sum,
)

TASKS = (
    "classify",
    "shadow",
    "bounds",
    "linf",
    "expansivity",
    "hypercyclic",
    "conjugacy",
    "homoclinic",
    "suite",
)
SUITES = ("finite_dim_equivalence", "block_product", "calculus", "contractive_sum")
MAX_SUITE_SIZE = 10_000
# the shadow task's walk and pseudo-orbit hold all n1 - n0 + 1 points at once
MAX_SHADOW_STEPS = 100_000


def _num(x: float):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _scalar(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return _num(z.real)
    return [_num(z.real), _num(z.imag)]


def _vec(v) -> dict:
    if isinstance(v, DenseVector):
        return {"coords": [_scalar(c) for c in v.coords], "norm": v.norm_tag}
    return {
        "entries": {str(k): _scalar(v[k]) for k in v.support()},
        "norm": v.norm_tag,
    }


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise ConfigInvalid(f"{message} (at {path})", location=path)


def _number(params: dict, name: str, default: float, positive: bool = True) -> float:
    """A finite real parameter, above zero, or at least zero when not positive."""
    val = params.get(name, default)
    real = isinstance(val, (int, float)) and not isinstance(val, bool)
    _require(
        real and abs(val) <= sys.float_info.max and (val > 0 if positive else val >= 0),
        f"{name} must be a finite {'positive' if positive else 'nonnegative'} number",
        f"$.parameters.{name}",
    )
    return float(val)


def _count(params: dict, name: str, default: int) -> int:
    val = params.get(name, default)
    _require(
        isinstance(val, int) and not isinstance(val, bool) and val >= 1,
        f"{name} must be a positive integer",
        f"$.parameters.{name}",
    )
    return val


def vector_from_config(cfg, tag: str, path: str):
    _require(isinstance(cfg, dict), "vector config must be an object", path)
    if "coords" in cfg:
        coords = cfg["coords"]
        _require(
            isinstance(coords, list) and 1 <= len(coords) <= MAX_DENSE_DIM,
            f"coords must be a list of 1 to {MAX_DENSE_DIM} entries",
            path,
        )
        vals = [scalar_from_json(c, f"{path}.coords[{i}]") for i, c in enumerate(coords)]
        return DenseVector(vals, tag)
    if "entries" in cfg:
        entries = cfg["entries"]
        _require(isinstance(entries, dict), "entries must be an object", path)
        out = {}
        for k, val in entries.items():
            try:
                idx = int(k)
            except ValueError:
                raise ConfigInvalid(
                    f"entry index {k!r} is not an integer (at {path})", location=path
                ) from None
            out[idx] = scalar_from_json(val, f"{path}.entries[{k}]")
        return SparseBiSeq(out, tag)
    raise ConfigInvalid(f"vector config needs coords or entries (at {path})", location=path)


class Scenario:
    """Validated scenario: operator, optional splitting config, task list."""

    def __init__(self, cfg: dict):
        _require(isinstance(cfg, dict), "scenario must be an object", "$")
        unknown = set(cfg) - {"name", "operator", "splitting", "tasks", "parameters", "rng_seed"}
        _require(not unknown, f"unknown scenario keys {sorted(unknown)}", "$")
        self.name = cfg.get("name", "unnamed")
        _require(isinstance(self.name, str), "name must be a string", "$.name")
        _require("operator" in cfg, "scenario needs an operator", "$")
        self.op = op_from_config(cfg["operator"], path="$.operator")
        self.split_cfg = cfg.get("splitting")
        if self.split_cfg is not None:
            _require(
                isinstance(self.split_cfg, dict), "splitting must be an object", "$.splitting"
            )
        tasks = cfg.get("tasks")
        _require(
            isinstance(tasks, list) and tasks and all(isinstance(t, str) for t in tasks),
            "tasks must be a nonempty list of strings",
            "$.tasks",
        )
        for t in tasks:
            _require(t in TASKS, f"unknown task {t!r}; valid: {TASKS}", "$.tasks")
        self.tasks = list(tasks)
        self.parameters = cfg.get("parameters", {})
        _require(
            isinstance(self.parameters, dict), "parameters must be an object", "$.parameters"
        )
        self.rng_seed = cfg.get("rng_seed", 0)
        _require(
            isinstance(self.rng_seed, int) and not isinstance(self.rng_seed, bool),
            "rng_seed must be an integer",
            "$.rng_seed",
        )

    @functools.cached_property
    def splitting(self):
        """The scenario's split, built at first use and kept, so that every
        task shares it and the work memoized on it; a refusal is not kept,
        and the next use builds it again."""
        cfg = self.split_cfg
        if cfg is None:
            if self.op.vector_kind == "dense":
                return spectral_split(self.op)
            return CoordinateSplit(0, self.op.norm_tag)
        kind = cfg.get("kind")
        path = "$.splitting"
        if kind == "coordinate":
            cutoff = cfg.get("cutoff", 0)
            _require(
                isinstance(cutoff, int) and not isinstance(cutoff, bool),
                "cutoff must be an integer",
                path,
            )
            return CoordinateSplit(cutoff, self.op.norm_tag)
        if kind == "spectral":
            gap = cfg.get("gap", 1e-6)
            _require(
                isinstance(gap, (int, float)) and not isinstance(gap, bool) and gap > 0,
                "gap must be a positive number",
                path,
            )
            return spectral_split(self.op, float(gap))
        raise ConfigInvalid(
            f"splitting kind must be coordinate or spectral, got {kind!r} (at {path})",
            location=path,
        )


def _default_seed_vector(op: LinOp):
    if op.vector_kind == "dense":
        dim = op.dense_matrix().shape[0]
        return DenseVector(np.full(dim, 1.0 / max(dim, 1)), op.norm_tag)
    return SparseBiSeq.basis(0, op.norm_tag)


def _task_classify(sc: Scenario) -> dict:
    rep = classify(sc.op, sc.splitting)
    return {
        "class": rep.klass,
        "r_S": _num(rep.r_S),
        "r_U_inv": _num(rep.r_U_inv),
        "circle_gap": _num(rep.circle_gap),
        "witness": None if rep.witness is None else _vec(rep.witness),
    }


def _task_bounds(sc: Scenario) -> dict:
    b = shad_bounds(sc.op, sc.splitting)
    return {
        "upper": _num(b.upper),
        "lower": _num(b.lower),
        "series_A": _num(b.series_A),
        "series_B": _num(b.series_B),
    }


def _task_shadow(sc: Scenario) -> dict:
    params = sc.parameters
    delta = _number(params, "delta", 1e-3, positive=False)
    window = params.get("window", [0, 60])
    _require(
        isinstance(window, list)
        and len(window) == 2
        and all(isinstance(w, int) and not isinstance(w, bool) for w in window)
        and window[0] <= window[1],
        "window must be [n0, n1] with integers n0 <= n1",
        "$.parameters.window",
    )
    _require(
        window[1] - window[0] <= MAX_SHADOW_STEPS,
        f"window may span at most {MAX_SHADOW_STEPS} steps",
        "$.parameters.window",
    )
    seed_cfg = params.get("seed_vector")
    seed = (
        vector_from_config(seed_cfg, sc.op.norm_tag, "$.parameters.seed_vector")
        if seed_cfg is not None
        else _default_seed_vector(sc.op)
    )
    po = generate_pseudo_orbit(sc.op, seed, tuple(window), delta, sc.rng_seed)
    methods: dict = {}
    split = None
    try:
        split = sc.splitting
    except LindynError:
        pass
    if split is not None:
        try:
            res = shadow_splitting_series(sc.op, split, po)
            methods["splitting_series"] = {
                "sup_error": _num(res.sup_error),
                "constant_used": _num(res.constant_used),
            }
        except LindynError as exc:
            methods["splitting_series"] = {"error": exc.code, "message": str(exc)}
    if sc.op.operator_norm() < 1.0:
        res = shadow_contraction(sc.op, po)
        methods["contraction_fixed_point"] = {
            "sup_error": _num(res.sup_error),
            "constant_used": _num(res.constant_used),
        }
    if (
        sc.op.vector_kind == "dense"
        and sc.op.dense_matrix().shape[0] <= WINDOW_SOLVE_MAX_DIM
        and len(po.points) <= WINDOW_SOLVE_MAX_LEN
    ):
        try:
            res = shadow_window_solve(sc.op, po)
            methods["window_solve"] = {
                "sup_error": _num(res.sup_error),
                "constant_used": _num(res.constant_used),
                "lower": _num(res.lower),
                "gap": _num(res.sup_error - res.lower),
            }
        except LindynError as exc:
            methods["window_solve"] = {"error": exc.code, "message": str(exc)}
    if all("error" in r for r in methods.values()):
        refused = ", ".join(f"{m}: {r['error']}" for m, r in sorted(methods.items()))
        raise NotCertified(f"no shadowing method succeeded out of [{refused}]")
    return {"delta": delta, "points": len(po.points), "methods": methods}


def _task_linf(sc: Scenario) -> dict:
    params = sc.parameters
    n = _count(params, "linf_N", 16)
    # the estimate's defect samples are fixed (no parameter sets their
    # number), and each window it solves holds 2 N + 1 points: refuse what
    # the window solve would, before the margin descent runs
    cap = (WINDOW_SOLVE_MAX_LEN - 1) // 2
    _require(n <= cap, f"linf_N must be at most {cap}", "$.parameters.linf_N")
    try:
        w = WindowedLinf(sc.op, n)
    except NonFinite:
        raise
    except ValueError as exc:
        raise ConfigInvalid(f"{exc} (at $.parameters.linf_N)", location="$.parameters.linf_N")
    _require(
        w.dim <= WINDOW_SOLVE_MAX_DIM,
        f"the linf task is limited to dimension {WINDOW_SOLVE_MAX_DIM}",
        "$.operator",
    )
    return {
        "window_N": n,
        "injectivity_margin": _num(float(linf_injectivity_margin(w, rng_seed=sc.rng_seed))),
        "shad_estimate": _num(shad_estimate_linf(w)),
    }


def _task_expansivity(sc: Scenario) -> dict:
    rep = expansivity_scan(sc.op, rng_seed=sc.rng_seed)
    out: dict = {}
    if rep.eigen is not None:
        out["eigen"] = {
            "verdict": rep.eigen.verdict,
            "circle_gap": _num(rep.eigen.circle_gap),
            "moduli": [_num(m) for m in rep.eigen.moduli],
        }
    out["uniform_m"] = None if rep.uniform is None else rep.uniform.m
    out["window_growth"] = [[n, _num(g.lower), _num(g.value)] for n, g in rep.window_growth]
    return out


def _task_hypercyclic(sc: Scenario) -> dict:
    out: dict = {}
    if isinstance(sc.op, BackwardScaledOp):
        eps = _number(sc.parameters, "eps", 1e-6)
        cd = rolewicz(sc.op.factor)
        targets = [
            SparseBiSeq.basis(0, sc.op.norm_tag),
            SparseBiSeq.basis(1, sc.op.norm_tag),
            SparseBiSeq({0: 1.0, 1: 0.5}, sc.op.norm_tag),
        ]
        wit = criterion_witness(cd, targets, eps)
        out["criterion"] = {
            "name": cd.name,
            "eps": eps,
            "visit_times": list(wit.visit_times),
            "visit_errors": [_num(e) for e in wit.visit_errors],
        }
    if sc.op.vector_kind == "dense":
        obs = adjoint_eigen_obstruction(sc.op)
        out["adjoint_obstructions"] = [
            {"eigenvalue": _scalar(o.eigenvalue), "modulus_class": o.modulus_class}
            for o in obs
        ]
    if not out:
        raise LindynError("no hypercyclicity diagnostic applies to this operator")
    return out


def _task_conjugacy(sc: Scenario) -> dict:
    params = sc.parameters
    map_name = params.get("map")
    if map_name is not None:
        _require(
            isinstance(map_name, str) and map_name in NAMED_MAPS,
            f"unknown map {map_name!r}; valid: {sorted(NAMED_MAPS)}",
            "$.parameters.map",
        )
        lin = grobman_hartman_local(
            NAMED_MAPS[map_name](),
            box_radius=_number(params, "box_radius", 1.0),
            tol=_number(params, "tol", 1e-6),
            rng_seed=sc.rng_seed,
        )
        rng = rng_from_seed(sc.rng_seed)
        dim = lin.fixed_point.dim
        pts = [
            u * (lin.radius * rng.uniform(0.0, 1.0))
            for u in unit_dense_samples(dim, lin.op.norm_tag, 25, rng)
        ]
        return {
            "map": map_name,
            "radius": _num(lin.radius),
            "factor": _num(lin.factor),
            "residual": _num(lin.residual(pts)),
        }
    _require(sc.op.vector_kind == "dense", "bump conjugacy needs a dense operator", "$.operator")
    dim = sc.op.dense_matrix().shape[0]
    tag = sc.op.norm_tag
    amplitude = _number(params, "amplitude", 0.01, positive=False)
    radius = _number(params, "radius", 1.6)
    direction = DenseVector(np.eye(dim)[0], tag)
    bump = BumpPerturbation(
        center=DenseVector(np.zeros(dim), tag),
        radius=radius,
        amplitude=amplitude,
        direction=direction,
    )
    split = sc.splitting
    sol = conjugacy_solve(sc.op, split, bump)
    inv_sol = inverse_conjugacy(sc.op, split, bump)
    rng = rng_from_seed(sc.rng_seed)
    pts = [u * (2.0 * rng.uniform(0.0, 1.0)) for u in unit_dense_samples(dim, tag, 25, rng)]
    comp = max(
        ((x + sol.field(x)) + inv_sol.field(x + sol.field(x)) - x).norm() for x in pts
    )
    return {
        "factor": _num(sol.factor),
        "depth": sol.depth,
        "h_bound": _num(sol.h_bound),
        "residual": _num(conjugacy_residual(sc.op, bump, sol.field, pts)),
        "round_trip": _num(comp),
    }


def _task_homoclinic(sc: Scenario) -> dict:
    split = sc.splitting
    _require(
        isinstance(split, CoordinateSplit),
        "the homoclinic search needs a coordinate splitting",
        "$.splitting",
    )
    rep = homoclinic_dichotomy(sc.op, split)
    return {
        "verdict": rep.verdict,
        "witness": None if rep.witness is None else _vec(rep.witness),
        "checked": rep.checked,
    }


def _task_suite(sc: Scenario) -> dict:
    name = sc.parameters.get("suite")
    _require(
        isinstance(name, str) and name in SUITES,
        f"parameters.suite must be one of {SUITES}",
        "$.parameters.suite",
    )
    size = sc.parameters.get("size", 25)
    return run_suite(sc.rng_seed, size, only=name)


_TASK_FNS = {
    "classify": _task_classify,
    "bounds": _task_bounds,
    "shadow": _task_shadow,
    "linf": _task_linf,
    "expansivity": _task_expansivity,
    "hypercyclic": _task_hypercyclic,
    "conjugacy": _task_conjugacy,
    "homoclinic": _task_homoclinic,
    "suite": _task_suite,
}


def run_scenario(cfg: dict) -> dict:
    """Run every requested task, isolating expected failures per task."""
    sc = Scenario(cfg)
    report: dict = {"name": sc.name, "rng_seed": sc.rng_seed, "tasks": {}}
    for task in sc.tasks:
        try:
            result = _TASK_FNS[task](sc)
        except ConfigInvalid:
            raise
        except LindynError as exc:
            report["tasks"][task] = {"ok": False, "error": exc.code, "message": str(exc)}
        else:
            report["tasks"][task] = {"ok": True, "result": result}
    return report


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------


def _suite_finite_dim_equivalence(seed: int, size: int) -> dict:
    rng = rng_from_seed(seed)
    failures = []
    for i in range(size):
        m = random_margin_matrix(4, rng, margin=0.05)
        op = DenseOp(m, "l2")
        split = spectral_split(op)
        klass = classify(op, split).klass
        finite = math.isfinite(shad_bounds(op, split).upper)
        expansive = expansive_eigen_test(op).verdict == EXPANSIVE
        if not (klass == "Hyperbolic" and finite and expansive):
            failures.append({"index": i, "class": klass, "finite": finite, "expansive": expansive})
    return {"suite": "finite_dim_equivalence", "size": size, "failures": failures}


def _suite_block_product(seed: int, size: int) -> dict:
    rng = rng_from_seed(seed)
    failures = []
    for i in range(size):
        blocks = [random_margin_matrix(2, rng, margin=0.05) for _ in range(2)]
        a, b = (DenseOp(blk, "linf") for blk in blocks)
        big = np.zeros((4, 4))
        big[:2, :2], big[2:, 2:] = blocks
        d = DenseOp(big, "linf")
        iv_a = shad_bounds(a, spectral_split(a))
        iv_b = shad_bounds(b, spectral_split(b))
        rule = shad_product(
            ShadInterval(iv_a.lower, iv_a.upper), ShadInterval(iv_b.lower, iv_b.upper)
        )
        direct = shad_bounds(d, spectral_split(d))
        overlap = max(rule.lower, direct.lower) <= min(rule.upper, direct.upper) * (1 + 1e-9)
        if not overlap:
            failures.append(
                {
                    "index": i,
                    "rule": [rule.lower, rule.upper],
                    "direct": [direct.lower, direct.upper],
                }
            )
    return {"suite": "block_product", "size": size, "failures": failures}


def _suite_calculus(seed: int, size: int) -> dict:
    rng = rng_from_seed(seed)
    failures = []
    for i in range(size):
        m = random_margin_matrix(2, rng, margin=0.1)
        op = DenseOp(m, "linf")
        base = shad_bounds(op, spectral_split(op))
        iv = ShadInterval(base.lower, base.upper)
        diag = rng.uniform(0.5, 2.0, size=2)
        h = np.diag(diag)
        h_norm, h_inv_norm = float(diag.max()), float((1.0 / diag).max())
        conj_op = DenseOp(h @ m @ np.linalg.inv(h), "linf")
        rule = shad_conjugate(iv, h_norm, h_inv_norm)
        direct = shad_bounds(conj_op, spectral_split(conj_op))
        ok = max(rule.lower, direct.lower) <= min(rule.upper, direct.upper) * (1 + 1e-9)
        inv_rule = shad_inverse(iv, op.operator_norm(), op.inverse().operator_norm())
        inv_direct = shad_bounds(op.inverse(), spectral_split(op.inverse()))
        ok_inv = max(inv_rule.lower, inv_direct.lower) <= min(
            inv_rule.upper, inv_direct.upper
        ) * (1 + 1e-9)
        if not (ok and ok_inv):
            failures.append({"index": i, "conjugacy_ok": ok, "inverse_ok": ok_inv})
    return {"suite": "calculus", "size": size, "failures": failures}


def _suite_contractive_sum(seed: int, size: int) -> dict:
    rng = rng_from_seed(seed)
    failures = []
    for i in range(size):
        dim = int(rng.integers(2, 5))
        op = DenseOp(random_spectral_contraction(dim, rng), "l2")
        rep = verify_contractive_sum(op, trials=20, seq_len=20, rng_seed=seed + i)
        upper = shad_bounds(op, spectral_split(op)).upper
        match = abs(upper - rep.gamma) <= 1e-9 * rep.gamma + 1e-9
        if rep.violations or not match:
            failures.append(
                {"index": i, "violations": rep.violations, "gamma": rep.gamma, "upper": upper}
            )
    return {"suite": "contractive_sum", "size": size, "failures": failures}


_SUITE_FNS = {
    "finite_dim_equivalence": _suite_finite_dim_equivalence,
    "block_product": _suite_block_product,
    "calculus": _suite_calculus,
    "contractive_sum": _suite_contractive_sum,
}


def run_suite(seed: int, size: int, only: Optional[str] = None) -> dict:
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ConfigInvalid("suite size must be a positive integer", location="size")
    if size > MAX_SUITE_SIZE:
        raise ConfigInvalid(f"suite size capped at {MAX_SUITE_SIZE}", location="size")
    names = [only] if only else list(SUITES)
    for n in names:
        if n not in _SUITE_FNS:
            raise ConfigInvalid(f"unknown suite {n!r}; valid: {SUITES}", location="suite")
    results = [_SUITE_FNS[n](seed, size) for n in names]
    total_failures = sum(len(r["failures"]) for r in results)
    return {"seed": seed, "size": size, "suites": results, "total_failures": total_failures}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def list_examples() -> list[str]:
    pkg = resources.files("lindyn") / "scenarios"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_scenario_file(path: str) -> dict:
    if "/" not in path and not path.endswith(".json"):
        pkg = resources.files("lindyn") / "scenarios" / f"{path}.json"
        if pkg.is_file():
            return json.loads(pkg.read_text())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"scenario file {path} is not valid JSON: {exc}") from exc


def _emit_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {out}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lindyn",
        description="hyperbolicity, shadowing, and conjugacy diagnostics for linear dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file (or bundled scenario name)")
    p_run.add_argument("scenario", help="path to a scenario JSON file, or a bundled name")
    p_run.add_argument("--out", help="write the JSON report here instead of stdout")

    p_suite = sub.add_parser("suite", help="run the randomized cross-check suites")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--size", type=int, default=25)
    p_suite.add_argument("--only", choices=SUITES, default=None)
    p_suite.add_argument("--out", help="write the JSON report here instead of stdout")

    sub.add_parser("list-examples", help="list bundled scenario names")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-examples":
            for name in list_examples():
                print(name)
            return 0
        if args.command == "suite":
            report = run_suite(args.seed, args.size, only=args.only)
            _emit_report(report, args.out)
            return 0 if report["total_failures"] == 0 else 3
        cfg = load_scenario_file(args.scenario)
        report = run_scenario(cfg)
        _emit_report(report, args.out)
        bad = [t for t, r in report["tasks"].items() if not r["ok"]]
        return 3 if bad else 0
    except (ConfigInvalid, ReportIOError) as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
