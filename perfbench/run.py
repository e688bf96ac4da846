#!/usr/bin/env python3
"""lindyn benchmark: four certified-result workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload shadow_orbits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

With --trace 0 the run times items with tracing off and prints the
end-to-end metrics. It plays the workload's items in rounds of a fixed
length until --seconds are used, each round on a fresh import of lindyn and
freshly prepared state. Every time is speed-adjusted by a calibration probe
timed around it, and every place in the round is timed by its median over
the rounds. With --trace 1 it runs a fixed item list twice, untraced and
then traced, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Reports and spans go to .perfbench_out/.
See perfbench/README.md for the workloads and the metric definitions.
"""

import os

# One BLAS thread, set before numpy is first imported; the benchmark itself
# is one process with no worker threads.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import ERROR, FAILED, OK, REFUSED, TIMED, UNSOUND, WARMUP, WORKLOADS, Verdict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# set-ups before the first round; every round adds one more
SETUP_REPEATS = 5
# a round starts only if, at the length of the last one, it ends within
# --seconds plus this share of them
ROUND_SLACK = 0.05
LAYERS = (
    "linalg", "operators", "splitting", "shadowing", "optim",
    "linf", "stability", "expansivity", "sampling", "cli",
)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.tail": "ms",
    "ok_ratio": "ratio",
    "tightness.p50": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.DenseVector.calls": "count",
    "linalg.self_s": "s",
    "operators.apply.calls": "count",
    "operators.monomial_power_sup.calls": "count",
    "operators.self_s": "s",
    "splitting.spectral_split.calls": "count",
    "splitting.power_norm.calls": "count",
    "splitting.self_s": "s",
    "shadowing.series_constants.calls": "count",
    "shadowing.series_terms": "count",
    "shadowing.generate_pseudo_orbit.s": "s",
    "shadowing.shadow_splitting_series.s": "s",
    "shadowing.shadow_window_solve.s": "s",
    "shadowing.verify_shadow.s": "s",
    "shadowing.self_s": "s",
    "optim.line_minimize.calls": "count",
    "optim.line_searches_per_solve": "count/solve",
    "optim.self_s": "s",
    "linf.linf_injectivity_margin.s": "s",
    "linf.shad_estimate_linf.s": "s",
    "linf.self_s": "s",
    "stability.gamma_eval.calls": "count",
    "stability.memo_hit_ratio": "ratio",
    "stability.self_s": "s",
    "expansivity.self_s": "s",
    "sampling.self_s": "s",
    "cli.self_s": "s",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead": "ratio",
}


# The shared host runs this process up to about 1.8 times slower from one
# second to the next, and for minutes at a time (see README.md). Every timed
# item and set-up is therefore bracketed by a calibration probe: a fixed loop
# of small-array numpy and interpreter work, the instruction mix of lindyn's
# vector layer, timed as the best of PROBE_REPEATS passes. A time is reported
# speed-adjusted: multiplied by PROBE_REF_S over the mean of the probes just
# before and just after it. PROBE_REF_S is the probe's time with the host
# quiet on the reference machine (2-core VM, Python 3.11.7, numpy 2.4.6), so
# there an adjusted time is the time the step takes on a quiet host.
PROBE_REPEATS = 3
PROBE_STEPS = 150
PROBE_REF_S = 6.2e-4
PROBE_MATRIX = np.array([[0.5, 0.1], [0.2, 2.0]])


def probe() -> float:
    """Seconds for the calibration loop, best of PROBE_REPEATS passes."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        v = np.array([1.0, -0.5])
        acc = 0.0
        for k in range(PROBE_STEPS):
            v = PROBE_MATRIX @ v
            v = v / np.abs(v).max()
            acc += float(np.abs(v).sum()) * 0.5 + k % 3
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(before: float, after: float) -> float:
    """The factor that adjusts a time taken between two probes."""
    return 2.0 * PROBE_REF_S / (before + after)


class SourceMissing(Exception):
    pass


def import_lindyn():
    """Import lindyn afresh from this checkout's source tree."""
    if not (SRC / "lindyn" / "__init__.py").is_file():
        raise SourceMissing(f"no lindyn source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "lindyn" or n.startswith("lindyn.")]:
        del sys.modules[name]
    lindyn = importlib.import_module("lindyn")
    importlib.import_module("lindyn.cli")
    if Path(lindyn.__file__).resolve().parent != SRC / "lindyn":
        raise SourceMissing(f"imported lindyn from {lindyn.__file__}, not from {SRC}")
    return lindyn


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


def set_up_once(workload, seed: int):
    """Import lindyn afresh and prepare the workload; return the state and
    the time it took with its speed factor."""
    before = probe()
    t0 = time.perf_counter()
    state = workload.prepare(import_lindyn(), seed)
    elapsed = time.perf_counter() - t0
    return state, (elapsed, speed_factor(before, probe()))


def set_up(workload, seed: int):
    """Set up SETUP_REPEATS times; the last preparation is the one returned."""
    times = []
    for _ in range(SETUP_REPEATS):
        state, timing = set_up_once(workload, seed)
        times.append(timing)
    return state, times


def attempt(workload, state, inp, tracer=None):
    """Run one item; return its latency in seconds and its checked verdict."""
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        out = workload.run(state, inp)
    except state.lx.LindynError as exc:
        return time.perf_counter() - t0, Verdict(REFUSED, None, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an escaped exception is a counted failure, not a crash
        return time.perf_counter() - t0, Verdict(ERROR, None, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = time.perf_counter() - t0
    return elapsed, workload.check(state, inp, out)


def warm_up(workload, seed: int, lx) -> None:
    """One untimed item on separately prepared state, so lazily loaded
    library code is in place while per-run caches of the timed state stay
    empty."""
    state = workload.prepare(lx, seed)
    attempt(workload, state, workload.inputs(state, 0, WARMUP))


def timed_rounds(workload, seed: int, seconds: float, setup_times: list) -> list:
    """Closed loop in rounds of `workload.items` consecutive items. With
    `workload.redraw`, round r plays items r * items .. (r + 1) * items - 1
    of the seed's item stream, so each place in a round keeps its family and
    stratum from round to round while random draws differ; without it,
    every round replays the first round's items. Each round runs on a fresh
    import of lindyn and freshly prepared state, so nothing one round
    computes or caches carries over to the next. Rounds start while, at the
    length of the last one, the next would end within the time."""
    rounds = []
    deadline = time.perf_counter() + seconds * (1.0 + ROUND_SLACK)
    last = 0.0
    while not rounds or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        state, elapsed = set_up_once(workload, seed)
        setup_times.append(elapsed)
        first = len(rounds) * workload.items if workload.redraw else 0
        inputs = [workload.inputs(state, first + i, TIMED) for i in range(workload.items)]
        gc.collect()
        records = []
        before = probe()
        for inp in inputs:
            elapsed, verdict = attempt(workload, state, inp)
            after = probe()
            records.append((elapsed, verdict, speed_factor(before, after)))
            before = after
        rounds.append(records)
        last = time.perf_counter() - t0
    return rounds


def latency_stats(latencies) -> dict:
    """Latency statistics over one latency in seconds per item."""
    lat_ms = sorted(1e3 * t for t in latencies)
    n = len(lat_ms)
    # the highest percentile with at least ten items beyond it; with fewer
    # than 22 items, the median
    tail_index = max(n - 11, (n - 1) // 2)
    return {
        "items": n,
        "items_per_s": n / sum(latencies),
        "p50": statistics.median(lat_ms),
        "tail": lat_ms[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
    }


def median_by_place(rounds, adjusted: bool = True) -> list:
    """Per place in the round, the median latency over the rounds, speed-
    adjusted or raw. A stretch of a run that the probes misjudge then moves
    no place's time, as long as it covers a minority of the rounds."""
    return [
        statistics.median(t * f if adjusted else t for t, _, f in copies)
        for copies in zip(*rounds)
    ]


def outcome(records) -> dict:
    verdicts = [record[1] for record in records]
    statuses: dict = {}
    for v in verdicts:
        statuses[v.status] = statuses.get(v.status, 0) + 1
    tight = [v.tightness for v in verdicts if v.tightness is not None]
    return {
        "attempted": len(verdicts),
        "failed": sum(n for status, n in statuses.items() if status in FAILED),
        "correct": statuses.get(UNSOUND, 0) == 0,
        "ok": statuses.get(OK, 0),
        "statuses": statuses,
        "tightness": tight,
        "failures": [v.detail for v in verdicts if v.status != OK][:20],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(workload, seed: int, seconds: float):
    state, setup_times = set_up(workload, seed)
    warm_up(workload, seed, state.lx)
    del state
    rounds = timed_rounds(workload, seed, seconds, setup_times)
    lat = latency_stats(median_by_place(rounds))
    raw = latency_stats(median_by_place(rounds, adjusted=False))
    res = outcome([record for records in rounds for record in records])
    tight = res["tightness"]
    values = {
        "setup_s": statistics.median(t * f for t, f in setup_times),
        "items_per_s": lat["items_per_s"],
        "item_ms.p50": lat["p50"],
        "item_ms.tail": lat["tail"],
        "ok_ratio": res["ok"] / res["attempted"],
        "tightness.p50": statistics.median(tight) if tight else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    items = f"{lat['items']} places, median of {len(rounds)} rounds each"
    not_ok = res["attempted"] - res["ok"]
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; raw "
                   f"{statistics.median(t for t, _ in setup_times):.4g} s",
        "items_per_s": f"{items}; raw {raw['items_per_s']:.4g} 1/s",
        "item_ms.p50": f"{items}; raw {raw['p50']:.4g} ms",
        "item_ms.tail": f"p{lat['tail_percentile']:.1f} of {items}; raw {raw['tail']:.4g} ms",
        "ok_ratio": f"fail_ratio {not_ok}/{res['attempted']} = "
                    f"{not_ok / res['attempted']:.4f}, {res['failed']} failed operations",
        "tightness.p50": f"{len(tight)} items with a certified ratio",
        "peak_rss_mb": "whole process",
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    res["round_ms"] = [[round(1e3 * t, 4) for t, _, _ in records] for records in rounds]
    res["round_speed"] = [[round(f, 4) for _, _, f in records] for records in rounds]
    res["setup_times_s"] = setup_times
    return metrics, notes, res


class LayerObservers:
    """Counts read from arguments and results at the wrapped boundaries."""

    def __init__(self):
        self.series_terms = 0
        self.eval_calls = 0
        self.fields: dict = {}

    def table(self) -> dict:
        return {
            "shadowing.series_constants": self.on_series_constants,
            "stability.ConjugacyField.eval": self.on_field_eval,
        }

    def on_series_constants(self, args, kwargs, result) -> None:
        self.series_terms += len(result.a_terms) + len(result.b_terms)

    def on_field_eval(self, args, kwargs, result) -> None:
        depth = args[2] if len(args) > 2 else kwargs["depth"]
        if depth >= 1:
            self.eval_calls += 1
            self.fields[id(args[0])] = args[0]

    def memo_entries(self) -> int:
        # lindyn keeps no public memo counter, so read the memo's size
        return sum(len(f._memo) for f in self.fields.values())


def layer_values(tracer: Tracer, obs: LayerObservers) -> dict:
    calls, inclusive, layer_self = tracer.summary()

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    solves = count("optim.AffineSupProblem.minimize", "optim.descend")
    values = {
        "linalg.DenseVector.calls": count("linalg.DenseVector.__init__"),
        "operators.apply.calls": sum(
            c for n, c in calls.items() if n.startswith("operators.") and n.endswith(".apply")
        ),
        "operators.monomial_power_sup.calls": count("operators.monomial_power_sup"),
        "splitting.spectral_split.calls": count("splitting.spectral_split"),
        "splitting.power_norm.calls": count("splitting.power_norm_S", "splitting.power_norm_U_inv"),
        "shadowing.series_constants.calls": count("shadowing.series_constants"),
        "shadowing.series_terms": obs.series_terms,
        "optim.line_minimize.calls": count("optim.line_minimize"),
        "optim.line_searches_per_solve": count("optim.line_minimize") / solves if solves else 0.0,
        "stability.gamma_eval.calls": count("stability.gamma_eval"),
        "stability.memo_hit_ratio": (
            1.0 - obs.memo_entries() / obs.eval_calls if obs.eval_calls else 0.0
        ),
    }
    for name in (
        "shadowing.generate_pseudo_orbit", "shadowing.shadow_splitting_series",
        "shadowing.shadow_window_solve", "shadowing.verify_shadow",
        "linf.linf_injectivity_margin", "linf.shad_estimate_linf",
    ):
        values[f"{name}.s"] = inclusive.get(name, 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return values


def run_traced(workload, seed: int, seconds: float):
    """The same fixed item list untraced, then traced, on fresh state each."""
    state, _ = set_up(workload, seed)
    lx = state.lx
    warm_up(workload, seed, lx)
    inputs = [workload.inputs(state, i, TIMED) for i in range(workload.trace_items)]

    untraced_state = workload.prepare(lx, seed)
    gc.collect()
    untraced = [attempt(workload, untraced_state, inp) for inp in inputs]

    traced_state = workload.prepare(lx, seed)
    obs = LayerObservers()
    tracer = Tracer("lindyn", LAYERS, obs.table())
    tracer.install()
    gc.collect()
    try:
        traced = []
        for i, inp in enumerate(inputs):
            tracer.item_id = i
            traced.append(attempt(workload, traced_state, inp, tracer))
    finally:
        tracer.uninstall()

    values = layer_values(tracer, obs)
    traced_rate = latency_stats([t for t, _ in traced])["items_per_s"]
    untraced_rate = latency_stats([t for t, _ in untraced])["items_per_s"]
    values["trace.items_per_s"] = traced_rate
    values["trace.untraced_items_per_s"] = untraced_rate
    values["trace.overhead"] = untraced_rate / traced_rate
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    notes = {name: f"{len(inputs)} items, {tracer.span_count} spans" for name in PER_LAYER}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")
    return metrics, notes, outcome(traced)


def report(workload_name: str, seed: int, trace: int, metrics: dict, notes: dict, res: dict) -> dict:
    env = environment(seed)
    print(f"# {workload_name} seed={seed} trace={trace} env={json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{workload_name} {name} = {m['value']:.6g} {m['unit']} ({notes[name]})")
    print(f"{workload_name} outcomes {json.dumps(res['statuses'], sort_keys=True)}"
          f" correct={res['correct']}")
    for detail in res["failures"]:
        print(f"{workload_name} failure: {detail}")
    OUT_DIR.mkdir(exist_ok=True)
    full = {"workload": workload_name, "trace": trace, "env": env, "metrics": metrics,
            "notes": notes, **{k: res[k] for k in ("correct", "attempted", "failed", "statuses",
                                                    "failures", "round_ms", "round_speed",
                                                    "setup_times_s")
                               if k in res}}
    path = OUT_DIR / f"report-{workload_name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, in turn; the summary sums counts."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric_name}"] = m
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        workload = WORKLOADS[args.workload]
        try:
            runner = run_traced if args.trace else run_timed
            metrics, notes, res = runner(workload, args.seed, args.seconds)
        except SourceMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        result = report(workload.name, args.seed, args.trace, metrics, notes, res)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
