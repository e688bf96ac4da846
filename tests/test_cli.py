import copy
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindyn import DenseOp, cli, op_to_config, spectral_split, splitting
from lindyn.cli import (
    SUITES,
    TASKS,
    list_examples,
    load_scenario_file,
    main,
    run_scenario,
    run_suite,
)
from lindyn.errors import ConfigInvalid, LindynError, NotCertified
from lindyn.shadowing import WINDOW_SOLVE_MAX_LEN

from families import exact_linf_constant, late_tails

SADDLE_CFG = {
    "name": "unit-saddle",
    "operator": {"kind": "dense", "matrix": [[0.5, 0.0], [0.0, 2.0]], "norm": "linf"},
    "tasks": ["classify", "bounds"],
}


def test_run_scenario_classify_and_bounds():
    report = run_scenario(SADDLE_CFG)
    assert report["name"] == "unit-saddle"
    classify = report["tasks"]["classify"]
    assert classify["ok"]
    assert classify["result"]["class"] == "Hyperbolic"
    bounds = report["tasks"]["bounds"]
    assert bounds["ok"]
    assert abs(bounds["result"]["upper"] - 3.0) < 1e-9
    assert abs(bounds["result"]["lower"] - 2.0) < 1e-9


def test_run_scenario_records_task_failures():
    cfg = {
        "name": "boundary",
        "operator": {"kind": "diag", "rule": {"named": "approach_one"}, "norm": "l1"},
        "splitting": {"kind": "coordinate", "cutoff": 0},
        "tasks": ["bounds"],
    }
    report = run_scenario(cfg)
    task = report["tasks"]["bounds"]
    assert not task["ok"]
    assert task["error"] == "NOT_CERTIFIED"


def test_run_scenario_linf_estimate_stays_below_the_exact_constant():
    # a window_estimate random saddle on which the walked samples reported
    # 5.99996, inside bounds [4.485, 6.691] but above the exact 5.5106
    matrix = [
        [0.9839744608664207, -0.3771247957317838],
        [1.767914663080649, -2.4450312255367144],
    ]
    cfg = {
        "name": "random-saddle",
        "operator": {"kind": "dense", "matrix": matrix, "norm": "linf"},
        "tasks": ["linf", "bounds"],
        "parameters": {"linf_N": 32, "linf_samples": 6},
        "rng_seed": 0,
    }
    tasks = run_scenario(cfg)["tasks"]
    estimate = tasks["linf"]["result"]["shad_estimate"]
    exact = exact_linf_constant(np.array(matrix), spectral_split(DenseOp(matrix, "linf")).P_S)
    assert exact == pytest.approx(5.5106, abs=1e-4)
    assert estimate <= exact * (1.0 + 1e-9)
    assert estimate <= tasks["bounds"]["result"]["upper"]


def test_run_scenario_bounds_a_defective_eigenbasis():
    # the Jordan block's two eigenvectors agree to rounding; the bound once
    # came out ok at 2.5 against an exact linf constant of 6, then was
    # refused; the sign-function projection needs no eigenvectors, so the
    # split is certified and the bracket holds the exact 6
    matrix = [[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 3.0]]
    cfg = {
        "operator": {"kind": "dense", "matrix": matrix, "norm": "linf"},
        "tasks": ["classify", "bounds", "conjugacy"],
    }
    tasks = run_scenario(cfg)["tasks"]
    assert tasks["classify"]["result"]["class"] == "Hyperbolic"
    assert all(tasks[name]["ok"] for name in ("bounds", "conjugacy"))
    assert tasks["bounds"]["result"]["lower"] <= 6.0 <= tasks["bounds"]["result"]["upper"]


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("matrix", [[[0.5, 0.0], [0.0, 2.0]], [[0.0, -1.0], [1.0, 0.0]]])
def test_linf_task_ignores_linf_samples(matrix, norm):
    # the estimate's defect samples are fixed, so linf_samples is a key that
    # no task reads, with or without a split
    cfg = {
        "operator": {"kind": "dense", "matrix": matrix, "norm": norm},
        "tasks": ["linf"],
        "parameters": {"linf_N": 8},
    }
    with_samples = copy.deepcopy(cfg)
    with_samples["parameters"]["linf_samples"] = 6
    assert run_scenario(with_samples) == run_scenario(cfg)


SHADOW_CFG = {
    "name": "unit-saddle-shadow",
    "operator": {"kind": "dense", "matrix": [[0.5, 0.0], [0.0, 2.0]], "norm": "linf"},
    "splitting": {"kind": "spectral"},
    "tasks": ["shadow"],
}


def test_shadow_task_reports_the_window_bracket():
    methods = run_scenario(SHADOW_CFG)["tasks"]["shadow"]["result"]["methods"]
    window = methods["window_solve"]
    assert 0.0 <= window["lower"] <= window["sup_error"] <= methods["splitting_series"]["sup_error"]
    assert window["gap"] == window["sup_error"] - window["lower"]


def test_shadow_task_records_a_window_solve_refusal(monkeypatch):
    # one refusing method is recorded, as the series' are; the task still
    # succeeds on the others
    def refuse(op, po):
        raise NotCertified("window refused")

    monkeypatch.setattr(cli, "shadow_window_solve", refuse)
    task = run_scenario(SHADOW_CFG)["tasks"]["shadow"]
    assert task["ok"]
    methods = task["result"]["methods"]
    assert methods["window_solve"] == {"error": "NOT_CERTIFIED", "message": "window refused"}
    assert "sup_error" in methods["splitting_series"]


def test_gh_weighted_shift_witnesses_and_bounds():
    tasks = run_scenario(load_scenario_file("gh_weighted_shift"))["tasks"]
    e0 = {"entries": {"0": 1.0}, "norm": "l1"}
    assert tasks["classify"]["result"]["witness"] == e0
    assert tasks["homoclinic"]["result"] == {"verdict": "NontrivialHomoclinic", "witness": e0}
    bounds = tasks["bounds"]["result"]
    assert (bounds["lower"], bounds["upper"]) == (2.0, 3.0)
    # the only bundled shadow on a sequence operator, so on object arrays
    series = tasks["shadow"]["result"]["methods"]["splitting_series"]
    assert (series["constant_used"], series["sup_error"]) == (3.0, 0.00014820297883599273)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_homoclinic_task_refuses_features_past_any_horizon(tmp_path, capsys, norm):
    cfg = {
        "operator": op_to_config(late_tails(norm)),
        "splitting": {"kind": "coordinate", "cutoff": 0},
        "tasks": ["homoclinic"],
    }
    path = tmp_path / "item3.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    task = json.loads(capsys.readouterr().out)["tasks"]["homoclinic"]
    assert not task["ok"]
    assert task["error"] == "NOT_CERTIFIED"
    assert "modulus 1.5" in task["message"]


def test_a_scenario_builds_its_split_once(monkeypatch):
    # classify, bounds and shadow share the scenario's split, and with it
    # the memo of its sides, so each side is built once
    built = []
    init = splitting.RestrictedPowers.__init__

    def counted(self, op, split, side):
        built.append(side)
        init(self, op, split, side)

    monkeypatch.setattr(splitting.RestrictedPowers, "__init__", counted)
    tasks = run_scenario(load_scenario_file("gh_weighted_shift"))["tasks"]
    assert all(task["ok"] for task in tasks.values())
    assert sorted(built) == ["S", "U"]


def test_run_scenario_rejects_unknown_keys():
    bad = dict(SADDLE_CFG)
    bad["surprise"] = 1
    with pytest.raises(ConfigInvalid):
        run_scenario(bad)


def test_run_scenario_rejects_unknown_task():
    bad = dict(SADDLE_CFG)
    bad["tasks"] = ["classify", "astrology"]
    with pytest.raises(ConfigInvalid):
        run_scenario(bad)


def test_run_scenario_rejects_bool_seed():
    bad = dict(SADDLE_CFG)
    bad["rng_seed"] = True
    with pytest.raises(ConfigInvalid):
        run_scenario(bad)


def test_bundled_examples_present():
    names = list_examples()
    for expected in (
        "saddle_diag",
        "rotation",
        "gh_weighted_shift",
        "diagonal_sup_one",
        "rolewicz",
        "local_linearization",
    ):
        assert expected in names


@pytest.mark.parametrize("name", list_examples())
def test_bundled_scenario_ends_ok(name):
    tasks = run_scenario(load_scenario_file(name))["tasks"]
    assert tasks
    assert all(r["ok"] for r in tasks.values()), tasks


def test_load_scenario_by_bundled_name():
    cfg = load_scenario_file("rolewicz")
    assert cfg["tasks"] == ["hypercyclic"]


def test_main_run_bundled(capsys):
    assert main(["run", "rolewicz"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["tasks"]["hypercyclic"]["result"]
    assert result["criterion"]["visit_times"] == [25, 50, 75]


def test_expansivity_report_brackets_the_window_growth():
    cfg = load_scenario_file("saddle_diag")
    cfg["tasks"] = ["expansivity"]
    rows = run_scenario(cfg)["tasks"]["expansivity"]["result"]["window_growth"]
    # [N, lower, value]: the saddle's growth 2^N, with a closed bracket
    assert [n for n, _, _ in rows] == [1, 2, 4]
    for n, lower, value in rows:
        assert value == pytest.approx(2.0**n, rel=1e-12)
        assert lower <= value <= lower * (1.0 + 1e-9)


def test_main_exit_codes(tmp_path, capsys):
    # invalid file -> 2
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    # invalid json -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()


def test_main_failing_task_exits_3(tmp_path, capsys):
    cfg = {
        "name": "boundary",
        "operator": {"kind": "diag", "rule": {"named": "approach_one"}, "norm": "l1"},
        "splitting": {"kind": "coordinate", "cutoff": 0},
        "tasks": ["bounds"],
    }
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    capsys.readouterr()


def test_main_out_flag_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "rolewicz", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tasks"]["hypercyclic"]["ok"]
    # unwritable target -> 2
    assert main(["run", "rolewicz", "--out", str(tmp_path / "no" / "dir.json")]) == 2
    capsys.readouterr()


def test_suite_runner_clean(capsys):
    report = run_suite(seed=3, size=4)
    assert report["total_failures"] == 0
    assert {r["suite"] for r in report["suites"]} == set(SUITES)
    assert main(["suite", "--seed", "3", "--size", "2"]) == 0
    capsys.readouterr()


def test_suite_size_validation():
    with pytest.raises(ConfigInvalid):
        run_suite(seed=0, size=0)
    with pytest.raises(ConfigInvalid):
        run_suite(seed=0, size=100_000)
    with pytest.raises(ConfigInvalid):
        run_suite(seed=0, size=5, only="bogus")


@pytest.mark.parametrize(
    "task, params, code",
    [
        ("shadow", {"delta": "abc"}, 2),
        ("shadow", {"delta": -1}, 2),
        ("shadow", {"window": [5, 0]}, 2),
        ("shadow", {"window": [0, True]}, 2),
        ("linf", {"linf_N": 0}, 2),
        ("linf", {"linf_N": 5000}, 2),
        ("conjugacy", {"amplitude": "big"}, 2),
        ("conjugacy", {"radius": 0}, 2),
        ("conjugacy", {"map": "saddle_cubic", "box_radius": -1.0}, 2),
        ("conjugacy", {"map": "saddle_cubic", "tol": "small"}, 2),
        ("hypercyclic", {"eps": float("inf")}, 2),
        # the walk overflows: a coded task error, not a traceback
        ("shadow", {"window": [0, 100000]}, 3),
        # a longer window is refused before anything is allocated
        ("shadow", {"window": [0, 10**9]}, 2),
        ("shadow", {"seed_vector": {"coords": [1.0] * 40}}, 2),
    ],
)
def test_main_refuses_bad_parameters(tmp_path, capsys, task, params, code):
    cfg = dict(SADDLE_CFG, tasks=[task], parameters=params)
    if task == "hypercyclic":
        cfg["operator"] = {"kind": "backward_scaled", "factor": 2.0, "norm": "l1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("CONFIG_INVALID")
    else:
        assert json.loads(out)["tasks"][task]["error"] == "NON_FINITE"


# a stable Jordan block (spectral radius 0.99) whose powers pass the largest
# float at n = 23
OVERFLOWING_POWERS = [[0.99, 1e307], [0.0, 0.99]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_overflowing_powers_are_refused_under_every_norm(tmp_path, capsys, norm):
    # bounds once met a LinAlgError from an l2 norm of a non-finite power,
    # and under l1 and linf summed 10,000 non-finite terms before refusing;
    # under linf the expansivity LP's pricing overflowed with 66 warnings
    cfg = {
        "operator": {"kind": "dense", "matrix": OVERFLOWING_POWERS, "norm": norm},
        "tasks": ["bounds", "shadow", "expansivity"],
    }
    tasks = run_scenario(cfg)["tasks"]
    assert tasks["bounds"]["error"] == "NON_FINITE"
    growth = tasks["expansivity"]
    if growth["ok"]:
        assert all(1.0 <= lower <= value for _, lower, value in growth["result"]["window_growth"])
    else:
        assert growth["error"] in ("NON_FINITE", "NOT_CERTIFIED")
    assert tasks["shadow"]["message"] == (
        "no shadowing method succeeded out of "
        "[splitting_series: NOT_INVERTIBLE, window_solve: NON_FINITE]"
    )
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["tasks"]["bounds"]["error"] == "NON_FINITE"
    assert "Traceback" not in err


def _named_codes(cls=LindynError):
    """The codes of every subclass of cls, the generic ERROR left out."""
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub.code} | _named_codes(sub)
    return out


# Fuzz draws that leaked RuntimeWarnings: a huge entry (1e152 to 1e258)
# beside ordinary ones, or a tiny eigenvalue beside a large one.
WARNING_LEAKS = [
    # MatrixPowers' step product P @ M
    ([[0, -291.4405530031813], [92.41557210107459, 9.037118367375504e257]], "linf", "bounds"),
    # dense_eig's residual norm, a sum of squares past the largest float
    (
        [
            [0.21075092541857507, 5.538812856914726, -3.5597270543593074],
            [0.11013951108250891, 7.388167120670683e178, 1.8814525680856655],
            [4.7211786446790835, 4.6215816857691205, 0.0],
        ],
        "l2", "expansivity",
    ),
    # NormRatio's products in the growth descent
    (
        [
            [-481.9961704804045, 1.37768459507941, -18.464110899253356],
            [1.2668874467697018, 0.0, -0.0030926345095662073],
            [0.0016029168300779196, 1.5998254758064916e152, -0.4900770959589422],
        ],
        "l1", "expansivity",
    ),
    # min_max_norm's pieces and cuts in the window solve
    ([[625.7091194780229, -2.3626046444427056], [0, 1.5681419373451997e-226]], "l2", "shadow"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix, norm, task", WARNING_LEAKS)
def test_overflowing_draws_leak_no_warning(matrix, norm, task):
    cfg = {"operator": {"kind": "dense", "matrix": matrix, "norm": norm}, "tasks": [task]}
    result = run_scenario(cfg)["tasks"][task]
    assert result["ok"] or result["error"] in _named_codes()


# Singular, beside an entry of 9.6e208: the window solve is posed on the
# seed, and the smallest singular value of the stacked powers rounds to 0.
RANK_DEFICIENT = [
    [0.07278502216116363, 0.0010529515304291692, -1.2623538419083224],
    [0.0, 0.0, 9.576858641436269e208],
    [0.0, 0.0, 0.0],
]


@pytest.mark.parametrize("window", [[0, 3], [0, 60]])
def test_shadow_task_codes_a_rank_deficient_window(tmp_path, capsys, window):
    cfg = {
        "operator": {"kind": "dense", "matrix": RANK_DEFICIENT, "norm": "linf"},
        "tasks": ["shadow"],
        "parameters": {"window": window},
        "rng_seed": 69,
    }
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["tasks"]["shadow"]["message"] == (
        "no shadowing method succeeded out of "
        "[splitting_series: NOT_INVERTIBLE, window_solve: NOT_CERTIFIED]"
    )
    assert "Traceback" not in err


def test_window_solve_keeps_the_unscaled_solve_where_it_is_better():
    # the basis columns top out at 2.1e101 and 1.7e204; solved with them
    # scaled into [0.5, 1) alone, the window stopped at 1.16e94
    cfg = {
        "operator": {
            "kind": "dense",
            "matrix": [[-0.4912070649483007, 8.077111400460018e102], [-0.02588801453900706, 0.0]],
            "norm": "linf",
        },
        "tasks": ["shadow"],
        "parameters": {"window": [0, 3]},
        "rng_seed": 2,
    }
    window = run_scenario(cfg)["tasks"]["shadow"]["result"]["methods"]["window_solve"]
    assert 0.0 <= window["lower"] <= window["sup_error"] < 0.02


def _fuzz_draws(count):
    """count dense matrices from numpy seed 0: d = 2 or 3, entries
    +-10^U(-3, 3) with 20% zeros; after a plain draw, one with an entry of
    10^U(150, 308), an upper-triangular one with diagonal entries from
    {0.99, 1.01, 0.5, 2}, and one with an entry of 10^U(-320, -150)."""
    rng = np.random.default_rng(0)
    out = []
    for i in range(count):
        d = int(rng.integers(2, 4))
        m = rng.choice([-1.0, 1.0], (d, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (d, d))
        m[rng.random((d, d)) < 0.2] = 0.0
        if i % 4 == 1:
            m[rng.integers(d), rng.integers(d)] = 10.0 ** rng.uniform(150.0, 308.0)
        elif i % 4 == 2:
            m = np.triu(m)
            m[np.diag_indices(d)] = rng.choice([0.99, 1.01, 0.5, 2.0], d)
        elif i % 4 == 3:
            m[rng.integers(d), rng.integers(d)] = 10.0 ** rng.uniform(-320.0, -150.0)
        out.append((m.tolist(), ("l1", "l2", "linf")[i % 3], i))
    return out


# (matrix, norm, rng_seed): the first 24 draws, six of each form, with the
# rank-deficient hand case after the first eight; all six tasks on them
# take about 10 s
_DRAWS = _fuzz_draws(24)
FUZZ_DRAWS = [*_DRAWS[:8], (RANK_DEFICIENT, "linf", 69), *_DRAWS[8:]]
FUZZ_TASKS = ["classify", "bounds", "shadow", "linf", "expansivity", "conjugacy"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix, norm, rng_seed", FUZZ_DRAWS)
def test_seeded_fuzz_draws_end_ok_or_coded(matrix, norm, rng_seed):
    # each task alone, so one refusal cannot hide another task's escape
    for task in FUZZ_TASKS:
        cfg = {
            "operator": {"kind": "dense", "matrix": matrix, "norm": norm},
            "tasks": [task],
            "rng_seed": rng_seed,
        }
        result = run_scenario(cfg)["tasks"][task]
        assert result["ok"] or result["error"] in _named_codes(), (task, result)


SINGULAR_STABLE = [[1e-13, 1e-50, -1e-8], [0.0, 0.0, 1e308], [0.0, 0.0, -1e-20]]


@pytest.mark.parametrize(
    "operator, tasks, params, code",
    [
        # an integer JSON can hold but a float cannot
        ({"kind": "backward_scaled", "factor": 10**400}, ["hypercyclic"], {}, 2),
        ({"kind": "dense", "matrix": [1, 2]}, ["classify"], {}, 2),
        (
            {"kind": "compose", "factors": [
                {"kind": "dense", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
                {"kind": "dense", "matrix": [[2.0]]},
            ]},
            ["shadow"], {}, 2,
        ),
        ({"kind": "dense", "matrix": [[2.0]]}, ["conjugacy"], {"map": {}}, 2),
        # overflow, a singular matrix and an underflowing eigenvalue angle
        # end in coded task errors
        ({"kind": "diag", "rule": {"neg_and_zero": 1e308, "pos": 1e-200}}, ["bounds"], {}, 3),
        ({"kind": "diag", "rule": {"neg_and_zero": -1e-161, "pos": 2.0}}, ["homoclinic"], {}, 3),
        (
            {"kind": "dense", "matrix": SINGULAR_STABLE},
            ["conjugacy"], {}, 3,
        ),
        (
            {"kind": "dense", "matrix": [[1e308, 1e308], [[1.8, -1e-38], 1e-272]]},
            ["classify"], {}, 3,
        ),
        # a singular matrix has no inverse for its unstable side
        ({"kind": "dense", "matrix": [[0, 5, 0], [0, 0, 0], [0, 0, 3]]}, ["bounds"], {}, 3),
        # a singular matrix split exactly, every eigenvalue stable
        ({"kind": "dense", "matrix": SINGULAR_STABLE}, ["conjugacy", "classify"], {}, 3),
    ],
)
def test_main_codes_malformed_and_overflowing_operators(
    tmp_path, capsys, operator, tasks, params, code
):
    cfg = {"operator": dict(operator, norm="l1"), "tasks": tasks, "parameters": params}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == code
    capsys.readouterr()


def test_conjugacy_task_names_a_singular_operator_as_classify_does(tmp_path, capsys):
    # the missing inverse is named, not the Picard factor of 9.6e305
    cfg = {
        "operator": {"kind": "dense", "matrix": SINGULAR_STABLE, "norm": "l1"},
        "tasks": ["conjugacy", "classify"],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert tasks["conjugacy"]["error"] == tasks["classify"]["error"] == "NOT_INVERTIBLE"


# a 9x9 diagonal saddle, one dimension past the window solve
NINE_SADDLE = [[(0.5 if i < 4 else 2.0) if i == j else 0.0 for j in range(9)] for i in range(9)]


@pytest.mark.parametrize(
    "matrix, params, location",
    [
        # the margin descent once ran 5 s before the window solve refused
        # the 601-point window with a traceback
        ([[0.5, 0.0], [0.0, 2.0]], {"linf_N": 300}, "$.parameters.linf_N"),
        (NINE_SADDLE, {"linf_N": 2}, "$.operator"),
        # the first window past the cap, on an operator without a split
        ([[0.0, -1.0], [1.0, 0.0]], {"linf_N": 256}, "$.parameters.linf_N"),
    ],
)
def test_linf_task_refuses_what_the_window_solve_cannot_take(
    tmp_path, capsys, matrix, params, location
):
    cfg = {
        "operator": {"kind": "dense", "matrix": matrix, "norm": "linf"},
        "tasks": ["linf"],
        "parameters": params,
    }
    path = tmp_path / "linf.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_INVALID") and f"(at {location})" in err


def test_linf_task_codes_an_overflowing_dense_composition(tmp_path, capsys):
    # the product overflowed inside the margin's eigen solve, a traceback
    factors = [
        {"kind": "dense", "matrix": [[0.0, 0.0], [1e308, 0.0]]},
        {"kind": "dense", "matrix": [[0.0, 2.0], [0.0, 0.0]]},
    ]
    cfg = {"operator": {"kind": "compose", "factors": factors, "norm": "l1"}, "tasks": ["linf"]}
    path = tmp_path / "linf.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["tasks"]["linf"]["error"] == "NON_FINITE"


BIG_DIAGONAL = [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "operator, task, error, seconds",
    [
        # series horizons of 533 and 88 steps: each Picard level walks both
        # at every point of both, so a query ran for minutes unbudgeted
        (
            {"matrix": [[3.8e-70, 1.31], [[-8.1e-150, -1.0], [0.617, 1.7e-190]]], "norm": "linf"},
            "conjugacy", "TRAJECTORY_BUDGET", 10.0,
        ),
        # overflowing powers once sent the window growth descent on for 20 s
        ({"matrix": BIG_DIAGONAL, "norm": "l1"}, "expansivity", "NON_FINITE", 1.0),
        ({"matrix": BIG_DIAGONAL, "norm": "l2"}, "expansivity", "NON_FINITE", 1.0),
        ({"matrix": BIG_DIAGONAL, "norm": "linf"}, "expansivity", "NON_FINITE", 1.0),
        # the margin descent once ran its whole course on overflowing powers,
        # then the defect samples overflowed with RuntimeWarnings
        pytest.param(
            {"matrix": [[1e308, [0.298, 1.824]], [1e308, [0.298, 1.824]]], "norm": "linf"},
            "linf", "NON_FINITE", 0.1,
            marks=pytest.mark.filterwarnings("error"),
        ),
    ],
)
def test_main_refuses_runaway_work_quickly(tmp_path, capsys, operator, task, error, seconds):
    cfg = {"operator": dict(operator, kind="dense"), "tasks": [task]}
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 3
    assert time.perf_counter() - t0 < seconds
    assert json.loads(capsys.readouterr().out)["tasks"][task]["error"] == error


# Scenarios for the exit-code fuzz test: well-typed ones with common and
# borderline values (zero, unit weights, nan, overflow), half of them with
# one number or string at any depth replaced by a wrongly typed value. Only
# the number of examples and the sizes that set a task's running time
# (windows, linf_N, suite size, matrix side) are kept small,
# so that the test fits tier-1 time. The rare large ones (a 9x9 saddle, a
# linf_N past its cap) are refused before any work; linf_samples, large or
# not, is a key that no task reads.
JUNK = st.sampled_from([None, True, "x", [], {}, [1, 2, 3]])


def rarely(common, rare, odds: int = 5):
    """common, or one time in odds rare."""
    return st.integers(1, odds).flatmap(lambda k: rare if k == 1 else common)


SCALAR = rarely(
    st.floats(-3.0, 3.0) | st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.sampled_from([0.0, 1.0, 1e-200, 1e308, float("nan"), 10**400]),
)
NUMBER = rarely(
    st.floats(1e-3, 2.0) | st.integers(1, 3),
    st.sampled_from([0, -1.0, 1e-300, 1e308, float("inf"), float("nan")]),
)
COUNT = rarely(st.integers(1, 2), st.sampled_from([0, -1]))
INDEX = st.sampled_from(["0", "1", "-2"])
RULE = st.one_of(
    st.fixed_dictionaries({"named": st.just("approach_one")}),
    st.fixed_dictionaries(
        {"table": st.dictionaries(INDEX, SCALAR, max_size=2), "default": SCALAR}
    ),
    st.fixed_dictionaries({"neg_and_zero": SCALAR, "pos": SCALAR}),
)
MATRIX = rarely(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.lists(SCALAR, min_size=d, max_size=d), min_size=d, max_size=d)
    ),
    st.lists(st.lists(SCALAR, max_size=3), max_size=3)
    | st.sampled_from([[[0.5] * 33] * 33, NINE_SADDLE]),
)
LEAF = st.one_of(
    st.fixed_dictionaries({"kind": st.just("dense"), "matrix": MATRIX}),
    st.fixed_dictionaries({"kind": st.just("diag"), "rule": RULE}),
    st.fixed_dictionaries({"kind": st.just("shift"), "offset": st.integers(-2, 2)}),
    st.fixed_dictionaries({"kind": st.just("backward_scaled"), "factor": SCALAR}),
)
COMPOSE = st.fixed_dictionaries({"kind": st.just("compose"), "factors": st.lists(LEAF, max_size=2)})
OPERATOR = st.tuples(LEAF | COMPOSE, st.sampled_from(["l1", "l2", "linf"])).map(
    lambda pair: dict(pair[0], norm=pair[1])
)
PARAMETERS = st.fixed_dictionaries(
    {},
    optional={
        "delta": NUMBER,
        "window": st.lists(st.integers(-3, 40), min_size=2, max_size=2),
        "seed_vector": st.one_of(
            st.fixed_dictionaries({"coords": st.lists(SCALAR, max_size=4)}),
            st.just({"coords": [1.0] * 40}),
            st.fixed_dictionaries({"entries": st.dictionaries(INDEX, SCALAR, max_size=2)}),
        ),
        "linf_N": rarely(COUNT, st.just(WINDOW_SOLVE_MAX_LEN // 2 - 1)).map(lambda n: n + 1),
        "linf_samples": rarely(COUNT, st.just(1025)),
        "eps": NUMBER,
        "map": st.just("saddle_cubic"),
        "box_radius": NUMBER,
        "tol": NUMBER,
        "amplitude": NUMBER,
        "radius": NUMBER,
        "suite": st.sampled_from(SUITES),
        "size": COUNT,
    },
)
WELL_TYPED = st.fixed_dictionaries(
    {"operator": OPERATOR, "tasks": st.lists(st.sampled_from(TASKS), min_size=1, max_size=3)},
    optional={
        "splitting": st.one_of(
            st.fixed_dictionaries({"kind": st.just("coordinate"), "cutoff": st.integers(-2, 2)}),
            st.fixed_dictionaries({"kind": st.just("spectral"), "gap": NUMBER}),
        ),
        "parameters": PARAMETERS,
        "rng_seed": st.integers(0, 2**40),
    },
)


def _leaves(node, path=()):
    """The path of every value under node that is not a dict or a list."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, (*path, i))
    else:
        yield path


def _replace(node, path, value):
    if not path:
        return value
    out = copy.copy(node)
    out[path[0]] = _replace(node[path[0]], path[1:], value)
    return out


def _mutate(cfg):
    """cfg with one number or string, at any depth, replaced by a wrongly
    typed value."""
    return st.tuples(st.sampled_from(list(_leaves(cfg))), JUNK).map(
        lambda pair: _replace(cfg, *pair)
    )


def _linf_scenario(matrix, **params):
    return {
        "operator": {"kind": "dense", "matrix": matrix, "norm": "linf"},
        "tasks": ["linf"],
        "parameters": params,
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=WELL_TYPED | WELL_TYPED.flatmap(_mutate))
# the rare draws past the linf task's caps, each at least once, and the
# rare linf_samples
@example(cfg=_linf_scenario(NINE_SADDLE, linf_N=2))
@example(cfg=_linf_scenario([[0.5, 0.0], [0.0, 2.0]], linf_N=WINDOW_SOLVE_MAX_LEN // 2))
@example(cfg=_linf_scenario([[0.5, 0.0], [0.0, 2.0]], linf_samples=1025))
def test_main_exit_codes_on_mutated_scenarios(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) in (0, 2, 3)
