import json

import pytest

from lindyn.cli import (
    SUITES,
    list_examples,
    load_scenario_file,
    main,
    run_scenario,
    run_suite,
)
from lindyn.errors import ConfigInvalid

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


def test_load_scenario_by_bundled_name():
    cfg = load_scenario_file("rolewicz")
    assert cfg["tasks"] == ["hypercyclic"]


def test_main_run_bundled(capsys):
    assert main(["run", "rolewicz"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["tasks"]["hypercyclic"]["result"]
    assert result["criterion"]["visit_times"] == [25, 50, 75]


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
        ("linf", {"linf_samples": 0}, 2),
        ("linf", {"linf_N": 5000}, 2),
        ("conjugacy", {"amplitude": "big"}, 2),
        ("conjugacy", {"radius": 0}, 2),
        ("conjugacy", {"map": "saddle_cubic", "box_radius": -1.0}, 2),
        ("conjugacy", {"map": "saddle_cubic", "tol": "small"}, 2),
        ("hypercyclic", {"eps": float("inf")}, 2),
        # the walk overflows: a coded task error, not a traceback
        ("shadow", {"window": [0, 100000]}, 3),
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
