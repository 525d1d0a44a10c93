"""tools/bench_record.py folds benchmark records into one BENCH file."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

NAMES = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")


def write_run(directory, workload, seed, ops_per_s, records):
    """A record in the form `perfbench/run.py --trace 0` writes, with every
    metric but `ops_per_s` at 1."""
    os.makedirs(directory, exist_ok=True)
    metrics = {name: {"value": 1.0, "unit": "x"} for name in NAMES}
    metrics["ops_per_s"]["value"] = ops_per_s
    with open(os.path.join(directory,
                           f"{workload}-seed{seed}-trace0.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": 2.0,
                   "metrics": metrics, "digest": f"d{seed}",
                   "records": records}, f)


def test_pairs_fold_by_workload_and_seed(tmp_path):
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    solved = [[[0, "nl_a", "unsat", 5], True],
              [[1, "nl_a", "solved", 7], True],
              [[2, "wd_b", "solved", 11], True]]
    for seed, before, after in ((1, 100.0, 110.0), (2, 100.0, 90.0),
                                (3, 120.0, 130.0)):
        write_run(parent, "solve", seed, before, solved)
        write_run(change, "solve", seed, after, solved[:2])
    write_run(parent, "check_small", 1, 5.0, [[[0, None, None], True]])
    write_run(change, "check_small", 1, 5.0, [[[0, None, None], True]])
    # A seed run on one side only pairs with nothing.
    write_run(change, "solve", 9, 1.0, solved)
    out = str(tmp_path / "BENCH_0.json")
    assert bench_record.main(["--pr", "0", "--parent", parent,
                              "--change", change, "--out", out]) == 0
    with open(out) as f:
        doc = json.load(f)
    assert doc["pr"] == 0
    assert sorted(doc["workloads"]) == ["check_small", "solve"]
    solve = doc["workloads"]["solve"]
    assert [p["seed"] for p in solve["pairs"]] == [1, 2, 3]
    first = solve["pairs"][0]
    assert first["parent"]["nodes_by_family"] == {"nl_a": 12, "wd_b": 11}
    assert first["change"]["nodes_by_family"] == {"nl_a": 12}
    assert first["parent"]["digest"] == "d1"
    assert sorted(first["change"]["metrics"]) == sorted(NAMES)
    ops = solve["summary"]["ops_per_s"]
    assert (ops["change_wins"], ops["ties"]) == (2, 0)
    assert ops["parent"] == {"median": 100.0, "q1": 100.0, "q3": 110.0}
    assert ops["change"]["median"] == 110.0
    # A lower-is-better metric that did not move: all ties, no wins.
    assert solve["summary"]["setup_s"]["change_wins"] == 0
    assert solve["summary"]["setup_s"]["ties"] == 3
    small = doc["workloads"]["check_small"]
    assert small["pairs"][0]["parent"]["nodes_by_family"] == {}
    assert small["summary"]["ops_per_s"]["parent"] == \
        {"median": 5.0, "q1": 5.0, "q3": 5.0}


def test_control_runs_fold_into_each_summary(tmp_path, capsys):
    parent, change, control = (str(tmp_path / side)
                               for side in ("parent", "change", "control"))
    for seed, before, after, again in ((1, 100.0, 120.0, 101.0),
                                       (2, 100.0, 130.0, 99.0),
                                       (3, 110.0, 125.0, 120.0)):
        for directory, ops_per_s in ((parent, before), (change, after),
                                     (control, again)):
            write_run(directory, "check_small", seed, ops_per_s, [])
    # A control run on a seed the change did not run is in no pair, and a
    # workload with no control run gets no control entry.
    write_run(control, "check_small", 4, 500.0, [])
    write_run(parent, "solve", 1, 1.0, [])
    write_run(change, "solve", 1, 2.0, [])
    out = str(tmp_path / "BENCH_0.json")
    assert bench_record.main(["--pr", "0", "--parent", parent,
                              "--change", change, "--control", control,
                              "--out", out]) == 0
    with open(out) as f:
        doc = json.load(f)
    small = doc["workloads"]["check_small"]
    assert [p["seed"] for p in small["pairs"]] == [1, 2, 3]
    assert small["pairs"][1]["control"]["metrics"]["ops_per_s"] == 99.0
    ops = small["summary"]["ops_per_s"]
    assert (ops["change_wins"], ops["ties"]) == (3, 0)
    assert ops["control"] == {
        "parent": {"median": 100.0, "q1": 100.0, "q3": 105.0},
        "control": {"median": 101.0, "q1": 100.0, "q3": 110.5},
        "control_wins": 2, "ties": 0}
    # Metrics that did not move: every control pair a tie.
    assert small["summary"]["setup_s"]["control"]["ties"] == 3
    assert all("control" in s for s in small["summary"].values())
    solve = doc["workloads"]["solve"]
    assert "control" not in solve["pairs"][0]
    assert not any("control" in s for s in solve["summary"].values())
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "control" in line] == [
        "check_small: control wins setup_s 0/3, ops_per_s 2/3, "
        "op_ms_p50 0/3, op_ms_p90 0/3, peak_rss_mb 0/3"]


def test_no_common_run_exits_1(tmp_path, capsys):
    write_run(str(tmp_path / "parent"), "solve", 1, 1.0, [])
    assert bench_record.main(["--pr", "0",
                              "--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change"),
                              "--out", str(tmp_path / "out.json")]) == 1
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def fold_claim(tmp_path, sides, claim="solve/ops_per_s"):
    """Write each side's `ops_per_s` per seed, fold them with `claim` and
    return the BENCH file's claim entry and the printed claim line."""
    for name, values in sides.items():
        for seed, ops_per_s in enumerate(values, 1):
            write_run(str(tmp_path / name), "solve", seed, ops_per_s, [])
    out = str(tmp_path / "BENCH_0.json")
    argv = ["--pr", "0", "--out", out, "--claim", claim]
    for name in sides:
        argv += [f"--{name}", str(tmp_path / name)]
    assert bench_record.main(argv) == 0
    with open(out) as f:
        return json.load(f)["claim"]


PARENT = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]


def test_identical_sides_never_hold_a_claim(tmp_path, capsys):
    entry = fold_claim(tmp_path, {"parent": PARENT, "change": PARENT,
                                  "control": PARENT})
    assert entry == {"workload": "solve", "metric": "ops_per_s",
                     "change_wins": 0, "pairs": 10, "median_margin": 0.0,
                     "parent_spread": 3.5, "control_margin": 0.0,
                     "holds": False}
    assert capsys.readouterr().out.splitlines()[-1] == (
        "claim solve/ops_per_s: change wins 0/10, median margin +0, "
        "parent spread 3.5, control margin 0: does not hold")


def test_a_ten_percent_gain_holds(tmp_path, capsys):
    entry = fold_claim(tmp_path, {
        "parent": PARENT, "change": [1.1 * v for v in PARENT],
        "control": [v + 0.5 for v in PARENT]})
    assert (entry["change_wins"], entry["pairs"]) == (10, 10)
    assert entry["median_margin"] > entry["parent_spread"] == 3.5
    assert entry["control_margin"] == 0.5
    assert entry["holds"] is True
    assert capsys.readouterr().out.splitlines()[-1].endswith(": holds")


def test_a_margin_within_the_controls_does_not_hold(tmp_path):
    """A change that wins every pair by more than the parent's spread
    still does not hold when the control moved further on identical
    code."""
    change = [v + 5.0 for v in PARENT]
    assert fold_claim(tmp_path / "alone", {"parent": PARENT,
                                           "change": change})["holds"]
    entry = fold_claim(tmp_path / "controlled", {
        "parent": PARENT, "change": change,
        "control": [v + 6.0 for v in PARENT]})
    assert entry["change_wins"] == 10
    assert entry["median_margin"] == 5.0 > entry["parent_spread"]
    assert entry["control_margin"] == 6.0
    assert entry["holds"] is False


def test_ties_count_for_neither_side_of_a_claim(tmp_path):
    """Nine wins and one tie hold; eight wins, a tie and a loss do not."""
    change = [v + 5.0 for v in PARENT]
    change[0] = PARENT[0]
    assert fold_claim(tmp_path / "one_tie", {"parent": PARENT,
                                             "change": change})["holds"]
    change[1] = PARENT[1] - 1.0
    entry = fold_claim(tmp_path / "and_a_loss", {"parent": PARENT,
                                                 "change": change})
    assert (entry["change_wins"], entry["holds"]) == (8, False)


def test_lower_is_better_claims_read_the_margin_downwards():
    """Where lower is better the margin is the parent's median less the
    change's."""
    def doc(change_median):
        return {"workloads": {"solve": {"pairs": [{}] * 10, "summary": {
            "op_ms_p50": {"better": "lower", "change_wins": 10,
                          "parent": {"median": 1.0, "q1": 0.95, "q3": 1.05},
                          "change": {"median": change_median}}}}}}
    faster = bench_record.claim(doc(0.8), "solve", "op_ms_p50")
    assert faster["median_margin"] == pytest.approx(0.2)
    assert faster["control_margin"] is None and faster["holds"]
    slower = bench_record.claim(doc(1.2), "solve", "op_ms_p50")
    assert slower["median_margin"] == pytest.approx(-0.2)
    assert not slower["holds"]


def test_a_claim_on_a_metric_without_pairs_exits_1(tmp_path, capsys):
    for name in ("parent", "change"):
        write_run(str(tmp_path / name), "solve", 1, 1.0, [])
    assert bench_record.main(["--pr", "0", "--parent",
                              str(tmp_path / "parent"), "--change",
                              str(tmp_path / "change"), "--claim",
                              "roundtrip/ops_per_s", "--out",
                              str(tmp_path / "out.json")]) == 1
    assert "roundtrip/ops_per_s" in capsys.readouterr().err
