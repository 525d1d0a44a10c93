"""tools/bench_record.py folds benchmark records into one BENCH file."""

import importlib.util
import json
import os

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
