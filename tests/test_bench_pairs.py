"""tools/bench_pairs.py runs each seed once per side, in rotating order."""

import importlib.util
import json
import os
from itertools import permutations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: it appends its side and arguments to
# the shared log one directory above its checkout, and writes a record as
# the real one does, into its own checkout's .perfbench/.
STUB = '''
import json, os, sys
checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(os.path.join(os.path.dirname(checkout), "order.log"), "a") as f:
    f.write(json.dumps([os.path.basename(checkout), args]) + "\\n")
names = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")
metrics = {name: {"value": 1.0, "unit": "x"} for name in names}
metrics["ops_per_s"]["value"] = {"change": 11.0}.get(
    os.path.basename(checkout), 10.0) + int(args["--seed"]) / 100
os.makedirs(os.path.join(checkout, ".perfbench"), exist_ok=True)
tag = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}"
with open(os.path.join(checkout, ".perfbench", tag + ".json"), "w") as f:
    json.dump({"workload": args["--workload"], "seed": int(args["--seed"]),
               "seconds": float(args["--seconds"]), "metrics": metrics,
               "digest": "d", "records": []}, f)
print("workload", args["--workload"])
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}))
'''


def stub_checkouts(tmp_path, sides):
    roots = {}
    for side in sides:
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
        roots[side] = str(tmp_path / side)
    return roots


def logged(tmp_path):
    with open(tmp_path / "order.log") as f:
        return [json.loads(line) for line in f]


def test_each_seed_runs_once_per_side_in_rotating_order(tmp_path):
    sides = ("parent", "change", "control")
    roots = stub_checkouts(tmp_path, sides)
    out = str(tmp_path / "BENCH_0.json")
    assert bench_pairs.main([
        "--parent", roots["parent"], "--change", roots["change"],
        "--control", roots["control"], "--workload", "roundtrip",
        "--seeds", "11-16", "--seconds", "2", "--pr", "0",
        "--claim", "roundtrip/ops_per_s", "--out", out]) == 0
    runs = logged(tmp_path)
    assert len(runs) == 18
    for side, args in runs:
        assert args["--workload"] == "roundtrip"
        assert (args["--seconds"], args["--trace"]) == ("2.0", "0")
    by_seed = {}
    for side, args in runs:
        by_seed.setdefault(int(args["--seed"]), []).append(side)
    assert sorted(by_seed) == list(range(11, 17))
    # Each seed's three runs are consecutive, and the six seeds take the
    # six orders of the sides, so each side goes first twice.
    assert [side for side, _ in runs] == [s for seed in sorted(by_seed)
                                          for s in by_seed[seed]]
    assert sorted(map(tuple, by_seed.values())) == sorted(permutations(sides))
    # Every side wrote into its own .perfbench/, and the fold paired them.
    for side in sides:
        assert len(os.listdir(os.path.join(roots[side], ".perfbench"))) == 6
    with open(out) as f:
        doc = json.load(f)
    pairs = doc["workloads"]["roundtrip"]["pairs"]
    assert len(pairs) == 6 and all("control" in p for p in pairs)
    assert doc["claim"]["change_wins"] == 6


def test_two_sides_alternate_over_workloads_and_seeds(tmp_path):
    roots = stub_checkouts(tmp_path, ("parent", "change"))
    assert bench_pairs.main([
        "--parent", roots["parent"], "--change", roots["change"],
        "--workload", "solve", "--workload", "check_small",
        "--seeds", "3-5", "--seconds", "1"]) == 0
    runs = [(side, args["--workload"], int(args["--seed"]))
            for side, args in logged(tmp_path)]
    assert runs == [
        ("parent", "solve", 3), ("change", "solve", 3),
        ("change", "solve", 4), ("parent", "solve", 4),
        ("parent", "solve", 5), ("change", "solve", 5),
        ("parent", "check_small", 3), ("change", "check_small", 3),
        ("change", "check_small", 4), ("parent", "check_small", 4),
        ("parent", "check_small", 5), ("change", "check_small", 5)]
    # Without --pr nothing is folded.
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_failed_run_stops_the_schedule(tmp_path, capsys):
    roots = stub_checkouts(tmp_path, ("parent", "change"))
    (tmp_path / "change" / "perfbench" / "run.py").write_text(
        "import sys\nsys.exit(3)\n")
    assert bench_pairs.main([
        "--parent", roots["parent"], "--change", roots["change"],
        "--workload", "solve", "--seeds", "1-4", "--seconds", "1"]) == 1
    assert len(logged(tmp_path)) == 1
    assert "change solve seed 1: failed" in capsys.readouterr().err
