"""Fold a change's benchmark runs, and its parent's, into BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --pr N --parent DIR --change DIR \
        [--control DIR] [--out PATH]

DIR is a `.perfbench` directory that `perfbench/run.py --trace 0` wrote
into, one for the parent commit's runs and one for the change's.  Runs
pair up by workload and seed: `<workload>-seed<S>-trace0.json` in both
directories is one pair.  Per pair the file keeps the seed and, per side,
the end-to-end metrics named in BENCHMARK.json, the digest of the op
records and the solver nodes per board family.  Per workload and metric
it keeps each side's median and quartiles, how many pairs the change won
and how many were ties.

The control is an A/A comparison: a second set of parent runs on the
same seeds, run in the same alternation as the change's.  A pair whose
seed has a control run keeps it as a third side, and each metric's
summary gets a `control` entry, the parent against the control as above
with `control_wins` in place of `change_wins`.  Identical code wins about
half of its pairs; a change's wins count for as much as they beat that.
Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def read_runs(directory):
    """{(workload, seed): record} for every untraced run in `directory`."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        match = RUN.match(os.path.basename(path))
        if match:
            with open(path) as f:
                runs[match["workload"], int(match["seed"])] = json.load(f)
    return runs


def nodes_by_family(records):
    """Solver nodes per board family, from op records of the form
    `[[index, family, status, nodes], ok]`; empty for a workload whose
    records have another form."""
    totals = {}
    for record, _ in records:
        if len(record) == 4 and isinstance(record[1], str) \
                and isinstance(record[3], int):
            totals[record[1]] = totals.get(record[1], 0) + record[3]
    return dict(sorted(totals.items()))


def side(run, names):
    """What a BENCH file keeps of one run."""
    return {"metrics": {name: run["metrics"][name]["value"] for name in names},
            "digest": run["digest"],
            "nodes_by_family": nodes_by_family(run["records"])}


def spread(values):
    """Median and quartiles; one value is all three."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compared(pairs, name, other, better):
    """Metric `name` of the parent against side `other` over `pairs`: each
    side's spread, how many pairs `other` won and how many were ties."""
    before = [p["parent"]["metrics"][name] for p in pairs]
    after = [p[other]["metrics"][name] for p in pairs]
    sign = 1 if better == "higher" else -1
    return {"parent": spread(before), other: spread(after),
            f"{other}_wins": sum(sign * (b - a) > 0
                                 for a, b in zip(before, after)),
            "ties": sum(a == b for a, b in zip(before, after))}


def fold(pr, parent, change, spec, control=None):
    """The BENCH document for the pairs that `parent` and `change`, two
    `read_runs` results, have in common, with the runs of `control`, a
    third, on their seeds."""
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, seed = key
        entry = workloads.setdefault(
            workload, {"seconds": parent[key]["seconds"], "pairs": []})
        pair = {"seed": seed, "parent": side(parent[key], metrics),
                "change": side(change[key], metrics)}
        if control and key in control:
            pair["control"] = side(control[key], metrics)
        entry["pairs"].append(pair)
    for entry in workloads.values():
        pairs = entry["pairs"]
        controlled = [p for p in pairs if "control" in p]
        summary = entry["summary"] = {}
        for name, better in metrics.items():
            summary[name] = {"better": better,
                             **compared(pairs, name, "change", better)}
            if controlled:
                summary[name]["control"] = compared(controlled, name,
                                                    "control", better)
    return {"pr": pr, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True,
                        help="the parent commit's .perfbench directory")
    parser.add_argument("--change", required=True,
                        help="the change's .perfbench directory")
    parser.add_argument("--control",
                        help="a .perfbench directory of parent runs "
                             "paired with --parent's on the same seeds")
    parser.add_argument("--out", help="default: BENCH_<pr>.json in the "
                                      "repository root")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    doc = fold(args.pr, read_runs(args.parent), read_runs(args.change), spec,
               args.control and read_runs(args.control))
    if not doc["workloads"]:
        print("no workload and seed has a run on both sides", file=sys.stderr)
        return 1
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for workload, entry in doc["workloads"].items():
        pairs = len(entry["pairs"])
        wins = ", ".join(f"{name} {s['change_wins']}/{pairs}"
                         for name, s in entry["summary"].items())
        print(f"{workload}: {pairs} pairs; change wins {wins}")
        controlled = sum("control" in p for p in entry["pairs"])
        if controlled:
            wins = ", ".join(f"{name} {s['control']['control_wins']}"
                             f"/{controlled}"
                             for name, s in entry["summary"].items())
            print(f"{workload}: control wins {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
