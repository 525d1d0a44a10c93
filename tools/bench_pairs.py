"""Run the benchmark in two or three checkouts in turns, one run per seed.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent DIR --change DIR [--control DIR] \
        --workload W [--workload W ...] --seeds FIRST-LAST --seconds N \
        [--pr N [--claim WORKLOAD/METRIC] [--out PATH]]

DIR is the root of a checkout: the parent commit's, the change's, and for
an A/A control a second copy of the parent's.  Per workload and seed,
each side runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once, from its own root, so that its record lands in its own
`.perfbench/`.  The sides take turns going first: a workload's k-th seed
runs them in the k-th of their orders, both orders for two sides and all
six for three, so over a multiple of that many seeds each side runs
first, and last, equally often.  A run that exits non-zero or reports an
incorrect output stops the schedule.  With --pr the seed range must hold
a multiple of that many seeds, and `tools/bench_record.py` then folds the
sides' `.perfbench/` directories, with --claim and --out passed through.
Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return seeds


def schedule(sides, workloads, seeds):
    """(workload, seed, side) in run order: per seed every side once, in
    the seed's turn of the sides' orders."""
    orders = list(itertools.permutations(sides))
    return [(workload, seed, side)
            for workload in workloads
            for k, seed in enumerate(seeds)
            for side in orders[k % len(orders)]]


def run_one(root, workload, seed, seconds):
    """Run one benchmark in checkout `root`; its summary line, or None."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return None
    last = json.loads(lines[-1])
    return last if last.get("correct") is True else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the parent commit's checkout")
    parser.add_argument("--change", required=True,
                        help="the change's checkout")
    parser.add_argument("--control", help="a second checkout of the parent")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        metavar="FIRST-LAST")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pr", type=int,
                        help="fold the runs into BENCH_<pr>.json")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    if args.control:
        roots["control"] = args.control
    orders = math.factorial(len(roots))
    if args.pr is not None and len(args.seeds) % orders:
        parser.error(f"--pr needs a number of seeds that is a multiple of "
                     f"{orders}, so each side runs in each order equally "
                     f"often; got {len(args.seeds)}")
    for workload, seed, side in schedule(list(roots), args.workload,
                                         args.seeds):
        last = run_one(roots[side], workload, seed, args.seconds)
        if last is None:
            print(f"{side} {workload} seed {seed}: failed", file=sys.stderr)
            return 1
        print(f"{side} {workload} seed {seed}: ops_per_s "
              f"{last['metrics']['ops_per_s']['value']:.6g}", flush=True)
    if args.pr is None:
        return 0
    fold = [sys.executable, os.path.join(ROOT, "tools", "bench_record.py"),
            "--pr", str(args.pr)]
    for side, root in roots.items():
        fold += [f"--{side}", os.path.join(root, ".perfbench")]
    if args.claim:
        fold += ["--claim", args.claim]
    if args.out:
        fold += ["--out", args.out]
    return subprocess.run(fold).returncode


if __name__ == "__main__":
    sys.exit(main())
