"""Benchmark for the watarilink library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip|solve|check_small \
        --seed N --seconds S --trace 0|1

The library is imported from `src/` of the same checkout.  Each workload
builds its inputs from the seed and runs whole passes over its op list, one
op at a time (a closed loop with one client).  With --trace 0 the S seconds
are split over SEGMENTS fresh worker processes, run one after another, and
the end-to-end metrics are printed; with --trace 1 one process runs
untraced passes, then traced passes over the same ops, and prints the
per-layer metrics and the tracing overhead.  Times are scaled to the
reference machine speed (see `reference.py`).  Metric names and units come
from BENCHMARK.json.  The last line of output is one JSON object; the full
record, including per-op outcomes and spans, goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from reference import REFERENCE_MS, kernel_ms
from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 21
# Each process gets its own memory layout, and with it a speed of its own
# that lasts for its lifetime: the same 12x12 round trip took 1.8 s in one
# fresh process and 2.4 s in the next.  The median over several processes
# evens that out.
SEGMENTS = 12
REF_EVERY_S = 0.05      # the reference kernel runs at most this often,
REF_BURST_S = 0.3       # three times in a row after a gap this long,
REF_WINDOW_S = 0.25     # and its runs this close to an op scale the op
# In an untraced run, an op shorter than this runs up to REPEATS times in a
# row within a pass, and its time in the pass is the median of those runs:
# a millisecond op timed once is at the mercy of one collection or one
# interrupt.
SHORT_OP_MS = 10
REPEATS = 5

# Kernel runs before and after the import time its interpreter's speed.
IMPORT_PROBE = (
    "import statistics, sys, time; sys.path.append(sys.argv[1]); "
    "from reference import kernel_ms; kernel_ms(); "
    "ref = [kernel_ms() for _ in range(3)]; t = time.perf_counter(); "
    "import watarilink, watarilink.cli; s = time.perf_counter() - t; "
    "ref += [kernel_ms() for _ in range(3)]; "
    "print(s, statistics.median(ref), watarilink.__file__)")


def load_library():
    """Import the library from this checkout's src/, or stop."""
    if not os.path.isfile(os.path.join(SRC, "watarilink", "__init__.py")):
        sys.exit("perfbench: no library source under src/watarilink")
    sys.path.insert(0, SRC)
    import watarilink
    import watarilink.cli
    import watarilink.render
    if not os.path.abspath(watarilink.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported {watarilink.__file__}, not src/")
    return watarilink


def measure_setup():
    """Median time, at reference speed, to import the package and its CLI
    in a fresh interpreter; the first import, which writes bytecode, is not
    counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE],
                             env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=60)
        seconds, ref_ms, path = out.stdout.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            sys.exit(f"perfbench: fresh interpreter imported {path}")
        if i:
            times.append(float(seconds) * REFERENCE_MS / float(ref_ms))
    return statistics.median(times)


def percentile(sorted_ms, share):
    """Nearest-rank percentile, so a failed op (infinite) is never averaged."""
    return sorted_ms[max(0, math.ceil(share * len(sorted_ms)) - 1)]


class Loop:
    """Ops one at a time, in list order from op `first` on and round again,
    in chunks of `chunk` ops: at least one chunk, and another only while it
    is expected to end within `seconds`.  A chunk of the whole list is a
    pass, which times every op equally often.  The reference kernel runs
    between ops."""

    def __init__(self, workload, seconds, tracer=None, repeats=1, first=0,
                 chunk=None):
        n = len(workload.ops)
        chunk = chunk or n
        self.ms = [[] for _ in range(n)]    # per run of each op; inf: failed
        self.when = [[] for _ in range(n)]  # (start, end) ns per run
        self.ref = []           # (time ns, kernel ms) per kernel run
        self.records = [None] * n   # (outcome, ok) of each op's first run
        self.failed = []        # (op record, reason) of failed first runs
        done = 0
        start = time.perf_counter()
        while True:
            for _ in range(chunk):
                self._reference()
                self._one(workload, (first + done) % n, tracer, repeats)
                done += 1
            elapsed = time.perf_counter() - start
            if elapsed * (done + chunk) / done > seconds:
                break
        self._reference(force=True)
        ref_at = [t for t, _ in self.ref]
        self.scaled = [
            [ms * REFERENCE_MS / self._kernel_near(ref_at, t0, t1)
             for ms, (t0, t1) in zip(runs, when)]
            for runs, when in zip(self.ms, self.when)]

    def payload(self):
        """What the parent process needs of this loop, as JSON values."""
        return json.loads(json.dumps({
            "scaled": [[m if m != math.inf else None for m in runs]
                       for runs in self.scaled],
            "wall": [[m if m != math.inf else None for m in runs]
                     for runs in self.ms],
            "kernel_ms": [m for _, m in self.ref],
            "records": self.records, "failed": self.failed,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024}))

    def _reference(self, force=False):
        now = time.perf_counter_ns()
        gap = (now - self.ref[-1][0]) / 1e9 if self.ref else math.inf
        if force or gap >= REF_EVERY_S:
            for _ in range(3 if force or gap >= REF_BURST_S else 1):
                ms = kernel_ms()
                self.ref.append((time.perf_counter_ns(), ms))

    def _kernel_near(self, ref_at, t0, t1):
        """Median kernel time over the runs within REF_WINDOW_S of the op,
        and at least the last run before it and the first after it."""
        window = int(REF_WINDOW_S * 1e9)
        lo = min(bisect.bisect_left(ref_at, t0 - window),
                 bisect.bisect_left(ref_at, t0) - 1)
        hi = max(bisect.bisect_right(ref_at, t1 + window),
                 bisect.bisect_right(ref_at, t1) + 1)
        return statistics.median(m for _, m in self.ref[max(lo, 0):hi])

    def _one(self, workload, i, tracer, repeats):
        op = workload.ops[i]
        times = []
        start = time.perf_counter_ns()
        while True:
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = workload.run(op)
                else:
                    with tracer.span("op"):
                        out = workload.run(op)
            # Any error is the op's outcome: counted and named, not fatal.
            except (Exception, SystemExit) as exc:
                ok, record = False, (op[0], type(exc).__name__)
                reason = f"{type(exc).__name__}: {exc}"
                break
            t1 = time.perf_counter_ns()
            times.append((t1 - t0) / 1e6)
            if len(times) == repeats or times[-1] >= SHORT_OP_MS:
                ok, record, reason = workload.check(op, out)
                break
        self.ms[i].append(statistics.median(times) if ok else math.inf)
        self.when[i].append((start, time.perf_counter_ns()))
        if self.records[i] is None:
            self.records[i] = (record, ok)
            if not ok:
                self.failed.append((record, reason))


class Result:
    """The loops of one or more processes over the same op list: each op's
    time at reference speed is its median over all its runs in every loop,
    or inf if any of them failed."""

    def __init__(self, payloads):
        n = len(payloads[0]["records"])
        self.typical, self.records = [], []
        # Every process must record the same outcome for the same op.
        self.consistent = True
        for i in range(n):
            times = [m for p in payloads for m in p["scaled"][i]]
            self.typical.append(math.inf if None in times
                                else statistics.median(times))
            seen = [p["records"][i] for p in payloads if p["records"][i]]
            self.records.append(seen[0])
            self.consistent &= all(r == seen[0] for r in seen)
        self.failed = [f for p in payloads for f in p["failed"]]
        self.attempted = sum(len(runs) for p in payloads
                             for runs in p["scaled"])
        self.failures = sum(m is None for p in payloads
                            for runs in p["scaled"] for m in runs)
        self.passes = self.attempted / n
        self.op_s = sum(m for m in self.typical if m != math.inf) / 1e3
        # The same sum from unscaled wall times, reported beside the metrics.
        self.wall_op_s = sum(
            statistics.median(m for p in payloads for m in p["wall"][i])
            for i in range(n) if self.typical[i] != math.inf) / 1e3
        self.correct_ops = sum(m != math.inf for m in self.typical)
        self.speed = REFERENCE_MS / statistics.median(
            m for p in payloads for m in p["kernel_ms"])
        self.rss_mb = max(p["rss_mb"] for p in payloads)


def run_segments(args, ops):
    """The untraced loop, split over SEGMENTS fresh processes run one after
    another.  Segment j starts at op j*ops/SEGMENTS and checks the time
    only after each run of ceil(ops/SEGMENTS) ops, so together the
    segments run every op at least once.  Each prints its loop's payload
    as its last line."""
    payloads = []
    for j in range(SEGMENTS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds / SEGMENTS), "--trace", "0", "--segment",
             str(j)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if out.returncode:
            sys.exit(f"perfbench: segment failed: {out.stderr.strip()}")
        payloads.append(json.loads(out.stdout.splitlines()[-1]))
    return payloads


def end_to_end(result, setup_s):
    typical = sorted(result.typical)
    return {
        "setup_s": setup_s,
        "ops_per_s": result.correct_ops / result.op_s,
        "op_ms_p50": percentile(typical, 0.5),
        "op_ms_p90": percentile(typical, 0.9),
        "peak_rss_mb": result.rss_mb,
    }


def per_layer(names, workload, plain, traced, tracer, probes):
    """Self times (at reference speed), calls and bytes per op from the
    traced passes; counts the workload derives from its first-pass records;
    tracing overhead.  Neither loop repeats short ops, so every op runs
    once per pass."""
    ops = traced.attempted
    times = tracer.self_times()
    counts = workload.counts(plain.records)
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        calls, self_s = times.get(span, (0, 0.0))
        if name == "tracing.overhead_ratio":
            out[name] = traced.op_s / plain.op_s - 1
        elif name == "known_defects.failed":
            out[name] = sum(failed for _, _, failed in probes)
        elif field == "self_s":
            out[name] = self_s * traced.speed / ops
        elif field == "calls":
            out[name] = calls / ops
        elif field == "nodes_per_s":
            nodes = counts.get(f"{span}.nodes", 0) * traced.passes
            out[name] = nodes / (self_s * traced.speed) if self_s else 0.0
        elif field == "bytes" and span in tracer.bytes:
            out[name] = tracer.bytes[span] / ops
        else:
            # Counts from op records; 0 where the workload has none.
            out[name] = counts.get(name, 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wl = load_library()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](wl, args.seed, workdir)
        ops = len(workload.ops)
        if args.segment is not None:
            loop = Loop(workload, args.seconds, repeats=REPEATS,
                        first=args.segment * ops // SEGMENTS,
                        chunk=-(-ops // SEGMENTS))
            print(json.dumps(loop.payload()))
            return 0
        if args.trace:
            results = [Result([Loop(workload, args.seconds / 2).payload()])]
            tracer = Tracer()
            tracer.install(wl)
            try:
                results.append(Result(
                    [Loop(workload, args.seconds / 2, tracer).payload()]))
            finally:
                tracer.uninstall()
        else:
            setup_s = measure_setup()
            results = [Result(run_segments(args, ops))]
        probes = workload.probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metric_spec = spec["per_layer"]
        values = per_layer([m["name"] for m in metric_spec], workload,
                           *results, tracer, probes)
    else:
        metric_spec = spec["end_to_end"]
        values = end_to_end(results[0], setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}
    first = results[0]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failures for r in results)
    failed_ops = [f for r in results for f in r.failed]
    consistent = all(r.consistent for r in results)
    digest = hashlib.sha256(json.dumps(
        sorted(first.records, key=str)).encode()).hexdigest()[:16]
    summary = {
        "passes": [round(r.passes, 2) for r in results],
        "ops_per_pass": ops,
        "samples_beyond_p90": ops - math.ceil(0.9 * ops),
        "machine_speed": [round(r.speed, 4) for r in results],
        "wall_ops_per_s": [round(r.correct_ops / r.wall_op_s, 4)
                           for r in results],
        **workload.summary(first),
        "failed_share": failed / attempted,
        "digest": digest,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "attempted": attempted,
                   "failed": failed, "metrics": metrics, **summary,
                   "failed_ops": failed_ops, "known_defects": probes,
                   "records": first.records,
                   "op_ms_at_reference_speed": [
                       m if m != math.inf else None for m in first.typical]},
                  f, indent=1)
    if args.trace:
        tracer.write(os.path.join(OUT, f"{tag}.spans.tsv.gz"))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for key, value in summary.items():
        print(f"  {key} {value}")
    for record, reason in failed_ops:
        print(f"  FAILED op {record}: {reason}")
    outcomes = {}
    for name, outcome, bad in probes:
        outcomes.setdefault((outcome, bad), []).append(name)
    for (outcome, bad), names in outcomes.items():
        shown = ", ".join(names[:2]) + (", ..." if len(names) > 2 else "")
        print(f"  known defect probe x{len(names)} ({shown}): {outcome}"
              f"{' (still failing)' if bad else ''}")
    if not consistent:
        print("  FAILED: processes recorded different outcomes for an op")
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
