#!/usr/bin/env python3
"""Build and run the ringshare benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a ringshare checkout.  The benchmark executable is
built from source with dune into .bench_build/.  With --trace 0 the
measured run is split over PARTS untraced processes, each making its
share of the workload's fixed number of seeded ops (stopping early only
after --seconds / PARTS of timed op time) and of the fixed reference set
behind ratio_mean; their raw per-op data is merged into the end-to-end
metrics.  With
--trace 1 two processes each make exactly one pass over the workload,
the first untraced and the second with the Obs counters and spans on,
and the per-layer metrics come from the second.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.  Exits non-zero, without a result line, if the build or a run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "ringbench.exe")
WORKLOADS = ("exact-certify", "grid-screen", "batch-cached")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Each process's run time depends on state the process accumulates (the
# same ops run 30% faster or slower in different processes), so a
# measured run is spread over several processes and their data pooled.
PARTS = 4


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"))
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--display", "quiet", "./perfbench/ringbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % r.returncode)


def run(args, timeout):
    """Run the executable; return its last stdout line parsed as JSON."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("run %s failed (exit %d)" % (" ".join(args), r.returncode))
    return json.loads(lines[-1])


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty list."""
    s = sorted(xs)
    x = q * (len(s) - 1)
    i = int(x)
    j = min(len(s) - 1, i + 1)
    return s[i] + (x - i) * (s[j] - s[i])


def measure(common):
    parts = [run(common + ["--mode", "measure", "--part", str(k),
                           "--parts", str(PARTS)],
                 RUN_TIMEOUT_S // PARTS)
             for k in range(PARTS)]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    op_ms = [x for p in parts for x in p["op_ms"]]
    metrics = [
        ("ops_per_s", "1/s", len(op_ms) / sum(p["timed_s"] for p in parts)),
        ("op_ms_p50", "ms", quantile(op_ms, 0.5)),
        ("op_ms_p90", "ms", quantile(op_ms, 0.9)),
        ("setup_s", "s",
         statistics.median(x for p in parts for x in p["setup_s"])),
        ("peak_heap_mb", "MiB",
         statistics.median(x for p in parts for x in p["peak_mb"])),
        ("ok_share", "share", (attempted - failed) / attempted),
        ("ratio_mean", "ratio", sum(p["ratio_sum"] for p in parts)
         / sum(p["ratio_ops"] for p in parts)),
    ]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, u, v in metrics},
    }


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        result = measure(common + ["--seconds", repr(a.seconds / PARTS)])
        names = declared("end_to_end")
    else:
        # both passes do identical work; only the second is traced
        common += ["--seconds", str(a.seconds)]
        plain = run(common + ["--mode", "pass"], RUN_TIMEOUT_S // 2)
        traced = run(common + ["--mode", "pass", "--traced"],
                     RUN_TIMEOUT_S // 2)
        # the passes' op times scaled to the reference host
        ref_s = plain["metrics"]["trace.op_ref_s"]["value"]
        metrics = traced["metrics"]
        metrics["trace.overhead_share"] = {
            "value": metrics.pop("trace.op_ref_s")["value"] / ref_s,
            "unit": "share"}
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics,
        }
        names = declared("per_layer")
    if sorted(result["metrics"]) != sorted(names):
        fail("metric names differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
