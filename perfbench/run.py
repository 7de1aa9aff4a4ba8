#!/usr/bin/env python3
"""Build and run the MPI-IO/DAFS/VIA stack benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload ior_stream --seed 1 --seconds 20 \
      --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 20
  python3 perfbench/run.py --self-test

The stack and the perfbench binary are compiled from source into
.bench_build/ (the first run builds). With --trace 0 one untraced run of
--seconds reports every end-to-end metric of BENCHMARK.json; with --trace 1
half the time goes to an untraced run (counters, busy totals) and half to a
run with DAFS_TRACE set (per-layer self times, span latencies, tracing
overhead), and every per-layer metric is reported. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--all runs every workload both ways and prints every metric by name.
Workloads, metrics and the predictions they test are described in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the perfbench binary; logs go to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    for _ in range(2):
        # A cache left by a checkout at another path cannot be reused, so a
        # failed first attempt starts again from an empty build directory.
        if (os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or
                subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr,
                               stderr=sys.stderr).returncode == 0):
            jobs = str(min(4, os.cpu_count() or 1))
            if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0:
                return True
        shutil.rmtree(BUILD, ignore_errors=True)
    return False


def self_test():
    return subprocess.run([BINARY, "--self-test"], stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, traced):
    env = dict(os.environ)
    env.pop("DAFS_TRACE", None)
    if traced:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        env["DAFS_TRACE"] = os.path.join(trace_dir, workload + ".json")
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with %d on %s" %
                           (proc.returncode, workload))
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """One contract run: the result object for --trace 0 or 1."""
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    if not trace:
        run = run_binary(workload, seed, seconds, traced=False)
        runs = [run]
        found = run["metrics"]
        correct = run["correct"]
    else:
        plain = run_binary(workload, seed, seconds / 2, traced=False)
        traced = run_binary(workload, seed, seconds / 2, traced=True)
        runs = [plain, traced]
        # Counters and busy totals from the untraced run; what only the
        # trace gives from the traced one.
        found = dict(traced["metrics"])
        found.update(plain["metrics"])
        base = plain["metrics"]["host_ns_per_op"]["value"]
        found["trace.overhead_frac"] = {
            "value": traced["metrics"]["host_ns_per_op"]["value"] / base - 1.0,
            "unit": "frac"}
        correct = plain["correct"] and traced["correct"]
    missing = [n for n in names if n not in found]
    if missing:
        # Workloads outside BENCHMARK.json (quorum_ckpt) may lack some, e.g.
        # a p99 from fewer than 1000 calls; contract workloads may not.
        contract = [w["name"] for w in spec()["workloads"]]
        what = "%s: no value for %s" % (workload, ", ".join(missing))
        if workload in contract:
            raise RuntimeError(what)
        log("perfbench: " + what)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: found[n] for n in names if n in found},
    }


def print_table(workload, result):
    print("%s: correct=%s attempted=%d failed=%d" %
          (workload, result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true",
                    help="run every workload of BENCHMARK.json both ways")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.all and not args.workload and not args.self_test:
        ap.error("give --workload, --all or --self-test")

    if not build():
        log("perfbench: build failed")
        return 1
    if not self_test():
        log("perfbench: self-test failed")
        return 1
    if args.self_test:
        return 0

    try:
        if args.all:
            results = {}
            for w in spec()["workloads"]:
                name = w["name"]
                for trace in (0, 1):
                    r = measure(name, args.seed, args.seconds, trace)
                    print_table("%s (trace %d)" % (name, trace), r)
                    results.setdefault(name, {})["trace%d" % trace] = r
            print(json.dumps(results, sort_keys=True))
            return 0
        result = measure(args.workload, args.seed, args.seconds,
                         args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print_table(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
