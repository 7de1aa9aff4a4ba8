#!/usr/bin/env python3
"""Judge a committed benchmark result against BENCHMARK.json's own bounds.

Usage: scripts/bench_compare.py BENCH_<n>.json [--spec BENCHMARK.json]

A BENCH_<n>.json file holds, per contract workload and metric, the median
of a change's runs ("change") and of its parent's runs ("parent"), plus the
failed-call totals of both sides (failed_calls_trace0/1). For every
(workload, end-to-end metric) of the spec this prints one verdict:

  better              the change moved the metric the way "better" points
  within bound        worse or equal, but by no more than the metric's bound
  WORSE beyond bound  worse by more than the bound: a regression

A failed-call total that grew is a regression too, as is a contract metric
the result file lacks. Exits 1 when anything regressed, 0 otherwise.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(metric, parent, change):
    """Return (label, regressed) for one end-to-end metric."""
    bound = metric["bound"]
    if metric["better"] == "higher":
        if change > parent:
            return "better", False
        ok = change >= parent * (1.0 - bound)
    else:
        if change < parent:
            return "better", False
        ok = change <= parent * (1.0 + bound)
    return ("within bound", False) if ok else ("WORSE beyond bound", True)


def compare(spec, result, out=sys.stdout):
    """Print the verdict table; return the number of regressions."""
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        entry = result.get("workloads", {}).get(name)
        if entry is None:
            print("%s: missing from the result file  REGRESSION" % name,
                  file=out)
            regressions += 1
            continue
        print("%s:" % name, file=out)
        for m in spec["end_to_end"]:
            got = entry.get(m["name"])
            if got is None:
                print("  %-20s missing  REGRESSION" % m["name"], file=out)
                regressions += 1
                continue
            parent, change = got["parent"], got["change"]
            label, bad = verdict(m, parent, change)
            rel = change / parent - 1.0 if parent else 0.0
            print("  %-20s %14.6g -> %-14.6g %-8s %+7.2f%% (bound %g%%, %s "
                  "is better)  %s" %
                  (m["name"], parent, change, m["unit"], 100.0 * rel,
                   100.0 * m["bound"], m["better"], label), file=out)
            regressions += bad
        for key in ("failed_calls_trace0", "failed_calls_trace1"):
            got = entry.get(key)
            if got is None:
                continue
            bad = got["change"] > got["parent"]
            print("  %-20s %14d -> %-14d %s" %
                  (key, got["parent"], got["change"],
                   "MORE FAILURES" if bad else "no more failures"), file=out)
            regressions += bad
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="a committed BENCH_<n>.json")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.result) as f:
        result = json.load(f)
    regressions = compare(spec, result)
    print("%s: %s" % (args.result,
                      "%d regression(s)" % regressions if regressions
                      else "no regression beyond BENCHMARK.json bounds"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
