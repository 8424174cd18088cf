#!/usr/bin/env python3
"""Steadiness study of the repository benchmark.

    python3 perfbench/steadiness.py --out perfbench/results/steadiness.json

Each call adds one set to the record in --out (creating it if absent): every
workload in BENCHMARK.json run untraced once per seed 1-10, then traced with
seeds 1 and 2. Run it again, hours later or after a rebuild, to add a set
taken at a separate time. It then reports, over every set in the record, for
each (workload, end-to-end metric): each set's median and quartiles, its
spread (third minus first quartile, as a share of the median, from
statistics.quantiles(values, n=4)), and the drift of each later set's median
against the first set's, signed so that positive means worse. Both are
compared with the metric's bound in BENCHMARK.json. The traced runs give
trace.overhead_frac.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_SEEDS = (1, 2)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit("%s seed %d trace %d exited %d"
                         % (workload, seed, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(l[len("# env "):]) for l in lines
               if l.startswith("# env "))
    return {"seed": seed, "wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "source_digest": env["source_digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def describe(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_set(bench):
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    names = [m["name"] for m in bench["end_to_end"]]
    runs, trace = {}, {}
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = []
        for seed in SEEDS:
            r = run_once(w, seed, bench["run_seconds"], 0)
            if not r["correct"] or r["failed"]:
                print("warning: %s seed %d correct=%s failed=%d"
                      % (w, seed, r["correct"], r["failed"]), file=sys.stderr)
            runs[w].append(r)
            print("%-14s seed %-3d %5.1fs  %s" % (
                w, seed, r["wall_s"], " ".join(
                    "%s=%.6g" % (k, r["metrics"][k]) for k in names)),
                flush=True)
        trace[w] = [run_once(w, seed, bench["run_seconds"], 1)
                    for seed in TRACE_SEEDS]
    return {"started": started, "runs": runs, "trace": trace}


def summarize(bench, sets):
    summary = {}
    for w in (w["name"] for w in bench["workloads"]):
        summary[w] = {}
        for spec in bench["end_to_end"]:
            m, bound = spec["name"], spec["bound"]
            per_set = [describe([r["metrics"][m] for r in st["runs"][w]])
                       for st in sets]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            first = per_set[0]["median"]
            drift = [sign * (ps["median"] - first) / first if first else 0.0
                     for ps in per_set[1:]]
            summary[w][m] = {
                "bound": bound,
                "sets": per_set,
                "worse_drift": drift,
                "spread_within_bound": all(ps["spread"] <= bound for ps in per_set),
                "spread_below_third": all(ps["spread"] < bound / 3 for ps in per_set),
                "drift_within_bound": all(d <= bound for d in drift),
            }
    return summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            sets = json.load(f)["sets"]
    sets.append(run_set(bench))
    summary = summarize(bench, sets)

    print()
    print("%-14s %-24s %6s %s %s" % (
        "workload", "metric", "bound",
        "  ".join("set%d median   spread" % (i + 1) for i in range(len(sets))),
        "worse drift"))
    for w, metrics in summary.items():
        for m, e in metrics.items():
            print("%-14s %-24s %6.2f %s %s" % (
                w, m, e["bound"],
                "  ".join("%12.6g %7.2f%%" % (ps["median"], 100 * ps["spread"])
                          for ps in e["sets"]),
                " ".join("%+.2f%%" % (100 * d) for d in e["worse_drift"])))
    for w in summary:
        print("%-14s trace.overhead_frac %s" % (w, "  ".join(
            " ".join("%+.3f" % t["metrics"]["trace.overhead_frac"]
                     for t in st["trace"][w]) for st in sets)))

    with open(args.out, "w") as f:
        json.dump({"benchmark": bench, "sets": sets, "summary": summary}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
