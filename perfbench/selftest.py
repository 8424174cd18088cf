#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, through run.py --tiny:
  * the last output line has exactly correct/attempted/failed/metrics, the
    run is correct, attempted >= 1 and failed == 0;
  * every end-to-end (--trace 0) and per-layer (--trace 1) metric is printed
    with the unit BENCHMARK.json gives it, and nothing else is;
  * metric and workload names use only [A-Za-z0-9_.-];
  * the deterministic metrics and the fingerprint repeat exactly across two
    runs with the same seed;
  * the per-layer busy times add up to no more than core.run_s;
and that run.py exits non-zero, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DETERMINISTIC = ("round_commit_frac", "upload_bytes_per_update", "train_loss")
SECONDS = "4"
SEED = "7"

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL " + what, flush=True)


def run(workload, trace, root=ROOT, env=None):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def parse(proc, label):
    check(proc.returncode == 0, "%s exited %d: %s"
          % (label, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    fingerprint = next((l.split(" ", 2)[2] for l in lines
                        if l.startswith("# fingerprint ")), None)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (label, sorted(result)))
    check(result.get("correct") is True, "%s: not correct (%s)" % (
        label, [l for l in lines if l.startswith("# check failed")]))
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          "%s: attempted %r" % (label, result.get("attempted")))
    check(result.get("failed") == 0, "%s: failed %r" % (label, result.get("failed")))
    return result.get("metrics", {}), fingerprint


def check_table(metrics, specs, label):
    check(set(metrics) == {s["name"] for s in specs},
          "%s: metric names differ from BENCHMARK.json: %s" % (
              label, sorted(set(metrics) ^ {s["name"] for s in specs})))
    for s in specs:
        got = metrics.get(s["name"])
        check(got is not None and got.get("unit") == s["unit"],
              "%s: %s printed as %r, unit %s expected" % (
                  label, s["name"], got, s["unit"]))
        check(got is not None and isinstance(got.get("value"), (int, float)),
              "%s: %s has no numeric value" % (label, s["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = ([w["name"] for w in bench["workloads"]] +
             [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    for n in names:
        check(NAME.match(n) is not None, "bad name %r" % n)
    check(len(names) == len(set(names)), "a name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "bad unit %r" % m["unit"])

    for w in (w["name"] for w in bench["workloads"]):
        print("== " + w, flush=True)
        first, fp1 = parse(run(w, 0), w + " trace 0 run 1")
        second, fp2 = parse(run(w, 0), w + " trace 0 run 2")
        check_table(first, bench["end_to_end"], w + " trace 0")
        check(fp1 is not None and fp1 == fp2,
              "%s: fingerprint %s then %s" % (w, fp1, fp2))
        for m in DETERMINISTIC:
            a = first.get(m, {}).get("value")
            b = second.get(m, {}).get("value")
            check(a == b, "%s: %s %r then %r" % (w, m, a, b))

        layers, fp3 = parse(run(w, 1), w + " trace 1")
        check_table(layers, bench["per_layer"], w + " trace 1")
        check(fp3 == fp1, "%s: traced fingerprint %s, untraced %s" % (w, fp3, fp1))
        v = {k: m["value"] for k, m in layers.items()}
        busy = sum(x for k, x in v.items()
                   if k.startswith("server.") and k.endswith(".busy_s"))
        busy += v.get("fedavg.client_update_s", 0) + v.get("tools.round_overhead_s", 0)
        check(busy <= v.get("core.run_s", 0),
              "%s: per-layer busy %.6f s > core.run_s %.6f s"
              % (w, busy, v.get("core.run_s", 0)))
        check(v.get("core.unattributed_s", -1) >= 0,
              "%s: core.unattributed_s < 0" % w)
        check(v.get("core.run_s", 0) > 0, "%s: core.run_s is 0" % w)

    # Without the library sources next to it the benchmark must refuse.
    print("== benchmark files alone", flush=True)
    orphan = os.path.join(ROOT, ".bench_build", "selftest-orphan")
    shutil.rmtree(orphan, ignore_errors=True)
    os.makedirs(orphan)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), orphan)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(orphan, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = run(bench["workloads"][0]["name"], 0, root=orphan, env=env)
    check(proc.returncode != 0, "benchmark alone exited 0")
    check(not proc.stdout.strip(), "benchmark alone printed %r" % proc.stdout[-200:])
    shutil.rmtree(orphan, ignore_errors=True)

    print("selftest: %s (%d failures)" % ("FAIL" if failures else "PASS",
                                          len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
