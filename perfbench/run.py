#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fleet_checkin --seed 1 --seconds 10 --trace 0

Builds the measuring program from the sources next to this directory (CMake,
optimized, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs
one workload and prints, as the last line of standard output, one JSON object
with exactly the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ledger (see README.md).

A run is also marked failed when its fingerprint (model CRC32 plus the
deterministic counters) differs from an earlier run of the same binary with
the same workload, seed and size; fingerprints are kept in the build directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_checkin", "fleet_secure", "proxy_train")
BUILD_TYPE = "RelWithDebInfo"


def run_timeout_s(seconds):
    """Wall-clock allowance of the measuring program: a fixed share for
    set-up and warm-up plus the timed phase, which takes up to about 2.2 wall
    seconds per requested second (fleet_checkin) on the reference machine."""
    return 60 + 5 * seconds


# Environment switches that would add a plane, a listener, a profiler or a
# different event-queue engine to the measured program.
PINNED_VARS = ("FL_STATUSZ", "FL_BUNDLE_DIR", "FL_EVENT_QUEUE", "FL_FLIGHT_RECORDER")
PINNED_PREFIXES = ("FL_PROFILER",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(fresh=False):
    """Configures once and builds the perfbench target; returns the binary.
    A build tree left by another checkout location is rebuilt from scratch."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cached = os.path.exists(os.path.join(out, "CMakeCache.txt"))
    if fresh or not cached:
        shutil.rmtree(out, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return build(fresh=True) if cached and not fresh else None
    return os.path.join(out, "perfbench")


def pinned_env():
    env = dict(os.environ)
    for name in list(env):
        if name in PINNED_VARS or name.startswith(PINNED_PREFIXES):
            del env[name]
    return env


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    measured code where no git metadata is available."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".cc", ".h", ".txt", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_fingerprint(binary, args, fingerprint):
    """Returns the earlier fingerprint of this (binary, inputs) pair if it
    differs from `fingerprint`, else None; records new pairs."""
    store = os.path.join(build_dir(), "fingerprints.json")
    key = "%s:%s:%d:%s:%d" % (file_digest(binary)[:16], args.workload,
                              args.seed, repr(args.seconds), args.tiny)
    known = {}
    if os.path.exists(store):
        with open(store) as f:
            known = json.load(f)
    if key in known:
        return None if known[key] == fingerprint else known[key]
    known[key] = fingerprint
    tmp = store + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, store)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload (self-test only)")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t0))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %.0f s"
            % (args.workload, run_timeout_s(args.seconds)))
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: measuring program exited with %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    correct = bool(raw["correct"])
    failures = list(raw["check_failures"])
    earlier = check_fingerprint(binary, args, raw["fingerprint"])
    if earlier is not None:
        correct = False
        failures.append("fingerprint %s differs from earlier run %s"
                        % (raw["fingerprint"], earlier))
    attempted = int(raw["attempted"])
    failed = attempted if not correct else int(raw["failed"])

    env = dict(raw["env"], source_digest=source_digest())
    print("# env " + json.dumps(env, sort_keys=True))
    print("# fingerprint " + raw["fingerprint"])
    for f in failures:
        print("# check failed: " + f)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": raw["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
