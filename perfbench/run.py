#!/usr/bin/env python3
"""Build and run the perfbench binary for one workload.

    python3 perfbench/run.py --workload kv_skewed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root. The first run configures and builds
perfbench/ (the detect library compiled from src/ plus perfbench.cpp) into
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.

The binary prints one JSON line; this wrapper
  * checks its determinism guard against earlier runs of the same workload
    and seed (stored under the build directory) and fails on any drift,
  * prints the result without the guard as the last stdout line,
  * exits 0 only when every output was correct.
With --trace 1 the span trace is written as Chrome trace-event JSON to
<build>/perfbench-traces/<workload>-seed<N>.json.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fuzz_campaign", "kv_skewed", "serve_soak", "theory_bfs")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build; returns the binary path."""
    bench_dir = os.path.join(root, "perfbench")
    out = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def check_guard(build_dir, workload, seed, guard):
    """Counts that must repeat exactly for a fixed seed; returns drift list."""
    gdir = os.path.join(build_dir, "perfbench-guard")
    os.makedirs(gdir, exist_ok=True)
    path = os.path.join(gdir, f"{workload}-seed{seed}.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(guard, f, sort_keys=True)
        return []
    with open(path) as f:
        pinned = json.load(f)
    return [f"{k}: {pinned[k]} -> {guard[k]}"
            for k in sorted(pinned) if k in guard and pinned[k] != guard[k]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "api", "api.hpp")):
        log("run from the repository root: src/ (the library) is missing")
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.workload == "all":
        ok = True
        for w in WORKLOADS:
            code, result = run_one(binary, build_dir, w, args)
            ok = ok and code == 0
            for name, m in (result or {}).get("metrics", {}).items():
                print(f"{w:14} {name:28} {m['value']:>16.6g} {m['unit']}")
            print(f"{w:14} {'correct':28} {str(code == 0):>16}", flush=True)
        return 0 if ok else 1
    code, result = run_one(binary, build_dir, args.workload, args)
    if result is not None:
        print(json.dumps(result))
    return code


def run_one(binary, build_dir, workload, args):
    """Run the binary once; returns (exit code, result without guard)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        tdir = os.path.join(build_dir, "perfbench-traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: perfbench exited {proc.returncode} without a result")
        return 1, None

    drift = check_guard(build_dir, workload, args.seed, result.pop("guard"))
    if drift:
        log(f"{workload}: determinism guard drifted: " + "; ".join(drift))
        result["correct"] = False
    return (0 if result["correct"] and proc.returncode == 0 else 1), result


if __name__ == "__main__":
    sys.exit(main())
