#!/usr/bin/env python3
"""Host-time benchmark of the ddmalloc study program.

Builds the program and the benchmark binary from source (into
.bench_build/perfbench at the repository root), runs one workload, and
prints two JSON lines on stdout: the full report (host fingerprint, every
metric with its median, quartiles and sample count, the checks) and, last,
the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Exits nonzero when the build fails
or an output check fails.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sim-sweep", "replay-zoo", "native-serve")
HOST_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench_host"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        compiler = out.splitlines()[0] if out else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "compiler": compiler,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "kernel": platform.release()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tamper", choices=("digest", "counter"),
                   help="self-test: corrupt a pinned value; checks must fail")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        return 2
    out_dir = os.path.join(BUILD, "out", f"{args.workload}-{args.seed}")
    cmd = [os.path.join(BUILD, "perfbench_host"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--digest-file", os.path.join(HERE, "sim-sweep.digest")]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=HOST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench_host did not finish within {HOST_TIMEOUT_S} s")
        return 2
    sys.stderr.write(run.stderr)
    try:
        report = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"perfbench_host exited {run.returncode} without a report")
        return 2

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    report["host"] = fingerprint()
    correct = report["correct"] and run.returncode == 0
    for failure in report["failures"]:
        log("check failed: " + failure)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
