#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper-tree --seed 1 \
        --seconds 10 --trace 0

Builds perfbench_workload from this checkout's sources (Release, into
.bench_build/perfbench), runs the workload in its own process, checks its
outputs, and prints a provenance line followed by one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's spans under .bench_build/trace/). A
failed build, a failed output check or an unoptimised build exits non-zero
without a result line. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchmath  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")
WORKLOADS = ("paper-tree", "scale-ba", "live-lossy")
# A run must end within 180 s; the build before it has its own budget.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload binary exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"workload binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload binary printed nothing")
    return json.loads(lines[-1])


def measure(workload, raw, trace, pinned):
    """(failures, metric values, attempted, failed) for one workload run."""
    if workload == "live-lossy":
        failures = benchmath.live_checks(raw, trace)
        attempted, failed = benchmath.live_operations(raw)
        compute = (benchmath.live_per_layer if trace
                   else benchmath.live_end_to_end)
    else:
        failures = benchmath.sim_checks(raw, pinned)
        attempted, failed = benchmath.sim_operations(raw)
        compute = benchmath.sim_per_layer if trace else benchmath.sim_end_to_end
    if failures:
        return failures, {}, attempted, failed
    values = compute(raw)
    if trace:
        values["trace.spans"] = len(raw["spans"])
    return failures, values, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seeds = load_json(os.path.join(HERE, "seeds.json"))[args.workload]
    build()
    raw = run_workload(args)

    build_info = raw["build"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": build_info["type"],
        "optimized": build_info["optimized"],
        "oracles_compiled": build_info["oracles_compiled"],
        "git_commit": git_commit(),
        "primary_seed": seeds["primary"],
        "holdout_seed": seeds["holdout"],
    }
    if not build_info["optimized"]:
        fail("refusing to report from an unoptimised build "
             f"(CMAKE_BUILD_TYPE={build_info['type']!r})", 3)

    pinned = seeds.get("pinned_delivery_rate", {}).get(str(args.seed))
    failures, values, attempted, failed = measure(
        args.workload, raw, args.trace == 1, pinned)
    if failures:
        for f in failures:
            print(f"perfbench: check failed: {f}", file=sys.stderr)
        fail(f"{len(failures)} output check(s) failed")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Metrics a workload has no layer for (the live runtime on the sim
    # workloads, the simulator on the live one) read 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}

    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"{args.workload}-seed{args.seed}.spans.json")
        with open(path, "w") as f:
            json.dump(raw["spans"], f)
        provenance["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
