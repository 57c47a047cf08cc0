#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Run one workload on a range of seeds and save the end-to-end values:

    python3 perfbench/stability.py run --workload paper-tree \
        --seeds 101-110 --save .bench_build/stability/paper-tree-a.json

It prints each metric's median and spread (inter-quartile distance as a
share of the median) against the metric's bound in BENCHMARK.json. Compare
two saved sets of the same workload, taken minutes apart:

    python3 perfbench/stability.py compare A.json B.json

This prints both medians and spreads and how much worse the second median
is than the first. A set passes when every spread but set-up's is within
its bound (the aim is a third of it) and no second median is worse than the
first by more than the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchmath  # noqa: E402


def end_to_end_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["run_seconds"]


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(args):
    metrics, seconds = end_to_end_spec()
    values = {m["name"]: [] for m in metrics}
    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"stability: seed {seed} failed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    saved = {"workload": args.workload, "seeds": seeds, "values": values}
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as f:
            json.dump(saved, f)
    print(f"{args.workload}, seeds {seeds[0]}-{seeds[-1]}")
    print(f"  {'metric':22s} {'median':>12s} {'spread':>7s} {'bound':>6s}")
    for m in metrics:
        v = values[m["name"]]
        print(f"  {m['name']:22s} {benchmath.median(v):12.6g} "
              f"{benchmath.spread(v):7.4f} {m['bound']:6.2f}")


def compare_sets(args):
    metrics, _ = end_to_end_spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = (s["values"] for s in sets)
    print(f"{sets[0]['workload']}: {args.first} vs {args.second}")
    print(f"  {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>8s} {'spread B':>8s} {'worse':>7s} {'bound':>6s}")
    ok = True
    for m in metrics:
        name, bound = m["name"], m["bound"]
        spreads = (benchmath.spread(a[name]), benchmath.spread(b[name]))
        worse = benchmath.worse_by(a[name], b[name], m["better"])
        passed = worse <= bound and (
            name == "setup_s" or max(spreads) <= bound)
        ok = ok and passed
        print(f"  {name:22s} {benchmath.median(a[name]):12.6g} "
              f"{benchmath.median(b[name]):12.6g} {spreads[0]:8.4f} "
              f"{spreads[1]:8.4f} {worse:7.4f} {bound:6.2f}"
              f"{'' if passed else '  FAIL'}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run one workload on a range of seeds")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    r.add_argument("--save", help="where to write the values (JSON)")
    c = sub.add_parser("compare", help="compare two saved sets")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.mode == "run":
        run_set(args)
    else:
        compare_sets(args)


if __name__ == "__main__":
    main()
