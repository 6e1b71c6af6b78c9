#!/usr/bin/env python3
"""Run the benchmark repeatedly and keep every run's output.

    python3 perfbench/series.py --out runs/a --runs 10 --first-seed 1
    python3 perfbench/series.py --out runs/ab --runs 10 --checkout ../parent --checkout .

Each run is one `run.py` invocation, with its own seed, for every workload
in BENCHMARK.json (or --workloads). With two checkouts the runs alternate:
for each seed and workload both sides run, and which side runs first flips
from one pair to the next. Output lands in <out>/<side>/<workload>-seed<n>.out,
where <side> is "a", "b", ... in --checkout order; compare.py reads it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the run outputs")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (one seed each)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    ap.add_argument("--seconds", type=int, help="measured seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--checkout", action="append",
                    help="checkout to run (repeat for paired runs; default: this one)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    sides = [chr(ord("a") + i) for i in range(len(checkouts))]

    failed = 0
    pair = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            order = list(range(len(checkouts)))
            if pair % 2:
                order.reverse()
            pair += 1
            for i in order:
                out_dir = os.path.join(args.out, sides[i])
                os.makedirs(out_dir, exist_ok=True)
                cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                p = subprocess.run(cmd, cwd=checkouts[i], capture_output=True, text=True)
                path = os.path.join(out_dir, f"{w}-seed{seed}.out")
                with open(path, "w") as f:
                    f.write(p.stdout)
                    f.write("\n# stderr\n")
                    f.write(p.stderr)
                last = p.stdout.strip().splitlines()[-1:] or [""]
                status = "ok" if p.returncode == 0 else f"exit {p.returncode}"
                failed += p.returncode != 0
                print(f"{sides[i]} {w} seed {seed}: {status} {last[0][:160]}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
