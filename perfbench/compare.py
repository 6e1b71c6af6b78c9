#!/usr/bin/env python3
"""Summarise and compare benchmark runs collected by series.py.

    python3 perfbench/compare.py runs/a            # one set: is it steady?
    python3 perfbench/compare.py runs/a runs/b     # parent (a) vs change (b)
    python3 perfbench/compare.py runs/ab           # the sides of a paired series

For every metric and workload it prints each side's median and quartiles
(statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median. One set
passes when every end-to-end spread except setup_s is within the metric's
BENCHMARK.json bound. Two sets add, per metric and workload, the share of
seed-matched pairs the second side wins and a verdict:

  improved    the second side wins at least 9 in 10 pairs and the medians
              differ by more than the first side's own Q3 - Q1;
  regressed   the second side's median is worse by more than the bound;
  unchanged   within the bound, and the first side's spread is too;
  unresolved  within the bound, but the spread is wider than the bound and
              not every run of one side beats every run of the other.

Per-layer metrics have no bound; they are listed with medians and win
shares only. Runs of the same seed must print the same result digest on
both sides; a differing digest is reported. Exits 1 when a set is not
steady, a metric regressed, or digests differ.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_FILE = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)\.out$")


def load(directory):
    """Returns {workload: {seed: (result, digest)}} for one side."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = RUN_FILE.match(name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            stdout = f.read().split("\n# stderr\n")[0]
        lines = stdout.strip().splitlines()
        digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        runs.setdefault(m["workload"], {})[int(m["seed"])] = (result, digest)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def values(side, workload, metric):
    out = {}
    for seed, (result, _) in side.get(workload, {}).items():
        if result and metric in result.get("metrics", {}):
            out[seed] = result["metrics"][metric]["value"]
    return out


def better(x, y, direction):
    return x < y if direction == "lower" else x > y


def verdict(a, b, bound, direction):
    """Verdict for change b against parent a, per the comparison rules above."""
    qa1, ma, qa3 = quartiles(list(a.values()))
    _, mb, _ = quartiles(list(b.values()))
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(better(y, x, direction) for x, y in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
    if pairs and win_frac >= 0.9 and abs(mb - ma) > qa3 - qa1:
        return "improved", win_frac
    if worse > bound:
        return "regressed", win_frac
    spread = (qa3 - qa1) / ma if ma else 0.0
    if spread > bound and not (all(better(y, x, direction) for x in a.values() for y in b.values())
                               or all(better(x, y, direction) for x in a.values() for y in b.values())):
        return "unresolved", win_frac
    return "unchanged", win_frac


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    dirs = argv[1:]
    if len(dirs) == 1 and not any(RUN_FILE.match(n) for n in os.listdir(dirs[0])):
        dirs = sorted(os.path.join(dirs[0], d) for d in os.listdir(dirs[0])
                      if os.path.isdir(os.path.join(dirs[0], d)))
    if not 1 <= len(dirs) <= 2:
        print("usage: compare.py SET [SET2]", file=sys.stderr)
        return 2
    sides = [load(d) for d in dirs]
    workloads = [w["name"] for w in spec["workloads"] if any(w["name"] in s for s in sides)]
    bad = []

    for w in workloads:
        print(f"== {w} ==")
        for m in spec["end_to_end"] + spec["per_layer"]:
            name, bound = m["name"], m.get("bound")
            per_side = [values(s, w, name) for s in sides]
            if not all(per_side):
                continue
            cells = []
            for i, v in enumerate(per_side):
                q1, med, q3 = quartiles(list(v.values()))
                spread = (q3 - q1) / med if med else 0.0
                cells.append(f"{'ab'[i]}: n={len(v)} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
                if bound is not None and name != "setup_s" and spread > bound:
                    bad.append(f"{w} {name}: side {'ab'[i]} spread {spread:.3f} > bound {bound}")
            line = f"  {name:32s} " + "  |  ".join(cells)
            if len(sides) == 2:
                v, win = verdict(per_side[0], per_side[1], bound if bound is not None else 0.0,
                                 m["better"])
                line += f"  |  b wins {win:.2f}"
                if bound is not None:
                    line += f"  -> {v}"
                    if v == "regressed":
                        bad.append(f"{w} {name}: regressed")
            print(line)
        if len(sides) == 2:
            for seed, (_, da) in sorted(sides[0].get(w, {}).items()):
                db = sides[1].get(w, {}).get(seed, (None, None))[1]
                if da and db and da != db:
                    bad.append(f"{w} seed {seed}: result digests differ ({da} vs {db})")
        for i, s in enumerate(sides):
            for seed, (result, _) in sorted(s.get(w, {}).items()):
                if not result or not result.get("correct") or result.get("failed"):
                    bad.append(f"{w} seed {seed}: side {'ab'[i]} run failed or incorrect")
    for b in bad:
        print("FAIL", b)
    print("all checks pass" if not bad else f"{len(bad)} check(s) fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
