#!/usr/bin/env python3
"""Compares two sets of benchmark results, parent first:

    python3 benchmark/compare.py A B

A and B are results files that benchmark/run.py writes to
benchmark/build/results/, or directories of them. With several files on a
side, each file's value of a metric is one sample; with one file, its passes
are the samples. For every end-to-end metric of BENCHMARK.json and every
workload on both sides, it prints the two medians, the change, the bound and a
verdict:

  regressed   B's median is worse than A's by more than the bound.
  improved    B's median is better than A's by more than A's interquartile
              range (as a share of A's median).
  unresolved  A's or B's interquartile range is wider than the bound, and not
              every sample of B reads better (or worse) than every sample of A.
  unchanged   anything else.

It screens a change before it is measured properly; a claimed gain still
needs the paired runs described in benchmark/README.md. Exits 1 when a row
regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    paths = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f)["workloads"])
    return runs


def samples(runs, workload, metric):
    found = [r[workload]["metrics"][metric] for r in runs
             if metric in r.get(workload, {}).get("metrics", {})]
    if len(found) == 1:
        return found[0]["values"]
    return [m["value"] for m in found]


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def verdict(a, b, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / ma
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread(a):
        return "improved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'metric':<12} {'workload':<12} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    regressed = False
    for m in spec["end_to_end"]:
        for w in workloads:
            a, b = samples(parent, w, m["name"]), samples(change, w, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"{m['name']:<12} {w:<12} {ma:>12.6g} {mb:>12.6g} "
                  f"{100 * (mb - ma) / ma:>+7.2f}% {100 * m['bound']:>5.0f}%  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
