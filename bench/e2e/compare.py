#!/usr/bin/env python3
"""Compare and merge bench_e2e result directories (Python stdlib only).

  compare.py A B [--benchmark BENCHMARK.json]
      One row per (workload, metric): each side's median and quartiles, the
      change, and a verdict. Exits 1 when an exact work counter differs at
      an equal seed; flags an end-to-end metric that worsened by more than
      its bound, and reports it as unresolved when either side's spread
      (interquartile range / median) is wider than the bound.

  compare.py merge RUN_DIR... --out DIR
      Merges single-run BENCH_<workload>.json files into one per workload
      with every run's value plus the median and quartiles.

Quartiles are statistics.quantiles(values, n=4), the same rule the spread
checks in bench/e2e/README.md use.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load_dir(path):
    results = {}
    for name in sorted(glob.glob(os.path.join(path, "BENCH_*.json"))):
        with open(name) as f:
            bench = json.load(f)
        results[bench["workload"]] = bench
    return results


def run_seeds(bench):
    """The seed of each value, in value order (a single run has one)."""
    return bench.get("run_seeds", bench["seeds"])


def values_by_seed(bench, metric):
    grouped = {}
    for seed, value in zip(run_seeds(bench), metric["values"]):
        grouped.setdefault(seed, set()).add(value)
    return grouped


def merge(run_dirs, out):
    grouped = {}
    for run_dir in run_dirs:
        for workload, bench in load_dir(run_dir).items():
            grouped.setdefault(workload, []).append(bench)
    os.makedirs(out, exist_ok=True)
    for workload, runs in grouped.items():
        merged = {k: runs[0][k] for k in ("workload", "git_sha", "simd",
                                          "nproc", "seconds", "traced")}
        merged["seeds"] = sorted({s for r in runs for s in r["seeds"]})
        merged["run_seeds"] = [s for r in runs for s in run_seeds(r)]
        merged["runs"] = len(runs)
        merged["correct"] = all(r["correct"] for r in runs)
        merged["attempted"] = sum(r["attempted"] for r in runs)
        merged["failed"] = sum(r["failed"] for r in runs)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [v for r in runs for v in r["metrics"][name]["values"]]
            q1, q3 = quartiles(values)
            metrics[name] = {
                "unit": first["unit"],
                "exact": first["exact"],
                "samples": first["samples"],
                "values": values,
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
            }
        merged["metrics"] = metrics
        with open(os.path.join(out, "BENCH_%s.json" % workload), "w") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
    return 0


def cell(metric):
    return "%.6g [%.6g, %.6g]" % (metric["median"], metric["q1"],
                                  metric["q3"])


def spread(metric):
    median = metric["median"]
    return (metric["q3"] - metric["q1"]) / abs(median) if median else 0.0


def compare(a_dir, b_dir, benchmark_path):
    with open(benchmark_path) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    listed = {m["name"] for m in benchmark["per_layer"]} | set(bounds)
    a, b = load_dir(a_dir), load_dir(b_dir)
    mismatches = flagged = unresolved = 0
    row = "%-17s %-28s %30s %30s %9s  %s"
    print(row % ("workload", "metric", "A median [q1, q3]",
                 "B median [q1, q3]", "change", "verdict"))
    for workload in [w for w in a if w in b]:
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        for name in [n for n in ma if n in mb]:
            x, y = ma[name], mb[name]
            change = (y["median"] - x["median"]) / abs(x["median"]) \
                if x["median"] else 0.0
            verdict = ""
            xs = values_by_seed(a[workload], x)
            ys = values_by_seed(b[workload], y)
            common = set(xs) & set(ys)
            if x["exact"] and y["exact"] and common:
                # A deterministic counter: one value per seed, everywhere.
                if any(len(xs[s] | ys[s]) != 1 for s in common):
                    verdict = "EXACT MISMATCH"
                    mismatches += 1
                else:
                    verdict = "exact match"
            elif name in bounds:
                bound = bounds[name]["bound"]
                higher = bounds[name]["better"] == "higher"
                worse = -change if higher else change
                if all((v > u) == higher and v != u
                       for v in y["values"] for u in x["values"]):
                    verdict = "better in every run"
                elif max(spread(x), spread(y)) > bound:
                    verdict = "unresolved (spread > bound %.3g)" % bound
                    unresolved += 1
                elif worse > bound:
                    verdict = "WORSE (beyond bound %.3g)" % bound
                    flagged += 1
                else:
                    verdict = "within bound %.3g" % bound
            elif name not in listed:
                continue  # Diagnostic detail kept in the BENCH file only.
            print(row % (workload, name, cell(x), cell(y),
                         "%+.2f%%" % (100 * change), verdict))
    print("\n%d exact-counter mismatches, %d beyond bound, %d unresolved"
          % (mismatches, flagged, unresolved))
    return 1 if mismatches else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "merge":
        parser = argparse.ArgumentParser(prog="compare.py merge")
        parser.add_argument("runs", nargs="+")
        parser.add_argument("--out", required=True)
        args = parser.parse_args(sys.argv[2:])
        return merge(args.runs, args.out)
    parser = argparse.ArgumentParser(
        description="Compare two bench_e2e result directories.")
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    return compare(args.a, args.b, args.benchmark)


if __name__ == "__main__":
    sys.exit(main())
