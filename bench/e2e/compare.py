#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: a parent (A) and a change (B).

    python3 bench/e2e/compare.py A_DIR B_DIR [--bench BENCHMARK.json]

Each directory holds the untraced result files apnn_bench writes
(<workload>-s<seed>-t0.json, e.g. from `bench/e2e/run.sh --out DIR`). Runs
of the two sides are paired by workload and seed. For every workload and
end-to-end metric it applies the rule the benchmark is judged by:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's interquartile spread, at least 10 pairs were run, and
              the change failed no more requests than the parent;
  worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  fewer than 10 pairs, or the parent's own spread is wider than
              the bound and not every change run beats every parent run;
  same        otherwise: within the bound.

It prints one row per workload, then the medians behind each verdict, and
exits 1 when any metric is worse. Results from hosts with different
hardware_threads are refused (exit 2): their numbers are not comparable.
Run the pairs in alternating order (A then B, then B then A, ...); each
result records when it started, and the script warns when one side always
ran first.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as f:
            r = json.load(f)
        runs[(r["workload"], r["seed"])] = r
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, a, b, failed_a, failed_b):
    """a, b: paired value lists (same order). Returns (verdict, detail)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    med_a, med_b = statistics.median(a), statistics.median(b)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(1 for x, y in zip(a, b) if better(y, x))
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = change if lower else -change
    spread = iqr(a) / med_a if med_a else 0.0
    detail = {
        "pairs": len(a), "median_a": med_a, "median_b": med_b,
        "change": change, "wins": wins, "spread_a": spread,
    }
    if worse_by > bound:
        return "worse", detail
    if len(a) < MIN_PAIRS:
        return "unresolved", detail
    if (wins >= WIN_SHARE * len(a) and better(med_b, med_a)
            and abs(med_b - med_a) > iqr(a) and failed_b <= failed_a):
        return "better", detail
    all_beat = all(better(y, x) for y in b for x in a)
    if spread > bound and not all_beat:
        return "unresolved", detail
    return "same", detail


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(here, "..", "..",
                                                    "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    runs_a, runs_b = load_runs(args.parent), load_runs(args.change)
    widths = {r["host"]["hardware_threads"]
              for r in list(runs_a.values()) + list(runs_b.values())}
    if len(widths) > 1:
        print(f"refusing to compare: results come from hosts with "
              f"hardware_threads {sorted(widths)}", file=sys.stderr)
        return 2

    any_worse = False
    details = []
    workloads = sorted({w for w, _ in runs_a} | {w for w, _ in runs_b})
    for w in workloads:
        seeds = sorted(s for (x, s) in runs_a if x == w and (x, s) in runs_b)
        pa = [runs_a[(w, s)] for s in seeds]
        pb = [runs_b[(w, s)] for s in seeds]
        a_first = sum(1 for x, y in zip(pa, pb)
                      if x.get("started_unix", 0) < y.get("started_unix", 0))
        if len(seeds) > 1 and a_first in (0, len(seeds)):
            print(f"warning: {w}: one side ran first in every pair",
                  file=sys.stderr)
        failed_a = sum(r["result"]["failed"] for r in pa)
        failed_b = sum(r["result"]["failed"] for r in pb)
        row = []
        for m in metrics:
            name = m["name"]
            a = [r["result"]["metrics"][name]["value"] for r in pa]
            b = [r["result"]["metrics"][name]["value"] for r in pb]
            if not a:
                row.append(f"{name}=unresolved")
                continue
            v, d = verdict(m, a, b, failed_a, failed_b)
            any_worse |= v == "worse"
            row.append(f"{name}={v}")
            details.append((w, name, m["unit"], v, d))
        print(f"{w} ({len(seeds)} pairs, failed {failed_a} -> {failed_b}): "
              + " ".join(row))

    print()
    print(f"{'workload':18} {'metric':12} {'parent':>12} {'change':>12} "
          f"{'change%':>8} {'wins':>6} {'spread%':>8}  verdict")
    for w, name, unit, v, d in details:
        print(f"{w:18} {name:12} {d['median_a']:12.5g} {d['median_b']:12.5g} "
              f"{100 * d['change']:8.2f} {d['wins']:3d}/{d['pairs']:<2d} "
              f"{100 * d['spread_a']:8.2f}  {v} ({unit})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
