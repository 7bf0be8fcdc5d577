"""Compare two result sets of the benchmark, row by row per workload.

    python3 perfbench/compare.py AB.json

AB.json is what ``sweep.py --against`` writes: a "base" and a "change" set
whose runs are paired by seed, the two sides of each pair run back to back in
alternating order.  For every end-to-end metric and workload the verdict is:

- ``unresolved`` when either side's spread (IQR / median) is wider than the
  metric's bound, unless every change run reads better than every base run;
- ``worse`` when the change's median is worse than the base median by more
  than the bound;
- ``better`` when the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the base's IQR;
- ``same`` otherwise.

Exit status 1 when any row is worse or unresolved, or when the failed share
rises for any seed.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median) with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> tuple[str, str]:
    sign = 1.0 if lower_is_better else -1.0
    med_a, q1_a, q3_a, spread_a = spread(base)
    med_b, _, _, spread_b = spread(change)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    all_better = (max(change) < min(base)) if lower_is_better else (min(change) > max(base))
    detail = (f"base {med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}] change {med_b:.6g} "
              f"({worse_by:+.1%} worse) spread {spread_a:.1%}/{spread_b:.1%} bound {bound:.0%} wins {wins}/{len(pairs)}")
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved", detail
    if worse_by > bound:
        return "worse", detail
    if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (q3_a - q1_a):
        return "better", detail
    return "same", detail


def compare(bench: dict, base: dict, change: dict) -> int:
    bad = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        runs_a = {r["seed"]: r for r in base.get(name, [])}
        runs_b = {r["seed"]: r for r in change.get(name, [])}
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            print(f"{name}: no paired runs")
            bad += 1
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [runs_a[s]["metrics"][key] for s in seeds]
            b = [runs_b[s]["metrics"][key] for s in seeds]
            result, detail = verdict(a, b, metric["bound"], metric["better"] == "lower")
            bad += result in ("worse", "unresolved")
            print(f"{name:12s} {key:12s} {result:10s} {detail}")
        for s in seeds:
            share_a = runs_a[s]["failed"] / runs_a[s]["attempted"]
            share_b = runs_b[s]["failed"] / runs_b[s]["attempted"]
            if share_b > share_a:
                bad += 1
                print(f"{name:12s} seed {s}: failed share rose {runs_a[s]['failed']}/{runs_a[s]['attempted']}"
                      f" -> {runs_b[s]['failed']}/{runs_b[s]['attempted']}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    if "change" not in doc["sets"]:
        print(f"{argv[0]} holds one result set; compare needs a sweep run with --against")
        return 2
    return compare(doc["bench"], doc["sets"]["base"], doc["sets"]["change"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
