"""Run the benchmark many times per workload and report its steadiness.

    python3 perfbench/sweep.py [--runs 10] [--against OTHER_CHECKOUT] [--out FILE]

Every workload of BENCHMARK.json runs with seeds 1, 2, ..., runs and the
settings of BENCHMARK.json.  For every end-to-end metric the sweep prints the
median, the quartiles and IQR / median against the metric's bound, and flags
every spread above its bound, that of setup_s included.  With ``--against``, every seed also runs in the other
checkout, the two sides alternating which goes first, and the two result sets
("base" = the other checkout, "change" = this one) are compared with
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import compare, spread  # noqa: E402


def one_run(checkout: str, bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def report(bench: dict, runs: dict[str, list[dict]]) -> int:
    flagged = 0
    for workload, rows in runs.items():
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in rows})
        walls = [r["wall_s"] for r in rows]
        print(f"{workload}: {len(rows)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in rows)}, failed/attempted {' '.join(shares)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, rel = spread([r["metrics"][name] for r in rows])
            flag = "SPREAD > BOUND" if rel > bound else ("ok" if rel < bound / 3 else "within bound")
            flagged += flag == "SPREAD > BOUND"
            print(f"  {name:12s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"IQR/median {rel:.2%} bound {bound:.0%}  {flag}")
    return flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--against", default=None, help="another checkout to alternate with")
    parser.add_argument("--out", default=None, help="write the result sets as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sets: dict[str, dict[str, list[dict]]] = {"base": {}, "change": {}} if args.against else {"base": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(args.runs):
            seed = i + 1
            sides = [("base", ROOT)] if not args.against else [("base", args.against), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            for label, checkout in sides:
                row = one_run(checkout, bench, workload, seed)
                sets[label].setdefault(workload, []).append(row)
                print(f"[{label}] {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in row["metrics"].items()) +
                    f" failed {row['failed']}/{row['attempted']} wall {row['wall_s']:.1f}s", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"bench": bench, "sets": sets}, fh, indent=1)
    status = 0
    for label, runs in sets.items():
        print(f"== {label} ==")
        status |= report(bench, runs) > 0
    if args.against:
        print("== change vs base ==")
        status |= compare(bench, sets["base"], sets["change"])
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
