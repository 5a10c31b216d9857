#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark on two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload ks_sweep --seed 314159 \\
        --pairs 10 --seconds 10

Each run is `python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0` inside one checkout, with that checkout's perfbench/ and src/.
Odd-numbered pairs run the parent first, even-numbered pairs the change.
The script prints each run's four end-to-end metrics, each side's median and
quartiles, and the pairs whose wall_s the change won (lower is better; ties
count for neither side). A gain in wall_s is claimed only when the change
wins at least nine tenths of the pairs and its median beats the parent's by
more than the distance between the parent's quartiles. Exit status 0 when
the claim holds and every run passed its gates, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def run_once(checkout, args):
    """One benchmark run in checkout: its metric values and whether its gates passed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {m: result["metrics"][m]["value"] for m in METRICS}, result["correct"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    all_correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, correct = run_once(sides[side], args)
            all_correct &= correct
            runs[side].append(values)
            print(f"pair {i + 1} {side:<6} " + " ".join(f"{m} {values[m]:.4f}" for m in METRICS)
                  + ("" if correct else " GATES FAILED"), flush=True)

    for m in METRICS:
        for side in sides:
            q1, q2, q3 = quartiles([r[m] for r in runs[side]])
            print(f"{m:<12} {side:<6} median {q2:.4f} [{q1:.4f}, {q3:.4f}]")
    parent = [r["wall_s"] for r in runs["parent"]]
    change = [r["wall_s"] for r in runs["change"]]
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    gap = p2 - statistics.median(change)
    won = wins >= 0.9 * args.pairs and gap > p3 - p1
    print(f"wall_s: change won {wins} of {args.pairs} pairs ({losses} lost); medians "
          f"{p2:.4f} -> {p2 - gap:.4f} ({-gap / p2:+.1%}), a gap of {gap:.4f} against the "
          f"parent's IQR {p3 - p1:.4f}: gain {'claimed' if won else 'not shown'}")
    return 0 if won and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
