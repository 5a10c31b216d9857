#!/usr/bin/env python3
"""The performance trajectory that BENCH_pairs.json records.

    python3 scripts/trajectory.py

For each workload, seed and end-to-end metric, one line per record that
scripts/ab_pairs.py appended, in the order they were appended: the ratio of
the change's median to the parent's, the record's date, the change's short
commit (marked "+" when the change held uncommitted edits), and the verdicts.
Then the product of the ratios whose gain was claimed. A seed fixes a
workload's inputs, so each seed has a trajectory of its own. Absolute
numbers from different sessions drift with the machine; a ratio compares two
commits run side by side, so a chain of them survives the drift.
"""

from __future__ import annotations

import json
import os
import sys

RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCH_pairs.json")


def main():
    with open(RECORDS) as f:
        records = [json.loads(line) for line in f if line.strip()]
    series = {}  # (workload, seed, metric) -> [(date, commit, verdicts of the metric)]
    for record in records:
        change = record["change"]
        commit = (change["commit"] or "none")[:7] + ("+" if change["dirty"] else "")
        for name, verdicts in record["metrics"].items():
            series.setdefault((record["workload"], record["seed"], name), []).append(
                (record["date"][:10], commit, verdicts))
    for (workload, seed, name), rows in series.items():
        print(f"{workload} seed {seed} {name}")
        product, claims = 1.0, 0
        for date, commit, v in rows:
            said = [word for word, on in (("gain claimed", v["gain_claimed"]),
                                          ("REGRESSED", v["regressed"])) if on]
            print(f"  {date} {commit:<8} ratio {v['ratio']:.4f} "
                  f"(won {v['wins']}, lost {v['losses']}) {', '.join(said) or 'no verdict'}")
            if v["gain_claimed"]:
                product, claims = product * v["ratio"], claims + 1
        print(f"  product of {claims} claimed ratio(s): {product:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
