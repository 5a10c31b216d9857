#!/usr/bin/env python3
"""The performance trajectory that BENCH_pairs.json records.

    python3 scripts/trajectory.py [--since YYYY-MM-DD]

For each workload, seed and end-to-end metric, one line per record that
scripts/ab_pairs.py appended, in the order they were appended: the ratio of
the change's median to the parent's, the record's date, the change's short
commit (marked "+" when the change held uncommitted edits), and the verdicts.
A record marked "backfilled" was appended later, from the runs an earlier
change listed in CHANGES.md; its date is the day it was appended.
Then the product of the ratios whose gain was claimed. A seed fixes a
workload's inputs, so each seed has a trajectory of its own. Absolute
numbers from different sessions drift with the machine; a ratio compares two
commits run side by side, so a chain of them survives the drift.

--since keeps only the records appended on or after a date (UTC, as the
records store it). The cut is by date, not by commit, since a record made in
a checkout outside a git work tree holds no commit.

Exit status 0, or 1 when the reader closes stdout before the end, as
`| head` does; the script then stops without a traceback.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCH_pairs.json")


def main(argv=()):
    parser = argparse.ArgumentParser(description="The performance trajectory of BENCH_pairs.json.")
    parser.add_argument("--since", type=datetime.date.fromisoformat, metavar="YYYY-MM-DD",
                        help="only the records appended on or after this date (UTC)")
    since = parser.parse_args(argv).since
    with open(RECORDS) as f:
        records = [json.loads(line) for line in f if line.strip()]
    if since is not None:
        records = [r for r in records if r["date"][:10] >= since.isoformat()]
    series = {}  # (workload, seed, metric) -> [(date, commit, verdicts of the metric)]
    for record in records:
        change = record["change"]
        commit = (change["commit"] or "none")[:7] + ("+" if change["dirty"] else "")
        for name, verdicts in record["metrics"].items():
            series.setdefault((record["workload"], record["seed"], name), []).append(
                (record["date"][:10], commit, verdicts, record.get("backfilled", False)))
    for (workload, seed, name), rows in series.items():
        print(f"{workload} seed {seed} {name}")
        product, claims = 1.0, 0
        for date, commit, v, backfilled in rows:
            said = [word for word, on in (("gain claimed", v["gain_claimed"]),
                                          ("REGRESSED", v["regressed"]),
                                          ("backfilled", backfilled)) if on]
            print(f"  {date} {commit:<8} ratio {v['ratio']:.4f} "
                  f"(won {v['wins']}, lost {v['losses']}) {', '.join(said) or 'no verdict'}")
            if v["gain_claimed"]:
                product, claims = product * v["ratio"], claims + 1
        print(f"  product of {claims} claimed ratio(s): {product:.4f}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:  # the Python docs' recipe: no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
