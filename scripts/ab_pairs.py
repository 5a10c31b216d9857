#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark on two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload ks_sweep --seed 314159 \\
        --pairs 10 --seconds 10

Each run is `python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0` inside one checkout, with that checkout's perfbench/ and src/.
Odd-numbered pairs run the parent first, even-numbered pairs the change.
The end-to-end metrics, with the direction that is better and the bound by
which each may worsen, are those of the parent checkout's BENCHMARK.json.
The script prints each run's metrics, each side's median and quartiles, and
for every metric the pairs the change won (ties count for neither side) and
two verdicts:

- a gain is claimed only when the change wins at least nine tenths of the
  pairs and its median beats the parent's by more than the distance between
  the parent's quartiles;
- a regression is flagged when the change's median is worse than the
  parent's by more than the metric's relative bound.

After the batch the script compares the two checkouts' records of the
batch's workload and seed, perfbench/out/records-<workload>-seed<seed>.json,
which hold a digest of every ensemble the workload made: a change that
claims to keep the bytes keeps these files identical.

Each batch appends one record, one line of JSON, to BENCH_pairs.json at the
root of the repository that holds this script; the file is only ever
appended to, so a wrong record is corrected by a later one that says so. A
record holds the commit of each checkout (with a digest of its uncommitted
changes, if any), the workload, seed, seconds and pair count, every run's
metrics, and for each metric both sides' medians and quartiles, the ratio of
the medians, the pairs won and lost, and both verdicts, and
records_identical: true or false, or null when either checkout lacks the
records file.

Exit status 0 when every run passed its gates, no metric regressed and the
records are not found to differ, 1 otherwise. A run that exits non-zero
ends the batch at once, with status 1, no record, and a message that names
its side and pair and shows the last lines of its stderr. A batch needs at least two pairs, since its verdicts
rest on quartiles.
"""

from __future__ import annotations

import argparse
import datetime
import filecmp
import hashlib
import json
import os
import statistics
import subprocess
import sys

RECORDS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCH_pairs.json")
STDERR_LINES = 10  # lines of a failed run's stderr that the batch's message shows


def end_to_end_metrics(checkout):
    """(name, better, bound) of each end-to-end metric in checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"], m["bound"]) for m in json.load(f)["end_to_end"]]


def run_once(checkout, names, args):
    """One benchmark run in checkout: its metric values and whether its gates passed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {m: result["metrics"][m]["value"] for m in names}, result["correct"]


def records_identical(checkouts, workload, seed):
    """Whether the checkouts' records of workload and seed hold the same
    bytes; None when either file is missing."""
    paths = [os.path.join(c, "perfbench", "out", f"records-{workload}-seed{seed}.json")
             for c in checkouts]
    if not all(map(os.path.isfile, paths)):
        return None
    return filecmp.cmp(*paths, shallow=False)


def at_least_two(text):
    """--pairs: an integer >= 2, so that each side has quartiles."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"a batch needs at least 2 pairs, got {n}")
    return n


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def checkout_identity(checkout):
    """The checkout's HEAD commit, whether tracked files differ from it, and
    the sha256 of that difference; commit None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              check=True).stdout
    try:
        commit = git("rev-parse", "HEAD").decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None, "diff_sha256": None}
    diff = git("diff", "--binary", "HEAD")
    return {"commit": commit, "dirty": bool(diff),
            "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def judge(name, better, bound, parent, change):
    """Print one metric's verdicts; returns them with the numbers behind them."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    gain = sign * (p2 - c2)
    claimed = wins >= 0.9 * len(parent) and gain > p3 - p1
    regressed = -gain > bound * abs(p2)
    print(f"{name}: change won {wins} of {len(parent)} pairs ({losses} lost); medians "
          f"{p2:.4f} -> {c2:.4f} ({(c2 - p2) / p2:+.1%}), a gain of {gain:.4f} against the "
          f"parent's IQR {p3 - p1:.4f}: gain {'claimed' if claimed else 'not shown'}; "
          f"{'REGRESSED past' if regressed else 'within'} its bound {bound:.0%}")
    return {"better": better, "bound": bound,
            "parent": {"median": p2, "q1": p1, "q3": p3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "ratio": c2 / p2, "wins": wins, "losses": losses,
            "gain_claimed": claimed, "regressed": regressed}


def append_record(record):
    """Append one batch's record as one line of JSON, flushed to disk."""
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=at_least_two, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)

    metrics = end_to_end_metrics(args.parent)
    names = [name for name, _, _ in metrics]
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    all_correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                values, correct = run_once(sides[side], names, args)
            except subprocess.CalledProcessError as e:
                tail = "\n".join(e.stderr.splitlines()[-STDERR_LINES:])
                print(f"pair {i + 1} {side}: the run in {sides[side]} exited with status "
                      f"{e.returncode}; the batch stops with no record. The end of its "
                      f"stderr:\n{tail}", file=sys.stderr)
                return 1
            all_correct &= correct
            runs[side].append(values)
            print(f"pair {i + 1} {side:<6} " + " ".join(f"{m} {values[m]:.4f}" for m in names)
                  + ("" if correct else " GATES FAILED"), flush=True)

    for m in names:
        for side in sides:
            q1, q2, q3 = quartiles([r[m] for r in runs[side]])
            print(f"{m:<12} {side:<6} median {q2:.4f} [{q1:.4f}, {q3:.4f}]")
    verdicts = {name: judge(name, better, bound, [r[name] for r in runs["parent"]],
                            [r[name] for r in runs["change"]]) for name, better, bound in metrics}
    identical = records_identical(sides.values(), args.workload, args.seed)
    print(f"records-{args.workload}-seed{args.seed}.json: "
          + {True: "identical", False: "DIFFER", None: "missing in a checkout"}[identical])
    append_record({
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "parent": checkout_identity(args.parent), "change": checkout_identity(args.change),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "all_gates_passed": all_correct, "runs": runs, "metrics": verdicts,
        "records_identical": identical,
    })
    print(f"appended the batch's record to {RECORDS}")
    regressed = any(v["regressed"] for v in verdicts.values())
    return 0 if all_correct and not regressed and identical is not False else 1


if __name__ == "__main__":
    sys.exit(main())
