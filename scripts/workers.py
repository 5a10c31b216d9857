#!/usr/bin/env python3
"""Wall time, CPU and memory of both engines at given `threads`, alternating.

    python3 scripts/workers.py --threads 1 2 --repeats 3

Three jobs: "jump", criterion 6's nine jump cells (m1, m2 and mix(0.5) at
eps 1e-1, 1e-2 and 1e-3 on the d=1 quadratic from x0 = 1, observed at
t = 0.5 and 1, 10k paths, seed 314159, with their accepted-event counts);
"langevin", the oracles workload's d=3 Langevin reference (4096 paths from
(1, -0.5, 2) to t = 1 at dt = 1e-4, seed 314159); and "occupation", the
occupation workload's two cells (m1 and m2 on the d=1 double well at eps
0.05, 256 paths, half from 1.48946 and half from -1.48946 as perfbench
places them, unrescaled, observed at 80 + 25k for k < 200, seed 314159,
with their counts), whose 1.3e6 and 2.2e6 expected candidates split each
into one block per worker at threads 2 (jump.SPLIT_CANDIDATES). Each repeat
runs every job once at each thread count, in the order given, and each run
is a fresh process, so that its memory figures are its own. A run prints:

- wall_s, the job's wall time, imports excluded;
- cpu_s, the CPU time of the run's process and of its reaped worker
  processes (RUSAGE_SELF plus RUSAGE_CHILDREN), user plus system;
- parent_mb and worker_mb, the peak RSS of the run's process and of its
  largest worker (0 when the job started none);
- sha256, one digest over the job's samples and counts.

Then the median of each metric per job and thread count, and for each job
whether every run gave the same digest. --paths, --langevin-paths and --dt
shrink the jobs for a quick look; the defaults are the sizes above.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)  # this checkout's package

import numpy as np  # noqa: E402
from mhjump import (  # noqa: E402
    BoxedQuadratic,
    GaussianProposal,
    GeneratorKind,
    SmoothedDoubleWell,
    simulate_ensemble,
    simulate_langevin,
)

SEED = 314159
EPS_GRID = (1e-1, 1e-2, 1e-3)
OBS = (0.5, 1.0)
LANGEVIN_X0 = (1.0, -0.5, 2.0)
OCC_WELL = 1.48946
OCC_GRID = 80.0 + 25.0 * np.arange(200)
METRICS = ("wall_s", "cpu_s", "parent_mb", "worker_mb")
JOBS = ("jump", "langevin", "occupation")


def jump_cells(threads, paths):
    """The nine cells' samples and counts, in kind-major order."""
    arrays = []
    for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)):
        for eps in EPS_GRID:
            ens, counts = simulate_ensemble(kind, BoxedQuadratic(d_star=1), GaussianProposal(eps),
                                            np.array([1.0]), OBS, paths, SEED, threads=threads,
                                            return_counts=True)
            arrays += [ens.samples, counts]
    return arrays


def occupation_cells(threads, paths):
    """m1's and m2's samples and counts, the starts drawn as perfbench's setup draws them."""
    upper = np.random.default_rng(SEED).permutation(paths) < paths // 2
    starts = np.where(upper, OCC_WELL, -OCC_WELL)[:, None]
    arrays = []
    for kind in (GeneratorKind.m1(), GeneratorKind.m2()):
        ens, counts = simulate_ensemble(kind, SmoothedDoubleWell(d_star=1), GaussianProposal(0.05),
                                        starts, OCC_GRID, paths, SEED, rescaled=False,
                                        threads=threads, return_counts=True)
        arrays += [ens.samples, counts]
    return arrays


def langevin_reference(threads, paths, dt):
    return [simulate_langevin(BoxedQuadratic(d_star=3), np.array(LANGEVIN_X0), OBS, paths, dt,
                              SEED, threads=threads).samples]


def measure(job, threads, paths, langevin_paths, dt, occupation_paths=256):
    """One run of job in this process: its metrics and digest."""
    before = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    t0 = time.perf_counter()
    if job == "jump":
        arrays = jump_cells(threads, paths)
    elif job == "occupation":
        arrays = occupation_cells(threads, occupation_paths)
    else:
        arrays = langevin_reference(threads, langevin_paths, dt)
    wall = time.perf_counter() - t0
    after = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return {
        "wall_s": wall,
        "cpu_s": sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime
                     for a, b in zip(after, before)),
        "parent_mb": after[0].ru_maxrss * 1024 / 1e6,  # Linux reports KiB
        "worker_mb": after[1].ru_maxrss * 1024 / 1e6,
        "sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--jobs", nargs="+", choices=JOBS, default=list(JOBS))
    ap.add_argument("--paths", type=int, default=10_000)
    ap.add_argument("--langevin-paths", type=int, default=4096)
    ap.add_argument("--dt", type=float, default=1e-4)
    ap.add_argument("--one", nargs=2, metavar=("JOB", "THREADS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = (args.paths, args.langevin_paths, args.dt)
    if args.one:
        print(json.dumps(measure(args.one[0], int(args.one[1]), *sizes)))
        return 0
    runs = {}  # (job, threads) -> [metrics]
    for r in range(args.repeats):
        for job in args.jobs:
            for threads in args.threads:
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--one", job, str(threads),
                     "--paths", str(args.paths), "--langevin-paths", str(args.langevin_paths),
                     "--dt", repr(args.dt)],
                    check=True, capture_output=True, text=True).stdout
                m = json.loads(out)
                runs.setdefault((job, threads), []).append(m)
                print(f"repeat {r + 1} {job:<8} threads={threads} "
                      + " ".join(f"{k}={m[k]:.3f}" for k in METRICS) + f" sha256={m['sha256'][:16]}")
    for (job, threads), ms in runs.items():
        print(f"median {job:<8} threads={threads} "
              + " ".join(f"{k}={statistics.median(m[k] for m in ms):.3f}" for k in METRICS))
    status = 0
    for job in args.jobs:
        digests = [m["sha256"] for (j, _), ms in runs.items() if j == job for m in ms]
        same = len(set(digests)) == 1
        status |= not same
        print(f"{job}: {'one digest' if same else 'DIGESTS DIFFER'} over {len(digests)} runs")
    return status


if __name__ == "__main__":
    sys.exit(main())
