#!/usr/bin/env python3
"""Benchmark for mhjump: three workloads run as single-threaded library calls.

    python3 perfbench/run.py --workload ks_sweep --seed 314159 --seconds 30 --trace 0

Run it from the repository root; the library is imported from src/. The
runner starts a setup-only process SETUP_PROBES times before and as often
after the workload process, each from a fresh interpreter, and times each
from its start to the moment it is ready for its first timed call; setup_s
is the median of those times. Probes on both sides of the workload sample
the machine at different moments of the run. The workload process repeats one iteration of the workload,
with the same inputs, until --seconds would be exceeded (at least
MIN_ITERATIONS times) and reports the median wall and CPU time of an
iteration and its own peak RSS.

With --trace 1 untraced and traced iterations alternate. The per-layer
metrics come from the traced iteration of median wall time, the spans of
every traced iteration go to perfbench/out/spans-<workload>-seed<n>.jsonl,
and tracing_overhead_s is the traced minus the untraced median wall time.

Every run writes perfbench/out/records-<workload>-seed<n>.json with the
sha256 of each ensemble's sample bytes from the first iteration.

Stdout holds the gate results, a table of every metric with its unit, and
as its last line the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 2
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
READY = "@@ready"
RESULT = "@@result "

from metrics import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    def nonnegative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=nonnegative, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=positive, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# workload process


def worker(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import resource
    import tempfile

    from adapter import Library
    from gates import Gates
    from metrics import per_layer
    from spans import NullTracer, Tracer, write_jsonl
    from workloads import WORKLOADS as RUNNERS

    workload = RUNNERS[args.workload]
    inputs = workload.setup(args.seed)
    print(READY, flush=True)
    if args.role == "probe":
        return 0

    gates = Gates(lambda line: print(line, flush=True))
    walls, cpus = [], []
    traced = []  # (root wall, spans) per traced iteration
    records = None
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        i = 0
        while True:
            tracing = bool(args.trace) and i % 2 == 1
            tracer = Tracer(f"{args.workload}-seed{args.seed}-it{i}") if tracing else NullTracer()
            lib = Library(tracer)
            w0, c0 = time.perf_counter(), time.process_time()
            if tracing:
                with tracer.span("bench.iteration", args.workload) as root:
                    workload.run(lib, inputs, gates, scratch)
                traced.append((root.duration, tracer.spans))
            else:
                workload.run(lib, inputs, gates, scratch)
                walls.append(time.perf_counter() - w0)
                cpus.append(time.process_time() - c0)
            last = time.perf_counter() - w0
            gates.verbose = False
            if records is None:
                records = lib.records
            i += 1
            enough = (len(traced) >= MIN_TRACED_PAIRS and len(walls) >= MIN_TRACED_PAIRS
                      if args.trace else len(walls) >= MIN_ITERATIONS)
            if enough and time.perf_counter() - start + last > args.seconds:
                break

    tag = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT_DIR, f"records-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "calls": records}, fh, indent=1)
    result = {
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": gates.attempted,
        "failed": gates.failed,
    }
    if args.trace:
        write_jsonl(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"),
                    [s for _, spans in traced for s in spans])
        traced.sort(key=lambda item: item[0])
        root_wall, spans = traced[(len(traced) - 1) // 2]
        layer = per_layer(spans)
        layer["tracing_overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(walls))
        result.update(root_wall=root_wall, per_layer=layer)
    print(RESULT + json.dumps(result), flush=True)
    return 0


# runner


def spawn(args, role):
    """Run one child; return (seconds from start to ready, result or None)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    setup = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == READY:
                setup = time.perf_counter() - t0
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None or (role == "worker" and result is None):
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return setup, result


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        return worker(args)
    try:
        setups = [spawn(args, "probe")[0] for _ in range(SETUP_PROBES)]
        own_setup, res = spawn(args, "worker")
        setups += [own_setup] + [spawn(args, "probe")[0] for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(res["per_layer"])
        values["trace.setup_s"] = own_setup
        values["trace.wall_s"] = own_setup + res["root_wall"]
        wanted = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(res["cpus"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}

    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload} seed={args.seed}: untraced iteration walls "
          f"{', '.join(f'{w:.3f}' for w in res['walls'])} s; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  {'checks_failed_frac':<40} {failed / attempted:.4g} ({failed} of {attempted} gates)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
