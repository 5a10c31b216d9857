"""scripts/workers.py: the timing of both engines at given `threads`."""

import importlib.util
import os

import numpy as np

from mhjump import jump, langevin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workers():
    spec = importlib.util.spec_from_file_location(
        "workers", os.path.join(ROOT, "scripts", "workers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_both_jobs_give_one_digest_at_threads_1_and_2(monkeypatch, pool_sizes):
    # tiny jobs, with blocks small enough, and the jump cells' work worth a
    # worker per candidate, that threads=2 forks two workers
    workers = load_workers()
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(jump, "SPLIT_CANDIDATES", 1.0)
    monkeypatch.setattr(jump, "BLOCK_PATHS", 16)
    monkeypatch.setattr(langevin, "LANGEVIN_BLOCK", 8)
    for job in ("jump", "langevin"):
        one, two = (workers.measure(job, threads, 40, 20, 1e-2) for threads in (1, 2))
        assert one["sha256"] == two["sha256"]
        assert all(np.isfinite(one[k]) and one[k] >= 0.0 for k in workers.METRICS)
    assert pool_sizes == [2] * 10  # nine jump cells, one reference


def test_the_occupation_job_splits_at_threads_2_with_one_digest(monkeypatch, pool_sizes):
    # 16 paths, with the split's constant at 1 so that threads=2 runs each
    # cell as one block of 8 paths on each of two workers
    workers = load_workers()
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(jump, "SPLIT_CANDIDATES", 1.0)
    one, two = (workers.measure("occupation", threads, 40, 20, 1e-2, 16) for threads in (1, 2))
    assert one["sha256"] == two["sha256"]
    assert all(np.isfinite(two[k]) and two[k] >= 0.0 for k in workers.METRICS)
    assert pool_sizes == [2, 2]  # m1, m2


def test_a_batch_prints_each_run_and_one_digest_per_job(capsys):
    workers = load_workers()
    assert workers.main(["--repeats", "1", "--jobs", "langevin", "--langevin-paths", "20",
                         "--dt", "1e-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:4] for line in lines[:2]] == [
        ["repeat", "1", "langevin", f"threads={t}"] for t in (1, 2)]
    assert lines[-1] == "langevin: one digest over 2 runs"
