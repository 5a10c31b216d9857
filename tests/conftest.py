"""Deterministic hypothesis profile for the whole suite.

Everything statistical in these tests runs from fixed seeds, so a pass is
reproducible; derandomizing hypothesis keeps the property tests in the same
regime.
"""

import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mhjump import jump
from mhjump.targets import TargetPotential

settings.register_profile(
    "mhjump",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("mhjump")


class CoupledQuadratic(TargetPotential):
    """U(x) = |x|^2 / 2 + c x_0 x_1, d* = 2: a non-separable target, so every
    dU goes through the generic two-evaluation path. Its grad_bound holds for
    |x_i| <= 6, far beyond where the tests' paths go; a path past it would
    raise DominationError."""

    name = "coupled"

    def __init__(self, c=0.3):
        super().__init__(2, 1.0, grad_bound=6.0 * (1.0 + abs(c)))
        self.c = c

    def u(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1) + self.c * x[..., 0] * x[..., 1]

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.c * x[..., ::-1]


@pytest.fixture
def coupled():
    return CoupledQuadratic()


@pytest.fixture
def traced_peak_mb():
    """run() -> the peak of the memory it allocated while traced, in MB (1e6 bytes)."""
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool started while the test runs."""
    sizes = []

    class Spy(jump.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(jump, "ProcessPoolExecutor", Spy)
    return sizes


@pytest.fixture
def isolated():
    """run(code, *args) -> the finished `python -c code *args`, with this
    checkout's package importable. A run still going after 60 s fails the
    test (subprocess.TimeoutExpired) instead of hanging the suite, and every
    process of its session, forked workers included, is killed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(code, *args):
        with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # the session ended with the run
                    pass
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
    return run
