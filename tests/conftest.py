"""Deterministic hypothesis profile for the whole suite.

Everything statistical in these tests runs from fixed seeds, so a pass is
reproducible; derandomizing hypothesis keeps the property tests in the same
regime.
"""

import multiprocessing.pool
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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

    class Spy(multiprocessing.pool.Pool):
        def __init__(self, processes, *args, **kwargs):
            sizes.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Spy)
    return sizes
