"""Reference integrator: step formula, OU oracle, observation grid, determinism."""

import math
import multiprocessing
import threading

import numpy as np
import pytest

from mhjump import (
    BoxedQuadratic,
    ConfigurationError,
    SmoothedDoubleWell,
    em_step,
    ou_exact_marginal,
    simulate_langevin,
)
from mhjump import jump, langevin, path_stream
from mhjump.jump import DOMAIN_LANGEVIN
from mhjump.langevin import default_dt
from mhjump.verify import fit_loglog_slope


def test_langevin_dt_validation():
    target = BoxedQuadratic(d_star=1)
    simulate_langevin(target, np.array([1.0]), [0.01], 3, 1e-3, 0)
    for dt in (0.0, float("nan"), math.inf):
        with pytest.raises(ConfigurationError, match="dt"):
            simulate_langevin(target, np.array([1.0]), [0.01], 3, dt, 0)


def test_default_dt():
    assert default_dt(BoxedQuadratic(d_star=1, T=1.0)) == 1e-3
    assert np.isclose(default_dt(BoxedQuadratic(d_star=1, T=0.1)), 2e-4)
    assert default_dt(BoxedQuadratic(d_star=3, T=1.0)) == 1e-3


def test_em_step_formula():
    target = BoxedQuadratic(d_star=2, T=0.5)
    x = np.array([1.0, -2.0])
    dw = np.array([0.3, 0.1])
    got = em_step(target, x, 0.01, dw)
    want = x - x / (2.0 * 0.5 * 2) * 0.01 + dw / math.sqrt(2.0)
    assert np.allclose(got, want, rtol=1e-14)


LOOP_CASES = pytest.mark.parametrize("target,x0", [
    (BoxedQuadratic(d_star=3), [1.0, -0.5, 2.0]),
    (SmoothedDoubleWell(d_star=2), [1.0, -1.0]),
], ids=["quadratic-d3", "doublewell-d2"])


@LOOP_CASES
def test_langevin_steps_as_a_loop_of_em_step(target, x0):
    # the engine steps in place; a loop of em_step calls over the same draws
    # gives the same bytes. The run ends inside the second noise chunk.
    n, dt, seed = 5, 1e-3, 11
    chunk = langevin._chunk_steps(target.d_star)
    steps = chunk + 44
    ens = simulate_langevin(target, np.array(x0), [steps // 2 * dt, steps * dt], n, dt, seed)
    rng = path_stream(seed, DOMAIN_LANGEVIN, 0)
    x, want, s = np.tile(x0, (n, 1)), [], 0
    while s < steps:
        m = min(chunk, steps - s)
        noise = rng.standard_normal((m, langevin.LANGEVIN_BLOCK, target.d_star))[:, :n]
        for dw in noise * math.sqrt(dt):
            x = em_step(target, x, dt, dw)
            s += 1
            if s in (steps // 2, steps):
                want.append(x)
    assert np.array_equal(ens.samples, np.stack(want, axis=1))


@LOOP_CASES
def test_langevin_bytes_do_not_depend_on_the_chunk(monkeypatch, target, x0):
    # the budget patched so that a chunk is 1 or 7 steps; 300 steps cross the
    # default chunk of the d3 case too, and 1030 paths make a partial group
    def run():
        return simulate_langevin(target, np.array(x0), [0.15, 0.3], 1030, 1e-3, 11).samples

    base = run()
    for steps in (1, 7):
        rows = -(-steps * langevin.LANGEVIN_BLOCK * target.d_star // jump.TAPE_COLS)
        monkeypatch.setattr(jump, "TAPE_ROWS", rows)
        assert langevin._chunk_steps(target.d_star) == steps
        assert np.array_equal(run(), base)


def test_langevin_working_memory_does_not_grow_with_d(traced_peak_mb):
    # at d=64 a chunk is 12 steps, 6.3 MB of noise, not 256 steps (134 MB);
    # samples are 1 MB
    d = 64
    assert langevin._chunk_steps(d) == 12
    peak = traced_peak_mb(lambda: simulate_langevin(
        BoxedQuadratic(d_star=d), np.zeros(d), [0.128, 0.256], 1024, 1e-3, 0))
    assert peak < 16.0


def test_ou_oracle_values():
    m, v = ou_exact_marginal(1.0, 0.0, 1.0)
    assert m == 1.0 and v == 0.0
    m, v = ou_exact_marginal(1.0, 1e9, 0.7, d_star=2)
    assert abs(m) < 1e-12 and np.isclose(v, 0.7)
    m, v = ou_exact_marginal(2.0, 1.0, 1.0)
    assert np.isclose(m, 2.0 * math.exp(-0.5))
    assert np.isclose(v, 1.0 - math.exp(-1.0))


def test_em_mean_weak_error_is_first_order():
    # for linear drift the ensemble mean is the noise-free recursion, so the
    # EM mean error at t = 1 can be measured exactly, no Monte Carlo
    target = BoxedQuadratic(d_star=1, T=1.0)
    exact = ou_exact_marginal(1.0, 1.0, 1.0)[0]
    grids = [1e-2, 1e-3, 1e-4]
    errs = []
    for dt in grids:
        x = np.array([1.0])
        for _ in range(round(1.0 / dt)):
            x = em_step(target, x, dt, np.zeros(1))
        errs.append(abs(float(x[0]) - exact))
    slope = fit_loglog_slope(grids, errs)
    assert 0.7 <= slope <= 1.3


def test_langevin_matches_ou_marginals():
    target = BoxedQuadratic(d_star=1)
    n = 4000
    ens = simulate_langevin(target, np.array([1.0]), [0.5, 1.0], n, 1e-3, 77)
    for k, t in enumerate([0.5, 1.0]):
        m, v = ou_exact_marginal(1.0, t, 1.0)
        xs = ens.marginal(k)
        assert abs(xs.mean() - m) <= 4.0 * math.sqrt(v / n)
        m4 = np.mean((xs - xs.mean()) ** 4)
        assert abs(xs.var(ddof=1) - v) <= 4.0 * math.sqrt((m4 - v * v) / n)


def test_langevin_observation_grid():
    target = BoxedQuadratic(d_star=2)
    ens = simulate_langevin(target, np.array([0.3, -0.3]), [0.0, 0.25], 5, 1e-2, 1)
    assert np.array_equal(ens.samples[:, 0, :], np.tile([0.3, -0.3], (5, 1)))
    assert ens.kind == "langevin" and ens.alpha is None and ens.epsilon == 1e-2
    # an off-step observation time is refused, never snapped to a step
    for obs, dt in (([0.2501], 1e-2), ([0.0001, 0.00015], 1e-4)):
        with pytest.raises(ConfigurationError, match="whole number"):
            simulate_langevin(target, np.array([0.3, -0.3]), obs, 5, dt, 1)
    # rounding in t / dt is not an offset
    on_grid = simulate_langevin(target, np.array([0.3, -0.3]), [0.1, 0.3, 0.7], 5, 1e-2, 1)
    assert on_grid.samples.shape == (5, 3, 2)


def test_an_off_grid_refusal_names_plain_numbers():
    # not numpy's reprs, "np.float64(1.0)"
    with pytest.raises(ConfigurationError, match=r"observation time 1\.0 is 3\.3333333333333335 "
                                                 r"steps of dt=0\.3, not a whole number"):
        simulate_langevin(BoxedQuadratic(d_star=1), np.zeros(1), [1.0], 5, 0.3, 0)


def test_langevin_deterministic_across_threads(monkeypatch):
    target = SmoothedDoubleWell(d_star=2)
    args = (target, np.array([1.0, -1.0]), [0.1, 0.3], 2100, 1e-2, 123)
    monkeypatch.setattr(langevin, "LANGEVIN_BLOCK", 512)
    a = simulate_langevin(*args, threads=1)
    b = simulate_langevin(*args, threads=4)
    assert np.array_equal(a.samples, b.samples)
    c = simulate_langevin(*args, threads=1)
    assert np.array_equal(a.samples, c.samples)
    assert not np.array_equal(
        a.samples, simulate_langevin(target, np.array([1.0, -1.0]), [0.1, 0.3], 2100,
                                     1e-2, 124).samples
    )


def test_langevin_threads_default_to_the_usable_cores(monkeypatch, pool_sizes):
    # a default call starts one worker per usable core, at most one per group,
    # and with one group or one usable core no pool; no byte changes
    pools = pool_sizes

    def run(n_paths, **threads):
        return simulate_langevin(SmoothedDoubleWell(d_star=2), np.array([1.0, -1.0]), [0.1, 0.3],
                                 n_paths, 1e-2, 123, **threads).samples

    monkeypatch.setattr(langevin, "LANGEVIN_BLOCK", 8)
    monkeypatch.setattr(jump, "TAPE_ROWS", 32)
    assert langevin._chunk_steps(2) == 12
    base = run(30, threads=1)
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert np.array_equal(run(30), base) and pools == [3]
    assert np.array_equal(run(8), base[:8]) and pools == [3]
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0})
    assert np.array_equal(run(30), base) and pools == [3]


class BreaksAtItsSecondChunk:
    """A group's noise stream that raises on its second chunk, after the group
    has allocated its noise buffer and stepped through its first chunk."""

    def __init__(self, rng):
        self.rng, self.chunks = rng, 0

    def standard_normal(self, out):
        self.chunks += 1
        if self.chunks == 2:
            raise ConfigurationError("group 1's noise ran out")
        return self.rng.standard_normal(out=out)


def test_an_error_in_a_later_group_is_raised_as_in_process(monkeypatch):
    # group 1 of 6 fails mid-run; on the pool of two patched cores, by default
    # and at threads=2, the caller gets the error a run in process meets, and
    # no worker process or pool thread outlives the call. Each call runs in a
    # daemon thread with a timeout, so that a call that never returns fails
    # the test.
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(langevin, "LANGEVIN_BLOCK", 4)
    monkeypatch.setattr(jump, "TAPE_ROWS", 4)  # chunks of 6 steps
    stream = langevin.path_stream
    monkeypatch.setattr(langevin, "path_stream", lambda seed, domain, g: (
        BreaksAtItsSecondChunk(stream(seed, domain, g)) if g == 1 else stream(seed, domain, g)))
    errors = []
    for threads in ({}, {"threads": 2}, {"threads": 1}):
        def call():
            try:
                simulate_langevin(BoxedQuadratic(d_star=1), np.array([1.0]), [0.1, 0.2], 22,
                                  1e-2, 3, **threads)
            except Exception as e:  # the test compares whatever is raised
                errors.append(e)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert threading.active_count() == before and multiprocessing.active_children() == []
    assert [(type(e), str(e)) for e in errors] == [
        (ConfigurationError, "group 1's noise ran out")] * 3


@pytest.mark.parametrize("threads", [1, 2])
def test_langevin_paths_do_not_depend_on_n_paths(threads):
    # a path's values depend only on (seed, domain, path index): 300 paths are
    # the first 300 of 1500, whose second group is partial too
    target = SmoothedDoubleWell(d_star=2)
    args = (target, np.array([1.0, -1.0]), [0.1, 0.3])
    full = simulate_langevin(*args, 1500, 1e-2, 123)
    assert np.array_equal(simulate_langevin(*args, 1500, 1e-2, 123, threads=threads).samples,
                          full.samples)
    part = simulate_langevin(*args, 300, 1e-2, 123, threads=threads)
    assert np.array_equal(part.samples, full.samples[:300])


def test_langevin_validation():
    target = BoxedQuadratic(d_star=2)
    with pytest.raises(ConfigurationError):
        simulate_langevin(target, np.array([0.0]), [0.1], 5, 1e-2, 0)
    with pytest.raises(ConfigurationError):
        simulate_langevin(target, np.zeros(2), [0.3, 0.1], 5, 1e-2, 0)
    with pytest.raises(ConfigurationError):
        simulate_langevin(target, np.zeros(2), [0.1], 0, 1e-2, 0)
    with pytest.raises(ConfigurationError):
        simulate_langevin(target, np.zeros(2), [0.1], 5, -1e-2, 0)
    with pytest.raises(ConfigurationError, match="2 coordinates"):
        simulate_langevin(target, 0.5, [0.1], 5, 1e-2, 0)
    with pytest.raises(ConfigurationError, match="single"):
        simulate_langevin(target, np.zeros((5, 2)), [0.1], 5, 1e-2, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_langevin_refuses_a_non_finite_start(bad):
    # the jump engines' x0 check: a NaN or infinite start never runs
    with pytest.raises(ConfigurationError, match="x0 must be finite"):
        simulate_langevin(SmoothedDoubleWell(d_star=1), [bad], [1.0], 10, 0.1, 0)


@pytest.mark.parametrize("field,value", [("n_paths", 2.5), ("n_paths", 0), ("n_paths", True),
                                         ("master_seed", -1), ("master_seed", 1.5),
                                         ("threads", 0), ("threads", -2)])
def test_langevin_refuses_malformed_sizes_and_seeds(field, value):
    args = {"n_paths": 5, "master_seed": 0, "threads": 1, field: value}
    with pytest.raises(ConfigurationError, match=field):
        simulate_langevin(BoxedQuadratic(d_star=2), np.zeros(2), [0.1], dt=1e-2, **args)
