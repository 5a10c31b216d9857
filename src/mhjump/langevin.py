"""Euler-Maruyama reference for the limiting diffusion.

The integrator steps

    dX = -grad U(X) / (2 T d*) dt + dW / sqrt(d*),

the limit of the rescaled jump dynamics. Every observation time must be a
whole number of steps (within GRID_TOL steps); an off-grid time is refused
rather than snapped. Each chunk of noise is scaled by sqrt(dt) and divided
by sqrt(d*) once, and each step writes into a spare buffer that then swaps
with the state; the step (_step_into, which em_step wraps) keeps em_step's
operations in their order, so the samples are those of a loop of em_step
calls, byte for byte. The exact Ornstein-Uhlenbeck marginal for the
quadratic potential is kept as an independent oracle.

Determinism. Paths are split into fixed groups of LANGEVIN_BLOCK
consecutive paths; group g owns the Philox stream keyed by
(master_seed, DOMAIN_LANGEVIN, g) and integrates its paths in lock step.
Every chunk of steps draws the noise of a full group, (steps, LANGEVIN_BLOCK,
d*), and path p reads column p - g * LANGEVIN_BLOCK of it, so a last,
partial group reads the first columns of the same draws. A path's values
therefore depend only on (master_seed, domain, path index): not on n_paths,
not on the thread count, not on the chunk length that count sets (below).
LANGEVIN_BLOCK is part of the reference format: changing it changes the
bytes of every reference ensemble.

Chunks. Groups run through jump.run_spans on jump.span_workers(threads,
groups) workers; threads defaults to None, the usable cores, since the
normal draws that take most of the time release the GIL. One worker draws
a chunk of as many steps as fit in the package's working-set budget, one
block tape's floats (jump.TAPE_ROWS x jump.TAPE_COLS), at least one: 768
steps at d*=1, 256 at d*=3, 12 at d*=64. The call splits that budget
between its workers (128 steps each at d*=3 on two), so its noise stays
within one tape's floats however many run. The call allocates one noise
buffer per worker before any group runs; a group takes one from the free
list, draws every chunk into it, and gives it back when it ends, also on an
error. (Buffers allocated in the worker threads instead raised the peak
RSS of the oracles benchmark from 114 to 120 MB.) The noise is drawn in C
order (step, path, coordinate) from a counter-based stream, so the chunk
length decides only where the draws are cut, never their values.
"""

from __future__ import annotations

import math

import numpy as np

from . import jump
from .errors import ConfigurationError
from .jump import DOMAIN_LANGEVIN, ObservedEnsemble, _validate_x0, check_run, path_stream, run_spans

LANGEVIN_BLOCK = 1024
GRID_TOL = 1e-6  # steps an observation time may sit off the step grid


def default_dt(target):
    """1e-3 * min(1, 2 T d*): drift per step stays small on the clock scale."""
    return 1e-3 * min(1.0, 2.0 * target.T * target.d_star)


def _chunk_steps(d_star, workers=1):
    """Steps whose noise for a full group, one buffer per worker, fits in one
    block tape's floats, at least 1."""
    return max(1, jump.TAPE_ROWS * jump.TAPE_COLS // (LANGEVIN_BLOCK * d_star * workers))


def _step_into(target, x, dt, noise, out):
    """One step of the SDE from x into out, with noise the increment already
    divided by sqrt(d*): -grad U(x), / (2 T d*), * dt, + x, + noise, in place."""
    np.negative(target.grad(x), out=out)
    out /= 2.0 * target.T * target.d_star
    out *= dt
    out += x
    out += noise
    return out


def em_step(target, x, dt, gaussian_increment):
    """One step of the SDE; the increment must be N(0, dt I)."""
    x = np.asarray(x, dtype=float)
    noise = np.asarray(gaussian_increment, dtype=float) / math.sqrt(target.d_star)
    return _step_into(target, x, dt, noise, np.empty(np.broadcast_shapes(x.shape, noise.shape)))


def ou_exact_marginal(x0, t, T, d_star=1):
    """Exact per-coordinate (mean, var) for the quadratic potential.

    The rescaled SDE for U = |x|^2/2 is OU with relaxation rate 1/(2 T d*)
    and noise 1/sqrt(d*); the stationary variance is T for every d*.
    """
    decay = math.exp(-t / (2.0 * T * d_star))
    var = T * (1.0 - math.exp(-t / (T * d_star)))
    return x0 * decay, var


def simulate_langevin(target, x0, obs_grid, n_paths, dt, master_seed, *, threads=None):
    """Euler-Maruyama ensemble on obs_grid, a grid of whole steps of dt.

    Groups of LANGEVIN_BLOCK paths run on `threads` threads or the usable
    cores, whichever is fewer (all of them when threads is None); the count
    changes no path's values."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be positive, got {dt}")
    obs = check_run(obs_grid, n_paths)
    x0 = _validate_x0(target, x0)
    if x0.ndim != 1:
        raise ConfigurationError("simulate_langevin takes a single initial state")
    steps = obs / dt
    obs_steps = np.rint(steps).astype(np.int64)
    off = np.abs(steps - obs_steps)
    if off.max() > GRID_TOL:
        k = int(np.argmax(off))
        raise ConfigurationError(
            f"observation time {obs[k]} is {steps[k]} steps of dt={dt}, not a whole number"
        )
    n_steps = int(obs_steps[-1])
    step_to_obs = {}
    for k, s in enumerate(obs_steps):
        step_to_obs.setdefault(int(s), []).append(k)
    samples = np.empty((n_paths, obs.size, target.d_star))
    group = LANGEVIN_BLOCK
    workers = jump.span_workers(threads, -(-n_paths // group))
    chunk = min(_chunk_steps(target.d_star, workers), n_steps)
    # one noise buffer per worker, allocated here: a group takes one and gives it back
    free = [np.empty((chunk, group, target.d_star)) for _ in range(workers)]

    def run_span(g, lo, hi):
        draws = free.pop()  # every chunk's noise, full group
        try:
            rng = path_stream(master_seed, DOMAIN_LANGEVIN, g)
            rows = np.empty((hi - lo, obs.size, target.d_star))
            state = np.broadcast_to(x0, (hi - lo, target.d_star)).copy()
            spare = np.empty_like(state)  # each step writes here, then the two swap
            for k in step_to_obs.get(0, ()):
                rows[:, k, :] = state
            s = 0
            while s < n_steps:
                m = min(chunk, n_steps - s)
                noise = rng.standard_normal(out=draws[:m])[:, :hi - lo]
                noise *= math.sqrt(dt)
                noise /= math.sqrt(target.d_star)
                for j in range(m):
                    state, spare = _step_into(target, state, dt, noise[j], spare), state
                    s += 1
                    for k in step_to_obs.get(s, ()):
                        rows[:, k, :] = state
            return (rows,)
        finally:
            free.append(draws)

    run_spans(run_span, (samples,), group, workers)
    return ObservedEnsemble(
        obs_grid=obs,
        samples=samples,
        epsilon=dt,
        kind="langevin",
        seed=master_seed,
        alpha=None,
    )
