"""Euler-Maruyama reference for the limiting diffusion.

Two equivalent parameterizations are provided. The rescaled variant
integrates

    dX = -grad U(X) / (2 T d*) dt + dW / sqrt(d*),

the limit of the rescaled jump dynamics; the standard-with-clock variant
integrates the standard overdamped diffusion dX = -grad U dt + sqrt(2T) dW
and reads it on the clock tau(t) = t / (2 T d*), which has the same law.
The exact Ornstein-Uhlenbeck marginal for the quadratic potential is kept
as an independent oracle.

Determinism. Paths are split into fixed groups of LANGEVIN_BLOCK
consecutive paths; group g owns the Philox stream keyed by
(master_seed, DOMAIN_LANGEVIN, g) and integrates its paths in lock step.
Every chunk of steps draws the noise of a full group, (steps, LANGEVIN_BLOCK,
d*), and path p reads column p - g * LANGEVIN_BLOCK of it, so a last,
partial group reads the first columns of the same draws. A path's values
therefore depend only on (master_seed, domain, path index): not on n_paths,
not on the thread count. LANGEVIN_BLOCK is part of the reference format:
changing it changes the bytes of every reference ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .jump import DOMAIN_LANGEVIN, ObservedEnsemble, check_run, path_stream, run_spans

_VARIANTS = ("rescaled", "standard_clock")
LANGEVIN_BLOCK = 1024
_STEP_CHUNK = 256


@dataclass(frozen=True)
class SdeConfig:
    """Step size and parameterization of the reference integrator."""

    dt: float
    variant: str = "rescaled"

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.variant not in _VARIANTS:
            raise ConfigurationError(f"variant must be one of {_VARIANTS}")


def default_dt(target):
    """1e-3 * min(1, 2 T d*): drift per step stays small on the clock scale."""
    return 1e-3 * min(1.0, 2.0 * target.T * target.d_star)


def em_step(target, x, dt, gaussian_increment):
    """One rescaled-variant step; the increment must be N(0, dt I)."""
    x = np.asarray(x, dtype=float)
    drift = -target.grad(x) / (2.0 * target.T * target.d_star)
    return x + drift * dt + np.asarray(gaussian_increment, dtype=float) / math.sqrt(target.d_star)


def _standard_step(target, x, dt, gaussian_increment):
    return x - target.grad(x) * dt + math.sqrt(2.0 * target.T) * gaussian_increment


def ou_exact_marginal(x0, t, T, d_star=1):
    """Exact per-coordinate (mean, var) for the quadratic potential.

    The rescaled SDE for U = |x|^2/2 is OU with relaxation rate 1/(2 T d*)
    and noise 1/sqrt(d*); the stationary variance is T for every d*.
    """
    decay = math.exp(-t / (2.0 * T * d_star))
    var = T * (1.0 - math.exp(-t / (T * d_star)))
    return x0 * decay, var


def simulate_langevin(
    target,
    x0,
    obs_grid,
    n_paths,
    dt,
    master_seed,
    *,
    variant="rescaled",
    threads=1,
):
    """Euler-Maruyama ensemble on obs_grid, grid points snapped to steps."""
    cfg = SdeConfig(dt=dt, variant=variant)
    obs = check_run(obs_grid, n_paths)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (target.d_star,):
        raise ConfigurationError(f"x0 must have {target.d_star} coordinates")
    if variant == "standard_clock":
        clock = 1.0 / (2.0 * target.T * target.d_star)
        times = obs * clock
        step = _standard_step
    else:
        times = obs
        step = em_step
    obs_steps = np.rint(times / cfg.dt).astype(np.int64)
    n_steps = int(obs_steps[-1])
    step_to_obs = {}
    for k, s in enumerate(obs_steps):
        step_to_obs.setdefault(int(s), []).append(k)
    samples = np.empty((n_paths, obs.size, target.d_star))
    group = LANGEVIN_BLOCK

    def run_span(g, lo, hi):
        rng = path_stream(master_seed, DOMAIN_LANGEVIN, g)
        state = np.broadcast_to(x0, (hi - lo, target.d_star)).copy()
        for k in step_to_obs.get(0, ()):
            samples[lo:hi, k, :] = state
        s = 0
        while s < n_steps:
            m = min(_STEP_CHUNK, n_steps - s)
            noise = rng.standard_normal((m, group, target.d_star))[:, :hi - lo] * math.sqrt(cfg.dt)
            for j in range(m):
                state = step(target, state, cfg.dt, noise[j])
                s += 1
                for k in step_to_obs.get(s, ()):
                    samples[lo:hi, k, :] = state

    run_spans(run_span, n_paths, group, threads)
    return ObservedEnsemble(
        obs_grid=obs,
        samples=samples,
        epsilon=cfg.dt,
        kind="langevin",
        seed=int(master_seed),
        alpha=None,
    )
