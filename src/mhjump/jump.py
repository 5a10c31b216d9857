"""Event-driven simulation of the jump dynamics by exact thinning.

Clock and rescaling. Candidates of kind "mix(alpha)" arrive as a Poisson
clock of rate R = alpha + (1-alpha) Lam(eps), each candidate picks a uniform
coordinate and a displacement from the mixture dominating kernel, and is
accepted with the probability documented in the kernels module. The time
rescaling t -> t/eps is applied to the observation horizon, never to the
rates, so the rate code is identical across eps.

Determinism. Path p draws from a Philox stream keyed by
(master_seed, domain, p). Every candidate event consumes exactly one row of
six uniforms,

    [exp-clock, coordinate, branch, sign, magnitude, accept],

transformed by inverse cdfs only; the |z| draw is
DominatingKernel.sample_abs, masked per row by the branch column. The scalar
reference simulator and the vectorized block engine therefore consume
identical per-path tapes, share one event transform and one thinning step,
and produce bit-identical paths. A path's values depend only on
(master_seed, domain, path index): no randomness is shared across paths, so
neither the number of paths, nor the block of BLOCK_PATHS paths a path runs
in, nor the thread that runs the block can change them. Rows are drawn in
chunks of TAPE_CHUNK events; a path that ends mid-chunk ignores the unused
rows, and because the stream is counter-based a path's rows, and so its
values, do not depend on the chunk size either.

A run whose expected candidate events per path, clock rate times horizon,
exceed MAX_CANDIDATES is refused with a ConfigurationError before it starts.

The block engine advances a block of paths in lock step, one candidate event
per iteration across the whole block, but does its per-tape work once per
chunk: only the paths still inside the horizon draw a chunk, into one
preallocated buffer; the chunk is decoded by one call of the event
transform into event-major arrays; the event times are one cumulative sum
from each path's clock; and one searchsorted of the times against the
observation grid finds every observation crossing of the chunk, so states
are recorded only at the events where some path crosses. Only candidates
inside the horizon are thinned, as in the scalar engine. States are
right-continuously recorded on the observation grid (the value at an
observation time is the state after the last jump at or before it).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainBoxError
from .kernels import (
    DominatingKernel,
    GeneratorKind,
    accept_log_from_delta,
    check_domination,
    thinning_kernel,
)
from .targets import TargetPotential

TAPE_COLS = 6
COL_EXP, COL_COORD, COL_BRANCH, COL_SIGN, COL_MAG, COL_ACC = range(TAPE_COLS)
TAPE_CHUNK = 256
BLOCK_PATHS = 512
FIRST_JUMP_BATCH = 1 << 18
MAX_CANDIDATES = 1e9  # expected candidate events per path a run may start

# The stream registry: every random draw of the package comes from one of
# these domains, so no two engines or oracles ever share a stream.
DOMAIN_JUMP, DOMAIN_LANGEVIN, DOMAIN_DIRECT, DOMAIN_SBOUND, DOMAIN_GEOMETRY = range(5)


def path_stream(master_seed, domain, index):
    """Counter-based stream keyed by (master_seed, domain, index).

    Philox is counter-based, so a stream's values depend on its key only,
    never on which other streams exist or in which order they are drawn.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(domain), int(index)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One trajectory: strictly increasing jump times and post-jump states."""

    initial_state: np.ndarray
    jump_times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        if t.size and (np.any(np.diff(t) <= 0.0) or t[-1] > self.horizon or t[0] <= 0.0):
            raise ConfigurationError("jump times must be strictly increasing within (0, horizon]")
        if len(self.states) != t.size:
            raise ConfigurationError("one state per jump time")

    def state_at(self, t):
        """Right-continuous evaluation: state after the last jump <= t."""
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if k == 0 else self.states[k - 1]


@dataclass(frozen=True, eq=False)
class ObservedEnsemble:
    """States of many independent paths on a shared observation grid.

    samples[p, k, :] is path p at obs_grid[k]; for rescaled runs the grid is
    macroscopic time t and the path runs to process time t/epsilon. epsilon
    holds the proposal variance for jump ensembles and the step size for the
    reference integrator (kind "langevin").
    """

    obs_grid: np.ndarray
    samples: np.ndarray
    epsilon: float
    kind: str
    seed: int
    alpha: Optional[float] = None

    def __post_init__(self):
        grid = np.asarray(self.obs_grid, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 3 or samples.shape[1] != grid.size:
            raise ConfigurationError("samples must have shape (paths, grid, d)")
        object.__setattr__(self, "obs_grid", grid)
        object.__setattr__(self, "samples", samples)

    @property
    def n_paths(self):
        return self.samples.shape[0]

    @property
    def d_star(self):
        return self.samples.shape[2]

    def marginal(self, k, coord=0):
        return self.samples[:, k, coord]


@dataclass(frozen=True)
class _EventParams:
    """Constants of the per-event transform for one (kind, target, proposal)."""

    kind: GeneratorKind
    target: TargetPotential
    dom: DominatingKernel
    alpha: float
    rate_total: float
    p_plain: float


def _event_params(kind, target, proposal, rate_scale=1.0):
    alpha = kind.alpha_eff
    dom = thinning_kernel(kind, target, proposal)
    r0 = alpha + (1.0 - alpha) * dom.lam
    return _EventParams(kind, target, dom, alpha, r0 * rate_scale, alpha / r0)


def _decode_events(p, rows):
    """Tape rows (..., 6) -> (dt, coordinate, z, |z|, log accept-uniform)."""
    d = p.target.d_star
    dt = -np.log1p(-rows[..., COL_EXP]) / p.rate_total
    i = np.minimum((rows[..., COL_COORD] * d).astype(np.int64), d - 1)
    abs_z = p.dom.sample_abs(rows[..., COL_MAG], rows[..., COL_BRANCH] >= p.p_plain)
    z = np.where(rows[..., COL_SIGN] < 0.5, -abs_z, abs_z)
    with np.errstate(divide="ignore"):
        log_u = np.log(rows[..., COL_ACC])
    return dt, i, z, abs_z, log_u


def _thin(p, x, i, z, abs_z, log_u, where, live=None):
    """The thinning step: accept each candidate move with probability a(z).

    where(k) describes candidate k if the declared gradient bound fails;
    live, if given, masks candidates out of the check and of the accepts.
    """
    la = accept_log_from_delta(p.target.delta_u_move(x, i, z), abs_z, p.alpha, p.dom.tilt, p.target.T)
    if live is not None:
        la = np.where(live, la, -np.inf)
    check_domination(la, p.kind, p.target, where)
    return log_u < la


def check_run(obs_grid, n_paths):
    """Validate an ensemble request; returns the observation grid as an array."""
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    obs = np.asarray(obs_grid, dtype=float)
    if obs.ndim != 1 or obs.size == 0 or np.any(obs < 0.0) or np.any(np.diff(obs) <= 0.0):
        raise ConfigurationError("obs_grid must be nonnegative and strictly increasing")
    return obs


def run_spans(run_span, n_paths, block, threads):
    """Call run_span(b, lo, hi) for each block b of `block` consecutive paths.

    Blocks run in order, or on a pool of threads when threads > 1; run_span
    writes its own rows of the output, so the schedule cannot change them.
    """
    spans = [(b, lo, min(lo + block, n_paths)) for b, lo in enumerate(range(0, n_paths, block))]
    if threads <= 1:
        for span in spans:
            run_span(*span)
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(lambda span: run_span(*span), spans))


def _check_candidates(p, horizon):
    """Refuse a run whose expected candidate events per path exceed MAX_CANDIDATES."""
    expected = p.rate_total * horizon
    if not expected <= MAX_CANDIDATES:
        raise ConfigurationError(
            f"{expected:.3g} expected candidate events per path (rate {p.rate_total:.3g} over "
            f"horizon {horizon:.3g}) exceed {MAX_CANDIDATES:g}; use a smaller epsilon or horizon"
        )


def _validate_x0(target, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1] != target.d_star:
        raise ConfigurationError(f"x0 must have {target.d_star} coordinates, got shape {x0.shape}")
    if target.box is not None and np.any(np.abs(x0) > target.box):
        raise ConfigurationError(f"x0 outside the declared domain box +-{target.box}")
    return x0


def simulate_path(kind, target, proposal, x0, horizon, stream, *, rate_scale=1.0):
    """Reference per-event simulator; one path, full jump log.

    stream is a numpy Generator (use path_stream to match ensemble rows) or
    an integer master seed, which selects path 0 of the jump domain.
    rate_scale multiplies the candidate clock rate; simulating at rate
    R/eps over horizon h is statistically the same as rate R over h/eps.
    """
    if horizon <= 0.0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    rng = stream if isinstance(stream, np.random.Generator) else path_stream(stream, DOMAIN_JUMP, 0)
    x = _validate_x0(target, x0).copy()
    if x.ndim != 1:
        raise ConfigurationError("simulate_path takes a single initial state")
    p = _event_params(kind, target, proposal, rate_scale)
    _check_candidates(p, horizon)
    times, states = [], []
    t = 0.0
    while True:
        dts, coords, zs, abs_zs, log_us = _decode_events(p, rng.random((TAPE_CHUNK, TAPE_COLS)))
        for k in range(TAPE_CHUNK):
            t += dts[k]
            if t > horizon:
                return JumpPath(
                    initial_state=np.asarray(x0, dtype=float).copy(),
                    jump_times=np.array(times),
                    states=np.array(states).reshape(len(times), target.d_star),
                    horizon=float(horizon),
                )
            i, z = int(coords[k]), zs[k]
            if _thin(p, x, i, z, abs_zs[k], log_us[k], lambda _: f"x={x!r}, i={i}, z={z!r}"):
                x[i] += z
                if target.box is not None and abs(x[i]) > target.box:
                    raise DomainBoxError(
                        f"state left the domain box +-{target.box} at t={t:.6g}: x={x!r}"
                    )
                times.append(t)
                states.append(x.copy())


def _crossings(passed, inside):
    """The observation records of one chunk, grouped by event.

    passed[k, c] is the number of observation points before column c's clock
    ahead of event k, and passed[k + 1, c] after it. An event inside the
    horizon records the column's pre-event state at the observation indices
    [passed[k, c], passed[k + 1, c]). Returns per-event bounds into the
    records (those of event k are [bounds[k], bounds[k + 1])) and each
    record's column and observation index.
    """
    ks, cols = np.nonzero((passed[1:] > passed[:-1]) & inside)
    lo = passed[ks, cols]
    n = passed[ks + 1, cols] - lo
    obs_idx = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)
    ks, cols = np.repeat(ks, n), np.repeat(cols, n)
    return np.searchsorted(ks, np.arange(inside.shape[0] + 1)).tolist(), cols, obs_idx


def _run_block(p, x0_block, horizon, streams, obs_proc, path_offset):
    """One block of paths in lock step; returns its samples and accepted-event counts."""
    b, d = x0_block.shape
    box = p.target.box
    samples = np.empty((b, obs_proc.size, d))
    n_acc = np.zeros(b, dtype=np.int64)
    tape = np.empty((b, TAPE_CHUNK, TAPE_COLS))
    # the unfinished paths: block rows, states, clocks
    live = np.arange(b)
    x = x0_block.copy()
    t = np.zeros(b)

    def where(j):  # describes candidate j of the current event
        return f"path {path_offset + int(live[j])}, x={x[j]!r}, i={int(ik[j])}, z={float(zk[j])!r}"

    while live.size:
        n_live = live.size
        for r, q in enumerate(live):
            streams[q].random(out=tape[r])
        dt, i, z, abs_z, log_u = _decode_events(p, np.ascontiguousarray(tape[:n_live].swapaxes(0, 1)))
        clock = np.cumsum(np.vstack([t, dt]), axis=0)  # clock[k + 1] is the time of event k
        inside = clock[1:] <= horizon
        n_in = inside.sum(axis=0)  # in-horizon events of each path
        passed = np.searchsorted(obs_proc, clock)
        bounds, rec_cols, rec_obs = _crossings(passed, inside)
        rec_rows = live[rec_cols]
        flat = i + d * np.arange(n_live)  # the moved entries of x_flat
        x_flat = x.reshape(-1)  # a view: x is always a fresh C-ordered array
        count = np.zeros(n_live, dtype=np.int64)
        all_inside = int(n_in.min())
        for k in range(int(n_in.max())):
            lo, hi = bounds[k], bounds[k + 1]
            if lo < hi:
                samples[rec_rows[lo:hi], rec_obs[lo:hi]] = x[rec_cols[lo:hi]]
            ik, zk = i[k], z[k]
            acc = _thin(p, x, ik, zk, abs_z[k], log_u[k], where, None if k < all_inside else inside[k])
            xi = x_flat[flat[k]]
            moved = np.where(acc, xi + zk, xi)
            x_flat[flat[k]] = moved
            count += acc
            if box is not None and np.abs(moved).max() > box:
                j = int(np.argmax(np.abs(moved) > box))
                raise DomainBoxError(
                    f"path {path_offset + int(live[j])} left the domain box +-{box}: x={x[j]!r}"
                )
        n_acc[live] += count
        done = ~inside[-1]
        for c in np.flatnonzero(done):  # a finished path holds its state to the end of the grid
            samples[live[c], passed[n_in[c], c]:] = x[c]
        keep = ~done
        live, x, t = live[keep], x[keep], clock[-1, keep]
    return samples, n_acc


def simulate_ensemble(
    kind,
    target,
    proposal,
    x0,
    obs_grid,
    n_paths,
    master_seed,
    *,
    rescaled=True,
    threads=1,
    return_counts=False,
):
    """Independent paths recorded on obs_grid; deterministic in master_seed.

    With rescaled=True (the default) obs_grid is macroscopic time and each
    path runs to process time max(obs_grid)/epsilon; with rescaled=False the
    grid is raw process time (diagnostic runs). Paths run in blocks of
    BLOCK_PATHS, on `threads` threads; neither changes any path's values.
    """
    obs = check_run(obs_grid, n_paths)
    x0 = _validate_x0(target, x0)
    if x0.ndim == 1:
        starts = np.broadcast_to(x0, (n_paths, target.d_star))
    elif x0.shape == (n_paths, target.d_star):
        starts = x0
    else:
        raise ConfigurationError("x0 must be one state or one per path")
    scale = proposal.epsilon if rescaled else 1.0
    obs_proc = obs / scale
    horizon = float(obs_proc[-1])
    p = _event_params(kind, target, proposal)
    _check_candidates(p, horizon)
    samples = np.empty((n_paths, obs.size, target.d_star))
    counts = np.zeros(n_paths, dtype=np.int64)

    def run_span(_, lo, hi):
        streams = [path_stream(master_seed, DOMAIN_JUMP, q) for q in range(lo, hi)]
        samples[lo:hi], counts[lo:hi] = _run_block(
            p, np.array(starts[lo:hi], dtype=float), horizon, streams, obs_proc, lo,
        )

    run_spans(run_span, n_paths, BLOCK_PATHS, threads)
    ens = ObservedEnsemble(
        obs_grid=obs,
        samples=samples,
        epsilon=proposal.epsilon,
        kind=kind.tag,
        seed=int(master_seed),
        alpha=kind.alpha,
    )
    if return_counts:
        return ens, counts
    return ens


def first_jump_displacements(kind, target, proposal, x, n_samples, master_seed):
    """Displacements (and coordinates) of first accepted jumps from a fixed x.

    Rejected candidates do not move the state, so first accepted displacements
    are iid draws from M(x, .) normalized. This is a direct sampler on a
    single stream (domain DOMAIN_DIRECT), not a path tape, read
    FIRST_JUMP_BATCH rows at a time; accepted rows are a tape-order
    subsequence, so the batch size cannot change the draws.
    """
    x = _validate_x0(target, x)
    if x.ndim != 1:
        raise ConfigurationError("first_jump_displacements takes a single state")
    rng = path_stream(master_seed, DOMAIN_DIRECT, 0)
    p = _event_params(kind, target, proposal)
    out_z = np.empty(n_samples)
    out_i = np.empty(n_samples, dtype=np.int64)
    filled = 0
    while filled < n_samples:
        rows = rng.random((FIRST_JUMP_BATCH, TAPE_COLS))
        _, i, z, abs_z, log_u = _decode_events(p, rows)
        acc = _thin(p, x, i, z, abs_z, log_u, lambda j: f"x={x!r}, i={int(i[j])}, z={float(z[j])!r}")
        za, ia = z[acc], i[acc]
        take = min(n_samples - filled, za.size)
        out_z[filled:filled + take] = za[:take]
        out_i[filled:filled + take] = ia[:take]
        filled += take
    return out_z, out_i
