"""Event-driven simulation of the jump dynamics by exact thinning.

Clock and rescaling. Candidates of kind "mix(alpha)" arrive as a Poisson
clock of rate R = alpha + (1-alpha) Lam(eps), each candidate picks a uniform
coordinate and a displacement from the mixture dominating kernel, and is
accepted with the probability documented in the kernels module. When the
target declares a state-dependent slope bound and the kind is tilted, the
kernel is tilted by theta(x) and the rate is R(x), both fixed by the state
before each candidate; R(x) changes only at accepted jumps, so the waiting
time to candidate k is E_k / R(x) with E_k the tape's exponential variate,
and each event advances its path's clock by it (the per-event clock). Every
other run has one rate for the whole path, so a whole chunk of waiting times
decodes at once. One record (_Kernel) holds a kernel with its rate and branch
split, and one constructor (_kernel) builds it from a tilt through
kernels.row_kernel: the event parameters hold the kernel of the tilt every
state shares (0 for m1), or none, and _at builds one from each state's tilt.
The time rescaling t -> t/eps is applied to the observation horizon, never
to the rates, so the rate code is identical across eps.

Determinism. Path p draws from a Philox stream keyed by
(master_seed, domain, p): path_stream defines it, and path_streams builds a
whole block's streams at once, the same streams, deriving the block's keys
in one vectorized pass of the last step of SeedSequence's hash. Every
candidate event consumes exactly one row of six uniforms,

    [exp-clock, coordinate, branch, sign, magnitude, accept],

transformed by inverse cdfs only; the |z| draw is
kernels.sample_abs, masked per row by the branch column. Under the
per-event clock the rate, the branch split and the tilt of a row come from
the state the row meets, through one function (_at) evaluated by numpy for a
single state and for a block of rows alike. The scalar reference simulator
and the vectorized block engine therefore consume identical per-path tapes,
share one event transform and one thinning step, which takes each
candidate's dU from its caller, and produce bit-identical paths. The scalar
engine asks the target's delta_u_move for every dU, so it stays the
independent reference for the block engine's kept u1 terms (below). A
path's values depend only on
(master_seed, domain, path index): no randomness is shared across paths, so
neither the number of paths, nor the block a path runs in, nor the worker
process that runs the block can change them. Both engines run their blocks
through run_spans, the package's one parallel mechanism: a block returns its
rows, and run_spans alone writes them at their paths' indices, whatever the
schedule. Rows are drawn in chunks; a path that ends mid-chunk ignores the
unused rows, and because the stream is counter-based a path's rows, and so
its values, do not depend on the chunk length either. Every engine, the
Langevin reference too, takes its start state through one rule, _validate_x0.

Blocks and chunks. The package has one working-set budget, the floats of
one block tape: TAPE_ROWS x TAPE_COLS (6.3 MB). Every sampler sizes its draw
buffer from it, so no call's working memory grows with its sample count or
with d*. The scalar engine draws TAPE_CHUNK rows at a time. A block holds
min(BLOCK_PATHS, ceil(n_paths / workers)) paths, where a call gets one
worker per SPLIT_CANDIDATES expected candidate events, `threads` only
capping that count, so that a call worth a pool runs one block per worker
(see simulate_ensemble). Each path of a block of b paths draws the largest
chunk c that divides TAPE_CHUNK with b c max(TAPE_COLS, d) within the
budget. For d <= TAPE_COLS that is b c <= TAPE_ROWS (256 paths draw 256
rows, 1024 paths 128, 2048 paths 64); a wider state draws shorter chunks
(1024 paths at d=64 draw 8 rows). The paths draw a chunk a group at a time
into one group tape of FIRST_JUMP_BATCH rows (256 paths of 128 rows), and
each group is decoded from it straight into the chunk's event-major arrays,
so no tape of the whole block exists. The budget bounds what a chunk holds:
the event-major arrays, at most TAPE_COLS numbers per event with the clock,
the states the events meet (`before`, b c states of d floats), each within
it, and the group tape, a quarter of it. A wide block spreads the fixed cost
of each event's numpy calls over more paths, and its chunk stays within
this working set: traced, a 1024-path block at d=1 peaks at 10.3 MB (24.4
MB with a whole-block tape and its event-major copy). first_jump_displacements
reads its one stream FIRST_JUMP_BATCH rows at a time, into one buffer, so
that batch and the row-length temporaries of its transform stay near one
tape's bytes; the Langevin engine draws its noise in chunks of the same
budget (see langevin). When a target's dU is the separable u1(x_i + z) -
u1(x_i), the block also keeps ux = u1(x), its paths' b x d potential terms,
beside their states.

The run-size check. Each time a path has drawn a multiple of TAPE_CHUNK
rows, both engines stop it with a ConfigurationError if its rate in its
current state times its remaining horizon exceeds MAX_CANDIDATES: a
constant-rate run before its first event, a per-event-clock run within
TAPE_CHUNK events of its R(x) running away. Every live path of a block has
drawn the same number of rows, so a block checks at the same boundaries as
the scalar engine, whatever its chunk, and whether a run is refused depends
on the path alone.

The block engine advances a block of paths in lock step, one candidate event
per iteration across the whole block, and runs every chunk through one
runner. Only the paths still inside the horizon draw a chunk. The clock
holds, for each path, its time before the chunk and after each event, and
the decode writes each event's exponential variate into it. Under one rate
for every event each group is decoded whole, waiting times and moves, the
clock is one cumulative sum taken in place, and one search of it finds the
first event past the horizon; under the per-event clock each event is
decoded at the block's current states, turns its variate into its time and
checks the horizon. An event does only what its kind needs: m1, whose
log-acceptance is never positive, skips the domination check, and m1 and
m2, whose kernels have one component, draw every |z| with no branch mask.
Each event stores the states it meets in `before`, and only candidates
inside the horizon are thinned, as in the scalar engine; the loop stops
once no path is inside. An event gathers each path's moved
coordinate x_i once from the flat view of the states. With ux kept, it
evaluates u1 once, at x_i + z, takes dU against the kept u1(x_i) (the same
bits as evaluating both), and writes back the new state and its u1 term
where the candidate is accepted; any other target gives dU through its
delta_u_move. Then one searchsorted of the clock
against the observation grid finds every observation crossing of the chunk,
and each crossed observation is recorded once, from the state its event
met. A path's first event past the horizon so records the rest of the grid.
States are right-continuously recorded on the observation grid (the value
at an observation time is the state after the last jump at or before it).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import namedtuple
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DominationError
from .kernels import (
    _KIND_TAGS,
    GeneratorKind,
    accept_log_from_delta,
    check_domination,
    row_kernel,
    sample_abs,
)
from .targets import TargetPotential, delta_u_from_u1

TAPE_COLS = 6
COL_EXP, COL_COORD, COL_BRANCH, COL_SIGN, COL_MAG, COL_ACC = range(TAPE_COLS)
TAPE_CHUNK = 256  # rows the scalar engine draws at a time; the run-size check's cadence
BLOCK_PATHS = 2048
TAPE_ROWS = 1 << 17  # a block tape's rows; its TAPE_ROWS x TAPE_COLS floats are the budget
FIRST_JUMP_BATCH = 1 << 15  # rows of the first-jump batch and of a block's group tape
MAX_CANDIDATES = 1e9  # expected candidate events per path a run may go on to
# expected candidate events that pay for one more simulate_ensemble worker:
# from it one block per worker beats a single block in process, a pool
# start's break-even
SPLIT_CANDIDATES = 1 << 19

# The stream registry: every random draw of the package comes from one of
# these domains, so no two engines or oracles ever share a stream.
DOMAIN_JUMP, DOMAIN_LANGEVIN, DOMAIN_DIRECT, DOMAIN_SBOUND, DOMAIN_GEOMETRY = range(5)
# the kinds an ensemble may hold, in the order of their binary kind codes 0..3
ENSEMBLE_KINDS = (*_KIND_TAGS, "langevin")


def _integer(name, value, least):
    """value as an int: a Python or numpy integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        got = value.item() if isinstance(value, np.generic) else value  # 3, not np.int64(3)
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {got!r}")
    return int(value)


def check_seed(seed, name="master_seed"):
    """seed as an int: a Python or numpy integer in [0, 2**64), the seeds every
    stream and ensemble record take and the binary header's u64 field holds."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        got = seed.item() if isinstance(seed, np.generic) else seed
        raise ConfigurationError(f"{name} must be in [0, 2**64), got {got!r}")
    return int(seed)


def path_stream(master_seed, domain, index):
    """Counter-based stream keyed by (master_seed, domain, index).

    Philox is counter-based, so a stream's values depend on its key only,
    never on which other streams exist or in which order they are drawn.
    """
    seed = check_seed(master_seed)
    ss = np.random.SeedSequence(seed, spawn_key=(int(domain), int(index)))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(v, h):
    """SeedSequence's hashmix of the uint32 array v; h = [hash constant,
    multiplier], and the constant advances."""
    v = v ^ np.uint32(h[0])
    h[0] = h[0] * h[1] & _MASK32
    v = v * np.uint32(h[0])
    return v ^ (v >> np.uint32(16))


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox a key derived beforehand."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def path_streams(master_seed, domain, lo, hi):
    """[path_stream(master_seed, domain, q) for q in range(lo, hi)], the same
    streams, with the block's keys derived in one pass.

    A stream's only state is its key. SeedSequence hashes the seed's words,
    padded to 4, then the domain's, then the index's into a pool of 4 words,
    and draws the key from the pool. Only the index word differs across the
    block, and it is hashed last: into the pool of SeedSequence(seed,
    spawn_key=(domain,)), with the hash constant advanced 4 times per word
    already hashed: a seed below 2^64 is at most 2 words, so always 4 once
    padded. The last hash and the key draw run once, in uint32 arithmetic,
    over the whole block. A domain or index of 2^32 and above takes two
    words; a block that has one falls back to path_stream.
    """
    seed, domain = check_seed(master_seed), int(domain)
    if hi > 1 << 32 or domain >> 32:
        return [path_stream(seed, domain, q) for q in range(lo, hi)]
    prefix = np.random.SeedSequence(seed, spawn_key=(domain,))
    hashed = 4 * (4 + 1)  # hashmix calls so far: 4 seed words, 1 domain word
    h = [_INIT_A * pow(_MULT_A, hashed, 1 << 32) & _MASK32, _MULT_A]
    index = np.arange(lo, hi, dtype=np.uint32)
    pool = [_mix(word, _hashmix(index, h)) for word in prefix.pool[:, None]]
    h = [_INIT_B, _MULT_B]
    state = np.stack([_hashmix(word, h) for word in pool], axis=1).astype(np.uint64)
    keys = state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian word pairs
    return [np.random.Generator(np.random.Philox(_PhiloxKey(k))) for k in keys]


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
    reference integrator (kind "langevin"). kind and seed are checked here,
    once, so every ensemble writes to both formats.
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
        if samples.ndim != 3 or samples.shape[1] != grid.size or samples.shape[2] < 1:
            raise ConfigurationError("samples must have shape (paths, grid, d) with d >= 1")
        check_run(grid, samples.shape[0])
        if self.kind not in ENSEMBLE_KINDS:
            raise ConfigurationError(f"unknown ensemble kind {self.kind!r}; known: {ENSEMBLE_KINDS}")
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))
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


# The dominating kernel e^{tilt |z|} phi_eps(z) at one state or one per row:
# the proposal's root variance, the tilt, the positive component's mean and
# cut mass, the clock rate and the plain-branch probability (None for m1 and
# m2, whose kernels have one component).
_Kernel = namedtuple("_Kernel", "sigma tilt mean_abs trunc_lo rate_total p_plain")


def _kernel(alpha, epsilon, theta):
    """The kernel tilted by theta, one or one per row, with its mean, cut mass
    and mass Lam from row_kernel, the rate R = alpha + (1-alpha) Lam and the
    plain-branch probability alpha/R. m2 (alpha 0) has no plain branch: its
    rate is Lam itself, the same float. m1 (alpha 1, tilt 0) needs none
    either: its tilted component is the plain proposal, with mean 0 and cut
    mass 1/2, the bits the plain branch draws with."""
    mean, lo, lam = row_kernel(epsilon, theta)
    if alpha == 0.0:
        return _Kernel(math.sqrt(epsilon), theta, mean, lo, lam, None)
    rate = alpha + (1.0 - alpha) * lam
    return _Kernel(math.sqrt(epsilon), theta, mean, lo, rate, None if alpha == 1.0 else alpha / rate)


@dataclass(frozen=True)
class _EventParams:
    """Constants of the per-event transform for one (kind, target, proposal).

    kernel is _kernel at the tilt every state shares, or None when a tilted
    kind runs on a target whose slope bound depends on the state: the engines
    then take the kernel from the state before each event (_at).
    """

    kind: GeneratorKind
    target: TargetPotential
    epsilon: float
    alpha: float
    kernel: Optional[_Kernel]


def _event_params(kind, target, proposal):
    """The stateless event parameters. Every state shares one tilt: 0 for m1,
    whose rates never exceed the proposal, so it needs no finite Lam(eps), and
    grad_bound / T for a constant bound; a tilted kind on a slope_bound target
    has none."""
    alpha, eps = kind.alpha_eff, proposal.epsilon
    theta = None  # a tilted kind under a state-dependent slope bound
    if alpha == 1.0:
        theta = 0.0
    elif target.grad_bound is not None:
        theta = target.grad_bound / target.T
    kernel = None if theta is None else _kernel(alpha, eps, theta)
    return _EventParams(kind, target, eps, alpha, kernel)


def _at(p, x):
    """The kernel at state x, one state or a block of rows: p's shared
    kernel, or else _kernel at theta(x) = max_i slope_bound(x)_i / T, which
    sets the clock rate R(x) and the plain-branch probability alpha / R(x).
    """
    if p.kernel is not None:
        return p.kernel
    target = p.target
    theta = target.slope_bound(x).max(axis=-1) / target.T
    if not theta.min() >= 0.0:
        j = int(np.argmax(~(np.reshape(theta, -1) >= 0.0)))
        raise DominationError(f"slope_bound of {target.name} is negative or NaN at "
                              f"x={np.reshape(x, (-1, target.d_star))[j].tolist()}")
    return _kernel(p.alpha, p.epsilon, theta)


def _decode_tape(rows, d, out=(None, None, None, None)):
    """The state-free part of the event transform. Tape rows (..., 6) ->
    (exponential variate, coordinate, negative sign, magnitude uniform,
    branch uniform, log accept-uniform). The variate, the coordinate, the
    sign and the log uniform are written into out, arrays of the rows'
    shape, where it gives one, and into new arrays where it gives None."""
    e, i, neg, log_u = out
    e = np.negative(rows[..., COL_EXP], out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    if i is None:
        i = np.empty(e.shape, dtype=np.int64)
    np.multiply(rows[..., COL_COORD], d, out=i, casting="unsafe")  # truncated, as astype
    np.minimum(i, d - 1, out=i)
    neg = np.less(rows[..., COL_SIGN], 0.5, out=neg)
    with np.errstate(divide="ignore"):
        log_u = np.log(rows[..., COL_ACC], out=log_u)
    return e, i, neg, rows[..., COL_MAG], rows[..., COL_BRANCH], log_u


def _decode_move(q, e, neg, u_mag, u_branch):
    """The rest of the event transform, under kernel q and its clock rate:
    (waiting time, z, |z|). An array e becomes the waiting times in place.
    A kernel with one component draws every |z| from it, with no mask."""
    e /= q.rate_total
    tilted = None if q.p_plain is None else u_branch >= q.p_plain
    abs_z = sample_abs(u_mag, q.sigma, q.mean_abs, q.trunc_lo, tilted)
    return e, np.where(neg, -abs_z, abs_z), abs_z


def _thin(p, tilt, du, abs_z, log_u, where, live=None):
    """The thinning step: accept each candidate move, drawn from the kernel
    tilted by tilt and changing the potential by du, with probability a(z).

    where(k) describes candidate k if the declared gradient bound fails;
    live, if given, masks candidates out of the check and of the accepts.
    m1 skips the check: its log a = -max(dU, 0)/T is never positive, and a
    NaN never trips it.
    """
    la = accept_log_from_delta(du, abs_z, p.alpha, tilt, p.target.T)
    if live is not None:
        la = np.where(live, la, -np.inf)
    if p.alpha != 1.0:
        check_domination(la, p.kind, p.target, where)
    return log_u < la


def check_run(obs_grid, n_paths):
    """Validate an ensemble request; returns the observation grid as an array."""
    _integer("n_paths", n_paths, 1)
    obs = np.asarray(obs_grid, dtype=float)
    if (obs.ndim != 1 or obs.size == 0 or not np.all(np.isfinite(obs)) or np.any(obs < 0.0)
            or np.any(np.diff(obs) <= 0.0)):
        raise ConfigurationError("obs_grid must be finite, nonnegative and strictly increasing")
    return obs


_worker_span = None  # a forked worker's run_span, inherited from the call that forked it
_worker_stop = None  # that call's event, set once it takes no more rows


def _adopt(run_span, stop):
    global _worker_span, _worker_stop
    _worker_span, _worker_stop = run_span, stop


def _run_adopted(span):
    return None if _worker_stop.is_set() else _worker_span(*span)


def _workers(threads, cap):
    """The worker processes of an engine call whose work pays for `cap` of
    them: min(threads, usable cores, cap), the usable cores standing for
    threads when it is None, and 1 where the OS cannot fork. Each engine
    call asks once, and this is the one place that checks threads, an
    integer >= 1 or None."""
    try:
        cores = len(os.sched_getaffinity(0))  # the cores this process may run on
    except AttributeError:  # the OS does not say: the machine's
        cores = os.cpu_count() or 1
    workers = min(cores if threads is None else _integer("threads", threads, 1), cores, cap)
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def run_spans(run_span, out, block, workers):
    """Run the paths of out, arrays of one row per path, in blocks of `block`
    consecutive paths, and place each block's rows.

    run_span(b, lo, hi) returns block b's rows of paths lo to hi, one array
    per array of out, and writes nowhere; this loop alone writes them into
    out[i][lo:hi], in block order. The blocks run on `workers` worker
    processes, at most one per block, forked per call: each inherits
    run_span, so only (b, lo, hi) goes out and only rows come back, in block
    order, and the first block that raises raises its error here, as in
    process, once the blocks already running finish (a block taken after it
    returns at once); a worker killed without raising (SIGKILL) ends the
    call with a MemoryError. The pool ends with the call. With one worker
    the blocks run in order in this process. The caller picks `block`, and
    `workers` from _workers; this loop reads neither threads nor the machine.
    """
    n_paths = len(out[0])
    spans = [(b, lo, min(lo + block, n_paths)) for b, lo in enumerate(range(0, n_paths, block))]
    workers = min(workers, len(spans))
    forks = workers > 1
    stop = multiprocessing.get_context("fork").Event() if forks else None  # one per pooled call
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _adopt,
                               (run_span, stop)) if forks else None
    try:
        rows = pool.map(_run_adopted, spans) if pool else (run_span(*span) for span in spans)
        for (_, lo, hi), block_rows in zip(spans, rows):
            for array, r in zip(out, block_rows):
                array[lo:hi] = r
    except BrokenExecutor as exc:  # a worker died without raising, as under the OOM killer
        raise MemoryError(f"a worker process was killed: {exc}") from exc
    finally:
        if pool:
            stop.set()  # before the shutdown waits on the blocks the workers took
            pool.shutdown()


def _check_candidates(q, remaining):
    """Refuse to go on when a path's rate times its remaining horizon, one
    or one per row of either, exceeds MAX_CANDIDATES."""
    remaining = np.asarray(remaining)
    rate = np.broadcast_to(q.rate_total, remaining.shape)
    expected = rate * remaining
    j = np.argmax(expected)  # the largest row, or the first NaN
    if not expected.flat[j] <= MAX_CANDIDATES:
        raise ConfigurationError(
            f"{expected.flat[j]:.3g} expected candidate events per path (rate "
            f"{rate.flat[j]:.3g} over horizon {remaining.flat[j]:.3g}) exceed "
            f"{MAX_CANDIDATES:g}; use a smaller epsilon or horizon"
        )


def _validate_x0(target, x0, n_paths=None):
    """Start-state rule: one finite state of d* coordinates, U finite there, or n_paths of them."""
    x0 = np.asarray(x0, dtype=float)
    d = target.d_star
    if x0.shape != (d,) and (n_paths is None or x0.shape != (n_paths, d)):
        per_path = "" if n_paths is None else f" or one per path, shape ({n_paths}, {d})"
        raise ConfigurationError(f"x0 must be a single state of {d} coordinates{per_path}, "
                                 f"got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("x0 must be finite")
    # from a state of infinite U every dU is inf - inf = NaN: no candidate is
    # ever accepted, and the first-jump sampler would never return
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(target.u(x0))
    if not np.all(np.isfinite(u)):
        j = int(np.argmax(~np.isfinite(u.reshape(-1))))
        raise ConfigurationError(f"the potential {target.name} is not finite at "
                                 f"x0={x0.reshape(-1, d)[j].tolist()}")
    return x0 if n_paths is None else np.broadcast_to(x0, (n_paths, d))


def simulate_path(kind, target, proposal, x0, horizon, stream):
    """Reference per-event simulator; one path, full jump log.

    stream is a numpy Generator (use path_stream to match ensemble rows) or
    an integer master seed, which selects path 0 of the jump domain.
    """
    if horizon <= 0.0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    rng = stream if isinstance(stream, np.random.Generator) else path_stream(stream, DOMAIN_JUMP, 0)
    x = _validate_x0(target, x0).copy()
    p = _event_params(kind, target, proposal)
    times, states = [], []
    t = 0.0
    q = _at(p, x)
    while True:
        _check_candidates(q, horizon - t)
        rows = rng.random((TAPE_CHUNK, TAPE_COLS))
        e, coords, neg, u_mag, u_branch, log_us = _decode_tape(rows, target.d_star)
        for k in range(TAPE_CHUNK):
            dt, z, abs_z = _decode_move(q, e[k], neg[k], u_mag[k], u_branch[k])
            t += dt
            if t > horizon:
                return JumpPath(
                    initial_state=np.asarray(x0, dtype=float).copy(),
                    jump_times=np.array(times),
                    states=np.array(states).reshape(len(times), target.d_star),
                    horizon=float(horizon),
                )
            i, z = int(coords[k]), float(z)
            if _thin(p, q.tilt, target.delta_u_move(x, i, z), abs_z, log_us[k],
                     lambda _: f"x={x.tolist()}, i={i}, z={z!r}"):
                x[i] += z
                times.append(t)
                states.append(x.copy())
                q = _at(p, x)


def _spans(lo, hi):
    """Expand per-column observation ranges [lo, hi) into records: each
    record's position in lo and its observation index."""
    n = hi - lo
    return np.repeat(np.arange(n.size), n), np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)


# One chunk of n paths as event-major arrays, (chunk, n) each but the clock:
# clock[k + 1] is each path's time after event k and clock[0] its time before
# the chunk; flat, each event's moved entry in the flat view of the states;
# log_u, its log accept-uniform; under one kernel the move (z, abs_z), else
# the uniforms each event's kernel decodes: the sign (neg), the magnitude and
# the branch (None without a plain branch).
_Chunk = namedtuple("_Chunk", "clock flat log_u z abs_z neg u_mag u_branch")


def _draw_chunk(p, streams, live, tape, t, d):
    """The live paths' next chunk (_Chunk) from the clocks t. The paths draw
    a group at a time into tape, the group tape (group, chunk, TAPE_COLS),
    and each group's rows are decoded straight into its columns of the
    event-major arrays; under one kernel the clock is then one cumulative
    sum, taken in place."""
    group, chunk, _ = tape.shape
    n = live.size
    shape = (chunk, n)
    one_rate = p.kernel is not None
    if one_rate:
        move, uniforms = (np.empty(shape), np.empty(shape)), (None, None, None)
    else:
        move = (None, None)
        uniforms = (np.empty(shape, dtype=bool), np.empty(shape),
                    None if p.alpha == 0.0 else np.empty(shape))
    ev = _Chunk(np.empty((chunk + 1, n)), np.empty(shape, dtype=np.int64), np.empty(shape),
                *move, *uniforms)
    ev.clock[0] = t
    for lo in range(0, n, group):
        paths = live[lo:lo + group]
        for r, q in enumerate(paths):
            streams[q].random(out=tape[r])
        cols = slice(lo, lo + paths.size)
        rows = tape[:paths.size].swapaxes(0, 1)  # event-major view of the group's rows
        e, flat, neg, u_mag, u_branch, _ = _decode_tape(
            rows, d, (ev.clock[1:, cols], ev.flat[:, cols], None if one_rate else ev.neg[:, cols],
                      ev.log_u[:, cols]))
        flat += d * np.arange(lo, cols.stop)
        if one_rate:
            _, ev.z[:, cols], ev.abs_z[:, cols] = _decode_move(p.kernel, e, neg, u_mag, u_branch)
        else:
            ev.u_mag[:, cols] = u_mag
            if ev.u_branch is not None:
                ev.u_branch[:, cols] = u_branch
    if one_rate:
        np.cumsum(ev.clock, axis=0, out=ev.clock)
    return ev


def _run_chunk(p, ev, x, ux, horizon, obs_proc, describe):
    """Run one chunk's events (_Chunk) across the block.

    Moves x in place, and ux, the u1 terms of x or None, with it; without
    them each dU is the target's delta_u_move. describe(j) names row j's
    path in error messages. Returns the clocks after the chunk, the accepted
    events of each row, and the chunk's observation records: each record's
    row, observation index and state. Event k of a row records the state it
    meets at every observation point in [the row's clock before it, its
    time), so the row's first event past the horizon records the rest of
    the grid.
    """
    n, d = x.shape
    clock, flat, log_u = ev.clock, ev.flat, ev.log_u
    chunk = log_u.shape[0]
    q = p.kernel
    if q is None:  # each event's rate and move come from the state it meets
        first_out = 0  # each event checks the horizon
    else:  # the latest clock never decreases, so one search finds the first event past the horizon
        first_out = np.searchsorted(clock[1:].max(axis=1), horizon, side="right")
    before = np.empty((chunk, n, d))  # before[k] is the state event k meets
    offsets = d * np.arange(n)  # each row's first entry in the flat views
    x_flat = x.reshape(-1)  # views: x and ux are always fresh C-ordered arrays
    u_flat = None if ux is None else ux.reshape(-1)
    count = np.zeros(n, dtype=np.int64)
    inside = None  # every row is inside the horizon

    def where(j):
        return f"{describe(j)}, x={x[j].tolist()}, i={int(fk[j] - offsets[j])}, z={float(zk[j])!r}"

    for k in range(chunk):
        fk = flat[k]
        if p.kernel is None:
            q = _at(p, x)
            dt, zk, abs_zk = _decode_move(q, clock[k + 1], ev.neg[k], ev.u_mag[k],
                                          None if q.p_plain is None else ev.u_branch[k])
            np.add(clock[k], dt, out=dt)
        else:
            zk, abs_zk = ev.z[k], ev.abs_z[k]
        before[k] = x
        if k >= first_out and clock[k + 1].max() > horizon:
            inside = clock[k + 1] <= horizon
            if not inside.any():
                break
        xi = x_flat[fk]
        y = xi + zk
        if u_flat is None:
            du = p.target.delta_u_move(x, fk - offsets, zk)
        else:
            u_old, uy = u_flat[fk], p.target.u1(y)
            du = uy - u_old
        acc = _thin(p, q.tilt, du, abs_zk, log_u[k], where, inside)
        x_flat[fk] = np.where(acc, y, xi)
        if u_flat is not None:
            u_flat[fk] = np.where(acc, uy, u_old)
        count += acc
    passed = np.searchsorted(obs_proc, clock[:k + 2])  # observation points before each clock
    ks, cols = np.nonzero(passed[1:] > passed[:-1])
    rec, obs_idx = _spans(passed[ks, cols], passed[ks + 1, cols])
    ks, cols = ks[rec], cols[rec]
    return clock[k + 1], count, cols, obs_idx, before[ks, cols]


def _tape_chunk(b, d):
    """Rows each path of a block of b paths of d coordinates draws at a time:
    the largest divisor c of TAPE_CHUNK whose decoded rows (b c rows of up to
    TAPE_COLS floats) and `before` buffer (b c states of d floats) each fit
    in one tape's floats, TAPE_ROWS x TAPE_COLS; at least 1."""
    budget = TAPE_ROWS * TAPE_COLS
    width = max(TAPE_COLS, d)
    return max((c for c in range(1, TAPE_CHUNK + 1)
                if TAPE_CHUNK % c == 0 and b * c * width <= budget), default=1)


def _run_block(p, x0_block, horizon, streams, obs_proc, path_offset):
    """One block of paths in lock step; returns its samples and accepted-event counts."""
    b, d = x0_block.shape
    samples = np.empty((b, obs_proc.size, d))
    n_acc = np.zeros(b, dtype=np.int64)
    chunk = _tape_chunk(b, d)
    # the group tape: as many paths' chunks as fill FIRST_JUMP_BATCH rows
    tape = np.empty((min(b, max(1, FIRST_JUMP_BATCH // chunk)), chunk, TAPE_COLS))
    # the unfinished paths: block rows, states, clocks
    live = np.arange(b)
    x = x0_block.copy()
    # u1(x) beside x when dU comes from u1: one u1 call per event, not two
    ux = np.array(p.target.u1(x)) if delta_u_from_u1(p.target) else None
    t = np.zeros(b)
    drawn = 0  # tape rows each live path has drawn

    def describe(j):
        return f"path {path_offset + int(live[j])}"

    while live.size:
        if drawn % TAPE_CHUNK == 0:  # the scalar engine's chunk boundaries
            _check_candidates(_at(p, x), horizon - t)
        drawn += chunk
        # the chunk's arrays are the runner's alone, so they are freed before the next draw
        t, count, cols, obs_idx, states = _run_chunk(
            p, _draw_chunk(p, streams, live, tape, t, d), x, ux, horizon, obs_proc, describe)
        samples[live[cols], obs_idx] = states
        n_acc[live] += count
        keep = t <= horizon
        live, x, t = live[keep], x[keep], t[keep]
        if ux is not None:
            ux = ux[keep]
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
    threads=None,
    return_counts=False,
):
    """Independent paths recorded on obs_grid; deterministic in master_seed.

    With rescaled=True (the default) obs_grid is macroscopic time and each
    path runs to process time max(obs_grid)/epsilon; with rescaled=False the
    grid is raw process time (diagnostic runs). Paths run in blocks, each
    drawing its tape in chunks that keep the tape and the states its events
    meet within one tape's floats, on worker processes (see run_spans). The
    call's expected candidate events, E = sum_p R(x0_p) x horizon, pay for
    floor(E / SPLIT_CANDIDATES) + 1 workers, at most n_paths, `threads` and
    the usable cores; a block holds min(BLOCK_PATHS, ceil(n_paths / workers))
    paths, so a call worth a pool runs one block per worker, and a call
    below SPLIT_CANDIDATES runs in this process whatever its size or
    `threads`. None of these changes any path's values.
    n_paths, master_seed and threads are integers (numpy's too): n_paths
    and threads at least 1, master_seed in [0, 2**64).
    """
    obs = check_run(obs_grid, n_paths)
    starts = _validate_x0(target, x0, n_paths)
    scale = proposal.epsilon if rescaled else 1.0
    obs_proc = obs / scale
    horizon = float(obs_proc[-1])
    p = _event_params(kind, target, proposal)
    samples = np.empty((n_paths, obs.size, target.d_star))
    counts = np.zeros(n_paths, dtype=np.int64)

    def run_span(_, lo, hi):
        streams = path_streams(master_seed, DOMAIN_JUMP, lo, hi)
        return _run_block(p, np.array(starts[lo:hi], dtype=float), horizon, streams, obs_proc, lo)

    # one worker per SPLIT_CANDIDATES expected candidates, from the rates
    # _check_candidates reads at each path's chunk 0; a NaN or inf count,
    # which that check refuses, gives n_paths
    expected = float(np.broadcast_to(_at(p, starts).rate_total, n_paths).sum()) * horizon
    workers = _workers(threads, int(min(n_paths, expected // SPLIT_CANDIDATES + 1)))
    run_spans(run_span, (samples, counts), min(BLOCK_PATHS, -(-n_paths // workers)), workers)
    ens = ObservedEnsemble(
        obs_grid=obs,
        samples=samples,
        epsilon=proposal.epsilon,
        kind=kind.tag,
        seed=master_seed,
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
    FIRST_JUMP_BATCH rows at a time into one buffer, so its working memory
    stays near one block tape's bytes beside the returned arrays; accepted
    rows are a tape-order subsequence, so the batch size cannot change the
    draws.
    """
    x = _validate_x0(target, x)
    n_samples = _integer("n_samples", n_samples, 1)
    rng = path_stream(master_seed, DOMAIN_DIRECT, 0)
    p = _event_params(kind, target, proposal)
    q = _at(p, x)
    out_z = np.empty(n_samples)
    out_i = np.empty(n_samples, dtype=np.int64)

    def accepted(rows):  # (z, i) of the accepted rows; the batch's arrays die here
        e, i, neg, u_mag, u_branch, log_u = _decode_tape(rows, target.d_star)
        _, z, abs_z = _decode_move(q, e, neg, u_mag, u_branch)
        acc = _thin(p, q.tilt, target.delta_u_move(x, i, z), abs_z, log_u,
                    lambda j: f"x={x.tolist()}, i={int(i[j])}, z={float(z[j])!r}")
        return z[acc], i[acc]

    batch = np.empty((FIRST_JUMP_BATCH, TAPE_COLS))
    filled = 0
    while filled < n_samples:
        za, ia = accepted(rng.random(out=batch))
        take = min(n_samples - filled, za.size)
        out_z[filled:filled + take] = za[:take]
        out_i[filled:filled + take] = ia[:take]
        filled += take
    return out_z, out_i
