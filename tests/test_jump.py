"""Event-driven simulator: tape determinism, clocks, observation semantics."""

import math
import threading

import numpy as np
import pytest

from mhjump import (
    ConfigurationError,
    DominationError,
    GaussianProposal,
    GeneratorKind,
    LogCoshWell,
    SeparableTargetPotential,
    SmoothedDoubleWell,
    BoxedQuadratic,
    first_jump_displacements,
    path_stream,
    simulate_ensemble,
    simulate_langevin,
    simulate_path,
)
from mhjump import jump
from mhjump.jump import DOMAIN_JUMP, JumpPath, ObservedEnsemble, path_streams

DW = SmoothedDoubleWell(d_star=2)
MIX = GeneratorKind.mix(0.5)
KINDS = (GeneratorKind.m1(), GeneratorKind.m2(), MIX)
WELL = LogCoshWell(d_star=1, c=0.2)
WELL2 = LogCoshWell(d_star=2, c=0.2)
# the quadratic declares a per-state slope bound, so its tilted kinds run the
# per-event clock
QUAD = BoxedQuadratic(d_star=2)
QUAD1 = BoxedQuadratic(d_star=1)
LOCAL = (GeneratorKind.m2(), MIX)
# both clocks' cells: every kind at one rate on the double well, and the tilted
# kinds under the per-event clock on the quadratic
ONE_RATE_CELLS = [(kind, DW) for kind in KINDS]
CELLS = ONE_RATE_CELLS + [(kind, QUAD) for kind in LOCAL]
both_clocks = pytest.mark.parametrize("kind,target", CELLS,
                                      ids=[f"{k.label()}-{t.name}" for k, t in CELLS])


def candidate_times(seed, q, n):
    """Times of the first n candidate events of path q for a rate-1 clock (m1)."""
    rows = path_stream(seed, DOMAIN_JUMP, q).random((n, 6))
    return np.cumsum(-np.log1p(-rows[:, 0]))


def replayed_candidate_times(kind, target, prop, x0, seed, q, n, horizon):
    """Times of path q's candidates under the per-event clock, up to n or the
    first past the horizon: candidate k waits E_k / R(x) in the state x that
    candidate k - 1 left, replayed from the scalar engine's jump log."""
    p = jump._event_params(kind, target, prop)
    path = simulate_path(kind, target, prop, x0, horizon, path_stream(seed, DOMAIN_JUMP, q))
    e = -np.log1p(-path_stream(seed, DOMAIN_JUMP, q).random((n, 6))[:, 0])
    t, times = 0.0, []
    for k in range(n):
        t += e[k] / jump._at(p, path.state_at(t)).rate_total
        times.append(t)
        if t > horizon:
            break
    return np.array(times)


def assert_engines_agree(kind, target, prop, x0, obs, n_paths, seed):
    """The block engine on raw process time against the scalar engine."""
    ens, counts = simulate_ensemble(kind, target, prop, x0, obs, n_paths, seed,
                                    rescaled=False, return_counts=True)
    for q in range(n_paths):
        path = simulate_path(kind, target, prop, x0, float(obs[-1]), path_stream(seed, DOMAIN_JUMP, q))
        assert counts[q] == path.jump_times.size
        for k, tp in enumerate(obs):
            assert np.array_equal(ens.samples[q, k], path.state_at(tp))
    return ens


@pytest.mark.parametrize("seed", [0, 1, 314159, 2 ** 32 - 1, 2 ** 40 + 7])
def test_path_streams_are_path_stream(seed):
    # seeds of 1 and 2 uint32 words, every domain; blocks from 0, from past
    # 0, ending at 2**32, and crossing it (which falls back to path_stream)
    for domain in range(5):
        for lo, hi in [(0, 3), (1000, 1004), (2 ** 32 - 3, 2 ** 32), (2 ** 32 - 2, 2 ** 32 + 2)]:
            streams = path_streams(seed, domain, lo, hi)
            assert len(streams) == hi - lo
            for q, stream in zip(range(lo, hi), streams):
                ref = path_stream(seed, domain, q)
                assert np.array_equal(stream.bit_generator.state["state"]["key"],
                                      ref.bit_generator.state["state"]["key"])
                assert np.array_equal(stream.random(8), ref.random(8))


def test_path_stream_reproducible_and_split():
    a = path_stream(7, 0, 3).random(5)
    b = path_stream(7, 0, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, path_stream(7, 0, 4).random(5))
    assert not np.array_equal(a, path_stream(7, 1, 3).random(5))
    assert not np.array_equal(a, path_stream(8, 0, 3).random(5))


def test_jump_path_contract():
    p = JumpPath(
        initial_state=np.array([1.0]),
        jump_times=np.array([0.5, 1.5]),
        states=np.array([[2.0], [3.0]]),
        horizon=2.0,
    )
    assert np.array_equal(p.state_at(0.0), [1.0])
    assert np.array_equal(p.state_at(0.49), [1.0])
    assert np.array_equal(p.state_at(0.5), [2.0])  # right continuity at a jump
    assert np.array_equal(p.state_at(1.7), [3.0])
    with pytest.raises(ConfigurationError):
        JumpPath(np.array([1.0]), np.array([1.0, 0.5]), np.array([[0.0], [0.0]]), 2.0)
    with pytest.raises(ConfigurationError):
        JumpPath(np.array([1.0]), np.array([0.5]), np.array([[0.0], [0.0]]), 2.0)


def test_simulate_path_invariants():
    path = simulate_path(
        GeneratorKind.m2(), DW, GaussianProposal(0.04), np.array([1.2, -0.4]), 30.0,
        path_stream(3, DOMAIN_JUMP, 0),
    )
    t = path.jump_times
    assert t.size > 10
    assert np.all(np.diff(t) > 0.0)
    assert t[-1] <= 30.0 and t[0] > 0.0
    assert path.states.shape == (t.size, 2)


# the logcosh well's exp and log1p are evaluated on whole blocks and on
# gathered coordinates by the block engine, and on scalars by the other
AGREE_CELLS = CELLS + [(kind, WELL2) for kind in KINDS]


@pytest.mark.parametrize("kind,target", AGREE_CELLS,
                         ids=[f"{k.label()}-{t.name}" for k, t in AGREE_CELLS])
def test_scalar_and_block_engines_agree(kind, target):
    # the same per-path tape must give bit-identical states on the obs grid
    eps = 0.04
    ens = assert_engines_agree(kind, target, GaussianProposal(eps), np.array([1.0, -1.0]),
                               np.array([0.3, 0.7, 1.1]) / eps, 6, 2024)
    assert not np.array_equal(ens.samples[:, -1], ens.samples[:, 0])


def test_engines_agree_on_a_non_separable_target(monkeypatch, coupled):
    # the generic row-wise dU must give the same bits in both engines
    prop = GaussianProposal(0.04)
    x0 = np.array([0.5, -0.8])
    monkeypatch.setattr(jump, "BLOCK_PATHS", 3)
    monkeypatch.setattr(jump, "FIRST_JUMP_BATCH", 512)
    ens = assert_engines_agree(MIX, coupled, prop, x0, np.array([0.3, 0.7]) / prop.epsilon, 5, 77)
    assert np.all(np.any(ens.samples[:, -1] != x0, axis=-1))  # every path jumped
    z, i = first_jump_displacements(GeneratorKind.m2(), coupled, prop, x0, 2000, 3)
    assert z.shape == i.shape == (2000,)
    assert set(np.unique(i)) == {0, 1}


class OwnDeltaQuadratic(BoxedQuadratic):
    """Overrides delta_u_move with the quadratic's own dU."""

    def delta_u_move(self, x, i, z):
        return super().delta_u_move(x, i, z)


def spy(monkeypatch, target, name):
    """Record every call of target.name, shadowed on the instance only."""
    calls, inner = [], getattr(target, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(target, name, wrapped)
    return calls


def test_only_the_separable_delta_u_comes_from_kept_u1_terms(monkeypatch, coupled):
    # a non-separable target and an override of delta_u_move give every dU of
    # the block engine through delta_u_move, and u1 is never called beside it
    prop, x0, obs = GaussianProposal(0.04), np.array([0.5, -0.8]), [5.0, 20.0]
    for target in (coupled, OwnDeltaQuadratic(d_star=2)):
        delta = spy(monkeypatch, target, "delta_u_move")
        u1 = spy(monkeypatch, target, "u1") if hasattr(target, "u1") else None
        simulate_ensemble(MIX, target, prop, x0, obs, 5, 77, rescaled=False)
        assert delta and all(np.ndim(x) == 2 for x, _, _ in delta)
        if u1 is not None:  # two per delta_u_move, none for a kept term, one for U(x0)
            assert len(u1) == 2 * len(delta) + 1
        assert_engines_agree(MIX, target, prop, x0, obs, 5, 77)
    # a built-in separable target never asks delta_u_move in the block engine
    target = SmoothedDoubleWell(d_star=2)
    delta = spy(monkeypatch, target, "delta_u_move")
    u1 = spy(monkeypatch, target, "u1")
    simulate_ensemble(MIX, target, prop, x0, obs, 5, 77, rescaled=False)
    assert not delta and len(u1) > 1


def test_m1_needs_no_dominating_mass():
    # from x = 100 the quadratic's tilt is 100, and eps theta^2 / 2 = 5000
    # overflows Lam(eps); m1 thins the plain proposal and never needs it, the
    # tilted kinds cannot run
    target = BoxedQuadratic(d_star=1)
    prop = GaussianProposal(1.0)
    far = np.full(1, 100.0)
    ens = simulate_ensemble(GeneratorKind.m1(), target, prop, far, [0.5, 1.0], 4, 2)
    assert np.all(np.isfinite(ens.samples))
    path = simulate_path(GeneratorKind.m1(), target, prop, far, 5.0, 2)
    assert path.jump_times.size > 0
    for kind in (GeneratorKind.m2(), MIX):
        with pytest.raises(ConfigurationError):
            simulate_ensemble(kind, target, prop, far, [0.5, 1.0], 4, 2)


@both_clocks
def test_ensemble_invariant_to_blocks_and_threads(monkeypatch, kind, target):
    prop = GaussianProposal(0.09)
    obs = [0.25, 0.5]
    monkeypatch.setattr(jump, "BLOCK_PATHS", 512)
    base = simulate_ensemble(kind, target, prop, np.zeros(2), obs, 40, 5)
    for block in (3, 17):
        monkeypatch.setattr(jump, "BLOCK_PATHS", block)
        other = simulate_ensemble(kind, target, prop, np.zeros(2), obs, 40, 5)
        assert np.array_equal(base.samples, other.samples)
    monkeypatch.setattr(jump, "BLOCK_PATHS", 7)
    threaded = simulate_ensemble(kind, target, prop, np.zeros(2), obs, 40, 5, threads=4)
    assert np.array_equal(base.samples, threaded.samples)


@pytest.mark.parametrize("threads", [1, 4])
def test_run_spans_places_every_block_at_its_paths(monkeypatch, threads):
    # on 4 threads each block waits for the next one to finish, so the blocks
    # finish last to first; the rows of two outputs of different dtypes still
    # land at their paths' indices, the last block a partial one
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    n, block = 14, 4
    done = [threading.Event() for _ in range(4)]
    finished = []

    def run_span(b, lo, hi):
        if threads > 1 and b < 3:
            assert done[b + 1].wait(timeout=30)
        finished.append(b)
        done[b].set()
        paths = np.arange(lo, hi)
        return paths + 0.5, -paths

    out = (np.full(n, np.nan), np.zeros(n, dtype=np.int64))
    jump.run_spans(run_span, out, block, threads)
    assert finished == ([3, 2, 1, 0] if threads > 1 else [0, 1, 2, 3])
    assert np.array_equal(out[0], np.arange(n) + 0.5)
    assert np.array_equal(out[1], -np.arange(n)) and out[1].dtype == np.int64


class SteepBeyondThreeQuadratic(BoxedQuadratic):
    """Declares the quadratic's slope bound |x| below |x| = 3 and half of it beyond."""

    def slope_bound(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 3.0, x, 0.5 * x)


def test_an_error_in_a_later_block_is_raised_as_in_process(monkeypatch):
    # paths 6 to 15 start where the declared bound is too small; blocks 1 to 3
    # raise, and on 4 threads the caller gets block 1's error, the one a run in
    # process meets first, and no worker thread outlives the call
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(jump, "BLOCK_PATHS", 4)
    x0 = np.where(np.arange(16) < 6, 0.7, 5.0)[:, None]
    messages = []
    for threads in (1, 4):
        before = threading.active_count()
        with pytest.raises(DominationError) as err:
            simulate_ensemble(GeneratorKind.m2(), SteepBeyondThreeQuadratic(d_star=1),
                              GaussianProposal(0.04), x0, [0.5, 1.0], 16, 4, threads=threads)
        assert threading.active_count() == before
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "at path 6, x=array([5.])" in messages[0]


def test_threads_are_capped_at_the_usable_cores(monkeypatch):
    # a run starts no more threads than the process may run on, nor more than
    # it has blocks, and with one usable core or one block it starts no pool
    # at all; no byte changes
    pools = []
    real_pool = jump.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    def run(threads):
        return simulate_ensemble(MIX, DW, GaussianProposal(0.09), np.zeros(2), [0.25, 0.5], 40, 5,
                                 threads=threads).samples

    monkeypatch.setattr(jump, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(jump, "BLOCK_PATHS", 7)
    base = run(1)
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert np.array_equal(run(4), base) and pools == []
    monkeypatch.setattr(jump.os, "sched_getaffinity", lambda pid: {0, 1})
    assert np.array_equal(run(4), base) and pools == [2]
    # without affinity the machine's cores count, and an unknown count is one
    monkeypatch.delattr(jump.os, "sched_getaffinity")
    monkeypatch.setattr(jump.os, "cpu_count", lambda: None)
    assert np.array_equal(run(4), base) and pools == [2]
    monkeypatch.setattr(jump.os, "cpu_count", lambda: 3)
    assert np.array_equal(run(2), base) and np.array_equal(run(8), base) and pools == [2, 2, 3]
    monkeypatch.setattr(jump, "BLOCK_PATHS", 20)
    assert np.array_equal(run(8), base) and pools == [2, 2, 3, 2]
    monkeypatch.setattr(jump, "BLOCK_PATHS", 40)
    assert np.array_equal(run(8), base) and pools == [2, 2, 3, 2]


@pytest.mark.parametrize("threads", [1, 4])
@both_clocks
def test_ensemble_paths_do_not_depend_on_n_paths(kind, target, threads):
    # a path's values depend only on (seed, domain, path index)
    prop = GaussianProposal(0.09)
    obs = [0.25, 0.5]
    full = simulate_ensemble(kind, target, prop, np.zeros(2), obs, 700, 5)
    part = simulate_ensemble(kind, target, prop, np.zeros(2), obs, 300, 5, threads=threads)
    assert np.array_equal(part.samples, full.samples[:300])


def test_rescaled_grid_is_horizon_division():
    # macroscopic obs t with variance eps equals raw process obs t/eps
    prop = GaussianProposal(0.25)
    a = simulate_ensemble(GeneratorKind.m2(), DW, prop, np.zeros(2), [0.5, 1.0], 12, 9)
    b = simulate_ensemble(
        GeneratorKind.m2(), DW, prop, np.zeros(2), [2.0, 4.0], 12, 9, rescaled=False
    )
    assert np.array_equal(a.samples, b.samples)
    assert a.epsilon == 0.25 and a.kind == "m2" and a.alpha is None
    assert np.array_equal(a.obs_grid, [0.5, 1.0])


def test_per_path_initial_states():
    starts = np.array([[0.5, -0.5], [1.5, 0.0], [-1.0, 2.0]])
    ens = simulate_ensemble(
        GeneratorKind.m1(), DW, GaussianProposal(0.01), starts, [0.0, 0.1], 3, 1
    )
    assert np.array_equal(ens.samples[:, 0, :], starts)  # obs at t = 0 is the start


@pytest.mark.parametrize("chunk", [1, 3, 64])
@both_clocks
def test_ensemble_invariant_to_tape_chunk(monkeypatch, kind, target, chunk):
    # about 250-300 candidates per path, so the default chunk is crossed too
    prop = GaussianProposal(0.004)
    obs = [0.0, 0.3, 0.6, 1.0]
    monkeypatch.setattr(jump, "BLOCK_PATHS", 10)

    def run():
        return simulate_ensemble(kind, target, prop, np.array([1.0, -1.0]), obs, 24, 31,
                                 return_counts=True)

    ens, counts = run()
    monkeypatch.setattr(jump, "TAPE_CHUNK", chunk)
    other, other_counts = run()
    assert np.array_equal(ens.samples, other.samples)
    assert np.array_equal(counts, other_counts)


@pytest.mark.parametrize("n,block,chunk", [(1, 1, 256), (256, 256, 256), (512, 512, 256),
                                            (600, 600, 128), (1024, 1024, 128),
                                            (2000, 2000, 64), (10000, 2048, 64)])
def test_blocks_share_one_tape_budget(monkeypatch, n, block, chunk):
    # every block draws the largest chunk dividing TAPE_CHUNK that keeps its
    # tape within TAPE_ROWS; the first block is the widest
    shapes = []
    tape_chunk = jump._tape_chunk

    def spy(b, d):
        shapes.append((b, tape_chunk(b, d)))
        return shapes[-1][1]

    monkeypatch.setattr(jump, "_tape_chunk", spy)
    simulate_ensemble(GeneratorKind.m1(), WELL, GaussianProposal(0.3), np.array([0.4]), [0.01],
                      n, 0)
    assert shapes[0] == (block, chunk)
    assert sum(b for b, _ in shapes) == n
    assert all(b <= block and b * c <= jump.TAPE_ROWS and jump.TAPE_CHUNK % c == 0
               for b, c in shapes)


@pytest.mark.parametrize("rows", [1, 24 * 3, 24 * 100])
def test_both_clocks_invariant_to_the_tape_budget(monkeypatch, rows):
    # one block of 24 paths draws 1, 2 or 64 rows at a time instead of 256;
    # about 250-300 candidates per path, so the default chunk is crossed too
    prop = GaussianProposal(0.004)
    obs = [0.0, 0.3, 0.6, 1.0]

    def runs():
        return [simulate_ensemble(kind, target, prop, np.array([1.0, -1.0]), obs, 24, 31,
                                  return_counts=True) for kind, target in CELLS]

    base = runs()
    monkeypatch.setattr(jump, "TAPE_ROWS", rows)
    assert jump._tape_chunk(24, 2) < jump.TAPE_CHUNK
    for (ens, counts), (other, other_counts) in zip(base, runs()):
        assert np.array_equal(ens.samples, other.samples)
        assert np.array_equal(counts, other_counts)


def clock_cells(one_rate_kind):
    """Parametrize over both clocks: one_rate_kind on the log-cosh well, and
    the tilted kinds under the per-event clock on the 1-d quadratic."""
    cells = [(one_rate_kind, WELL)] + [(kind, QUAD1) for kind in LOCAL]
    return pytest.mark.parametrize("kind,target", cells,
                                   ids=[f"{k.label()}-{t.name}" for k, t in cells])


@clock_cells(MIX)
def test_observation_at_time_zero_is_the_start(kind, target):
    ens = assert_engines_agree(kind, target, GaussianProposal(0.3), np.array([0.4]), [0.0, 2.0],
                               6, 2)
    assert np.all(ens.samples[:, 0, 0] == 0.4)


@clock_cells(GeneratorKind.m1())
def test_several_observations_between_two_candidates(kind, target):
    prop, x0 = GaussianProposal(0.3), np.array([0.4])
    t = replayed_candidate_times(kind, target, prop, x0, 8, 0, 6, 100.0)
    assert t.size == 6
    between = [t[2] + f * (t[3] - t[2]) for f in (0.2, 0.4, 0.6)]
    ens = assert_engines_agree(kind, target, prop, x0, between + [t[5]], 4, 8)
    assert np.array_equal(ens.samples[0, 0], ens.samples[0, 2])


def test_observation_crossing_on_the_first_row_of_a_chunk(monkeypatch):
    # with 4 rows per chunk, the crossings of the first two observations are
    # found at candidates 4 and 8, the first rows of chunks two and three,
    # from each chunk's starting clock; the last observation is the horizon
    # and falls on candidate 10
    monkeypatch.setattr(jump, "TAPE_CHUNK", 4)
    prop, x0 = GaussianProposal(0.3), np.array([0.4])
    for kind, target in [(GeneratorKind.m1(), WELL)] + [(kind, QUAD1) for kind in LOCAL]:
        t = replayed_candidate_times(kind, target, prop, x0, 8, 0, 12, 100.0)
        assert t.size == 12
        obs = [0.5 * (t[3] + t[4]), 0.5 * (t[7] + t[8]), t[10]]
        assert_engines_agree(kind, target, prop, x0, obs, 3, 8)


# every kind at one rate on the log-cosh well, and the tilted kinds under the
# per-event clock on the 1-d quadratic
MID_CHUNK_CELLS = [(kind, WELL) for kind in KINDS] + [(kind, QUAD1) for kind in LOCAL]


@pytest.mark.parametrize("kind,target", MID_CHUNK_CELLS,
                         ids=[k.label() + ("-per-event-clock" if t is QUAD1 else "")
                              for k, t in MID_CHUNK_CELLS])
def test_paths_ending_mid_chunk_while_others_continue(monkeypatch, kind, target):
    # chunks of 8 rows drawn in groups of 3 paths: the 16 paths are not a
    # multiple of a group, and as they end in different chunks the live paths
    # fill fewer groups
    monkeypatch.setattr(jump, "TAPE_CHUNK", 8)
    monkeypatch.setattr(jump, "FIRST_JUMP_BATCH", 3 * 8)
    prop, x0, horizon = GaussianProposal(0.3), np.array([0.4]), 20.0
    ends = [replayed_candidate_times(kind, target, prop, x0, 5, q, 200, horizon).size - 1
            for q in range(16)]
    assert len({n // 8 for n in ends}) > 1  # the paths end in different chunks
    live, draw = [], jump._draw_chunk

    def spy(p, streams, paths, tape, t, d):
        live.append((paths.size, tape.shape[0]))
        return draw(p, streams, paths, tape, t, d)

    monkeypatch.setattr(jump, "_draw_chunk", spy)
    assert_engines_agree(kind, target, prop, x0, [1.0, 7.5, 7.6, 15.0, horizon], 16, 5)
    assert {group for _, group in live} == {3}
    assert len({-(-n // 3) for n, _ in live}) > 1  # the live count crossed a group boundary


def test_lying_grad_bound_raises_in_both_engines():
    # the true slope near the wall of the well is about 2.3, far above 0.1
    target = SmoothedDoubleWell(d_star=1, grad_bound=0.1)
    prop = GaussianProposal(0.04)
    with pytest.raises(DominationError, match="grad_bound"):
        simulate_path(GeneratorKind.m2(), target, prop, np.array([0.7]), 50.0, 4)
    with pytest.raises(DominationError) as block:
        simulate_ensemble(GeneratorKind.m2(), target, prop, np.array([0.7]), [0.5, 1.0], 16, 4)
    assert str(block.value) == (
        "acceptance log-probability 2.478e-01 > 0 for kind m2 at path 6, x=array([0.7]), i=0, "
        "z=0.591760793622353: the declared grad_bound 0.1 is not a true bound along this move; "
        "declare a true grad_bound or slope_bound"
    )
    # candidates past the horizon are never thinned, so neither engine checks them
    ens = assert_engines_agree(GeneratorKind.m2(), target, prop, np.array([0.7]), [1e-4], 16, 4)
    assert np.all(ens.samples == 0.7)


class NanSlopeQuadratic(BoxedQuadratic):
    """Declares a slope bound that is NaN away from the origin."""

    def slope_bound(self, x):
        return np.where(np.abs(x) > 0.5, np.nan, np.abs(x))


def test_nan_slope_bound_is_refused_in_both_engines():
    target = NanSlopeQuadratic(d_star=1)
    prop = GaussianProposal(0.04)
    with pytest.raises(DominationError, match="negative or NaN"):
        simulate_path(GeneratorKind.m2(), target, prop, np.array([1.5]), 50.0, 4)
    with pytest.raises(DominationError, match="negative or NaN"):
        simulate_ensemble(GeneratorKind.m2(), target, prop, np.array([0.2]), [0.5, 1.0], 16, 4)


class HalfSlopeQuadratic(BoxedQuadratic):
    """Declares half of the quadratic's true per-state slope bound."""

    def slope_bound(self, x):
        return 0.5 * super().slope_bound(x)


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
def test_lying_slope_bound_raises_in_both_engines(kind):
    # moving toward 0 from x descends at slope |x|, twice the declared bound
    target = HalfSlopeQuadratic(d_star=1)
    prop = GaussianProposal(0.04)
    with pytest.raises(DominationError, match="slope_bound"):
        simulate_path(kind, target, prop, np.array([1.5]), 50.0, 4)
    with pytest.raises(DominationError, match="path"):
        simulate_ensemble(kind, target, prop, np.array([1.5]), [0.5, 1.0], 16, 4)


def test_first_jump_displacements_contract(monkeypatch):
    target = SmoothedDoubleWell(d_star=3)
    prop = GaussianProposal(0.01)
    z, i = first_jump_displacements(GeneratorKind.m2(), target, prop, np.zeros(3), 30000, 21)
    monkeypatch.setattr(jump, "FIRST_JUMP_BATCH", 4096)
    z2, i2 = first_jump_displacements(GeneratorKind.m2(), target, prop, np.zeros(3), 30000, 21)
    # accepted rows are a tape-order subsequence, so batching cannot matter
    assert np.array_equal(z, z2) and np.array_equal(i, i2)
    counts = np.bincount(i, minlength=3)
    assert np.max(np.abs(counts - 10000)) < 500  # ~5 sigma for uniform thirds
    assert abs(z.mean()) < 5.0 * z.std() / math.sqrt(z.size)  # symmetric at the saddle


def test_validation_errors():
    prop = GaussianProposal(0.04)
    with pytest.raises(ConfigurationError):
        simulate_path(MIX, DW, prop, np.zeros(2), -1.0, 0)
    with pytest.raises(ConfigurationError):
        simulate_path(MIX, DW, prop, np.zeros(3), 1.0, 0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(MIX, DW, prop, np.zeros(2), [0.5, 0.25], 4, 0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(MIX, DW, prop, np.zeros(2), [-0.5, 0.25], 4, 0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(MIX, DW, prop, np.zeros(2), [0.5], 0, 0)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(MIX, DW, prop, np.zeros((3, 2)), [0.5], 4, 0)
    # the scalar engine and the first-jump sampler start from one state only
    with pytest.raises(ConfigurationError, match="simulate_path takes a single initial state"):
        simulate_path(MIX, DW, prop, np.zeros((3, 2)), 1.0, 0)
    with pytest.raises(ConfigurationError,
                       match="first_jump_displacements takes a single state"):
        first_jump_displacements(MIX, DW, prop, np.zeros((3, 2)), 10, 0)
    with pytest.raises(ConfigurationError, match="finite"):
        simulate_path(GeneratorKind.m1(), QUAD1, prop, np.array([np.inf]), 1.0, 0)
    with pytest.raises(ConfigurationError, match="finite"):
        simulate_ensemble(MIX, DW, prop, np.array([0.0, np.nan]), [0.5], 4, 0)
    # a 0-d start has no coordinate axis
    for run in (lambda: simulate_path(MIX, WELL, prop, 0.5, 1.0, 0),
                lambda: simulate_ensemble(MIX, WELL, prop, 0.5, [0.5], 4, 0),
                lambda: first_jump_displacements(MIX, WELL, prop, 0.5, 10, 0)):
        with pytest.raises(ConfigurationError, match="coordinates"):
            run()


def test_a_start_of_infinite_potential_is_refused_by_every_engine():
    # U(1e200) overflows to inf, so every dU would be inf - inf = NaN: no
    # candidate is accepted, and the first-jump sampler would never return
    target, prop, far = SmoothedDoubleWell(d_star=1), GaussianProposal(1e-2), np.array([1e200])
    refused = r"doublewell is not finite at x0=array\(\[1.e\+200\]\)"
    for run in (lambda: first_jump_displacements(GeneratorKind.m2(), target, prop, far, 10, 0),
                lambda: simulate_path(GeneratorKind.m2(), target, prop, far, 1.0, 0),
                lambda: simulate_ensemble(MIX, target, prop, np.array([[0.0], [1e200]]), [0.5],
                                          2, 0),
                lambda: simulate_langevin(target, far, [0.01], 2, 1e-3, 0)):
        with pytest.raises(ConfigurationError, match=refused):
            run()


def test_first_jump_working_memory_stays_near_one_tape(traced_peak_mb):
    # 10**6 samples return 16 MB; the batch and its transform's temporaries
    # stay near one tape's bytes (6.3 MB) beside them
    peak = traced_peak_mb(lambda: first_jump_displacements(
        GeneratorKind.m2(), SmoothedDoubleWell(d_star=1), GaussianProposal(1e-2), [0.7], 10 ** 6,
        0))
    assert peak < 24.0


BUDGET_MB = jump.TAPE_ROWS * jump.TAPE_COLS * 8 / 1e6  # one block tape's floats


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_block_chunk_fits_in_two_budgets(traced_peak_mb, kind):
    # the ks_sweep cell: 1024 paths at d=1 draw 128-row chunks, m1 under the
    # shared kernel, m2 and mix(0.5) under the per-event clock; the group
    # tape, the decoded event-major arrays, the clock and `before` stay
    # within two budgets (a whole-block tape and its event-major copy alone
    # were two)
    peak = traced_peak_mb(lambda: simulate_ensemble(
        kind, QUAD1, GaussianProposal(1e-2), np.array([1.0]), [0.5, 1.0], 1024, 0))
    assert peak <= 2 * BUDGET_MB


def test_occupation_block_fits_in_one_budget(traced_peak_mb):
    # the occupation cell: 256 paths at d=1 draw 256-row chunks on a long
    # unrescaled run with a dense grid; samples are 41 kB
    starts = np.where(np.arange(256) % 2 == 0, 1.48946, -1.48946)[:, None]
    for kind in KINDS[:2]:
        peak = traced_peak_mb(lambda: simulate_ensemble(
            kind, SmoothedDoubleWell(d_star=1), GaussianProposal(0.05), starts,
            80.0 + 25.0 * np.arange(20), 256, 0, rescaled=False))
        assert peak <= BUDGET_MB


def test_block_working_memory_does_not_grow_with_d(traced_peak_mb):
    # a block of 1024 paths at d=64 draws short chunks, so its decoded rows
    # and its `before` buffer each fit in one tape's floats; samples are 1 MB
    d = 64
    assert jump._tape_chunk(1024, d) == 8
    peak = traced_peak_mb(lambda: simulate_ensemble(
        GeneratorKind.m1(), SmoothedDoubleWell(d_star=d), GaussianProposal(1e-2), np.zeros(d),
        [0.005, 0.01], 1024, 0))
    assert peak <= 2 * BUDGET_MB


def test_runaway_runs_are_refused_before_they_start():
    # m2 against the constant tilt 10 at eps=0.5: Lam ~ 1.44e11 candidates per
    # unit time, ~2.9e11 per path over the process horizon 2; it would never
    # return
    target = SmoothedDoubleWell(d_star=1, grad_bound=10.0)
    prop = GaussianProposal(0.5)
    with pytest.raises(ConfigurationError, match="expected candidate events"):
        simulate_ensemble(GeneratorKind.m2(), target, prop, np.zeros(1), [1.0], 4, 0)
    with pytest.raises(ConfigurationError, match="expected candidate events"):
        simulate_path(GeneratorKind.m2(), target, prop, np.zeros(1), 2.0, 0)
    # the cap is on rate x horizon: m1 at the same eps runs
    path = simulate_path(GeneratorKind.m1(), target, prop, np.zeros(1), 2.0, 0)
    assert path.horizon == 2.0


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
def test_quadratic_runs_what_a_worst_case_rate_refused(kind):
    # against the worst case over |x| <= 10 these runs were refused as 2.9e11
    # (eps 0.5, process horizon 2) and 4.36e9 (eps 0.3, horizon 667) expected
    # candidates per path; the rate of the state a path is in is far smaller
    assert_engines_agree(kind, QUAD1, GaussianProposal(0.5), np.zeros(1), [1.0, 2.0], 16, 0)
    prop = GaussianProposal(0.3)
    ens, counts = simulate_ensemble(kind, QUAD1, prop, np.zeros(1), [200.0], 256, 0,
                                    return_counts=True)
    assert counts.mean() > 500 and np.abs(ens.samples).max() < 10.0
    path = simulate_path(kind, QUAD1, prop, np.zeros(1), 200.0 / 0.3,
                         path_stream(0, DOMAIN_JUMP, 9))
    assert path.jump_times.size == counts[9]
    assert np.array_equal(path.state_at(path.horizon), ens.samples[9, -1])


class Quartic(SeparableTargetPotential):
    """U(x) = sum_i x_i^4 / 4 with its exact per-state slope bound |x_i|^3:
    u1 is convex, so u1(v) - u1(v + z) <= -u1'(v) z <= |v|^3 |z|."""

    name = "quartic"

    def __init__(self, d_star=1):
        super().__init__(d_star, 1.0)

    def u1(self, v):
        return 0.25 * np.asarray(v, dtype=float) ** 4

    def du1(self, v):
        return np.asarray(v, dtype=float) ** 3

    def slope_bound(self, x):
        return np.abs(np.asarray(x, dtype=float)) ** 3


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
@pytest.mark.parametrize("x0,match", [(5.0, "expected candidate events"),
                                      (20.0, "dominating mass overflows")])
def test_runaway_local_rate_is_stopped_in_both_engines(kind, x0, match):
    # from x0 = 5 the tilt is 125 and R(x) ~ 1e34, refused by the per-chunk
    # check; from x0 = 20, eps theta^2 / 2 = 3.2e5 overflows the row's mass.
    # The block engine names the largest row's rate, the far start's.
    prop = GaussianProposal(0.01)
    with pytest.raises(ConfigurationError, match=match) as scalar:
        simulate_path(kind, Quartic(), prop, np.array([x0]), 100.0, 0)
    starts = np.array([[0.5], [x0], [0.5]])
    with pytest.raises(ConfigurationError, match=match) as block:
        simulate_ensemble(kind, Quartic(), prop, starts, [1.0], 3, 0)
    assert str(block.value) == str(scalar.value)


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_rate_check_stops_both_engines_at_the_same_chunk(monkeypatch, kind, seed):
    # R(0) = 1, so the cap passes the start; R(x) grows to 3-9 as |x| does, and
    # the check at a later chunk boundary stops the path in the same state,
    # clock and remaining horizon in both engines
    monkeypatch.setattr(jump, "TAPE_CHUNK", 8)
    monkeypatch.setattr(jump, "MAX_CANDIDATES", 1500.0)
    prop, horizon = GaussianProposal(0.3), 600.0
    with pytest.raises(ConfigurationError, match="expected candidate events") as scalar:
        simulate_path(kind, QUAD1, prop, np.zeros(1), horizon, path_stream(seed, DOMAIN_JUMP, 0))
    with pytest.raises(ConfigurationError, match="expected candidate events") as block:
        simulate_ensemble(kind, QUAD1, prop, np.zeros(1), [horizon], 1, seed, rescaled=False)
    assert str(block.value) == str(scalar.value)
    assert f"over horizon {horizon:.3g})" not in str(scalar.value)  # stopped after it started


def rate_checks(monkeypatch, run):
    """The largest expected candidate count of every run-size check of run(),
    and the message of the ConfigurationError that stopped it, or None."""
    seen = []
    check = jump._check_candidates

    def spy(q, remaining):
        seen.append(float(np.max(q.rate_total * np.asarray(remaining))))
        check(q, remaining)

    monkeypatch.setattr(jump, "_check_candidates", spy)
    try:
        run()
    except ConfigurationError as err:
        return seen, str(err)
    finally:
        monkeypatch.setattr(jump, "_check_candidates", check)
    return seen, None


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_rate_check_keeps_its_cadence_in_a_short_chunk(monkeypatch, kind, seed):
    # a block of one path drawing TAPE_CHUNK / 4 rows at a time checks only
    # after every TAPE_CHUNK rows, so it makes the scalar engine's checks and
    # is refused at the same event with the same message
    monkeypatch.setattr(jump, "TAPE_CHUNK", 8)
    monkeypatch.setattr(jump, "TAPE_ROWS", 2)
    monkeypatch.setattr(jump, "MAX_CANDIDATES", 1500.0)
    assert jump._tape_chunk(1, 1) == jump.TAPE_CHUNK // 4
    prop, horizon = GaussianProposal(0.3), 600.0
    scalar = rate_checks(monkeypatch, lambda: simulate_path(
        kind, QUAD1, prop, np.zeros(1), horizon, path_stream(seed, DOMAIN_JUMP, 0)))
    block = rate_checks(monkeypatch, lambda: simulate_ensemble(
        kind, QUAD1, prop, np.zeros(1), [horizon], 1, seed, rescaled=False))
    assert "expected candidate events" in scalar[1]
    assert len(scalar[0]) > 1 and block == scalar


@pytest.mark.parametrize("kind", LOCAL, ids=lambda k: k.label())
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_rate_crossing_the_cap_between_checks_is_not_refused(monkeypatch, kind, seed):
    # R(x) times the remaining horizon rises above the cap at an event that
    # is not a multiple of TAPE_CHUNK, and is below it at every check; the run
    # passes in both engines at the default chunk and at TAPE_CHUNK / 4
    prop, horizon, x0 = GaussianProposal(0.3), 300.0, np.zeros(1)
    monkeypatch.setattr(jump, "TAPE_CHUNK", 1)  # a check before every event
    seen, _ = rate_checks(monkeypatch, lambda: simulate_path(
        kind, QUAD1, prop, x0, horizon, path_stream(seed, DOMAIN_JUMP, 0)))
    at_checks, between = max(seen[::8]), max(seen[::2])
    assert between > at_checks
    monkeypatch.setattr(jump, "TAPE_CHUNK", 8)
    monkeypatch.setattr(jump, "MAX_CANDIDATES", math.sqrt(at_checks * between))
    for rows in (jump.TAPE_ROWS, 2):
        monkeypatch.setattr(jump, "TAPE_ROWS", rows)
        assert_engines_agree(kind, QUAD1, prop, x0, [horizon], 1, seed)


MALFORMED = [("n_paths", 2.5), ("n_paths", 0), ("n_paths", "4"), ("n_paths", True),
             ("master_seed", -1), ("master_seed", 1.5), ("master_seed", "7"),
             ("threads", 0), ("threads", -2), ("threads", 2.5)]


@pytest.mark.parametrize("field,value", MALFORMED)
def test_simulate_ensemble_refuses_malformed_sizes_and_seeds(field, value):
    args = {"n_paths": 4, "master_seed": 0, "threads": 1, field: value}
    with pytest.raises(ConfigurationError, match=field):
        simulate_ensemble(MIX, DW, GaussianProposal(0.04), np.zeros(2), [0.5], **args)


def test_sizes_and_seeds_may_be_numpy_integers():
    prop = GaussianProposal(0.04)
    ens = simulate_ensemble(MIX, DW, prop, np.zeros(2), [0.5], 4, 3)
    other = simulate_ensemble(MIX, DW, prop, np.zeros(2), [0.5], np.int64(4), np.uint32(3),
                              threads=np.int8(2))
    assert np.array_equal(ens.samples, other.samples) and other.seed == 3
    z, i = first_jump_displacements(MIX, DW, prop, np.zeros(2), 50, 3)
    z2, i2 = first_jump_displacements(MIX, DW, prop, np.zeros(2), np.int32(50), np.int64(3))
    assert np.array_equal(z, z2) and np.array_equal(i, i2)


def test_a_refused_numpy_integer_is_named_as_a_plain_number():
    with pytest.raises(ConfigurationError, match=r"n_paths must be an integer >= 1, got 0$"):
        simulate_ensemble(MIX, DW, GaussianProposal(0.04), np.zeros(2), [0.5], np.int64(0), 0)


@pytest.mark.parametrize("field,value", [("n_samples", -1), ("n_samples", 0),
                                         ("n_samples", 2.5), ("master_seed", -1),
                                         ("master_seed", 1.5)])
def test_first_jump_displacements_refuses_malformed_sizes_and_seeds(field, value):
    args = {"n_samples": 10, "master_seed": 0, field: value}
    with pytest.raises(ConfigurationError, match=field):
        first_jump_displacements(MIX, DW, GaussianProposal(0.04), np.zeros(2), **args)


SEED_DOORS = {
    "path_stream": lambda seed: path_stream(seed, DOMAIN_JUMP, 0),
    "path_streams": lambda seed: path_streams(seed, DOMAIN_JUMP, 0, 3),
    "simulate_ensemble": lambda seed: simulate_ensemble(MIX, DW, GaussianProposal(0.04),
                                                        np.zeros(2), [0.5], 4, seed),
    "first_jump_displacements": lambda seed: first_jump_displacements(
        MIX, DW, GaussianProposal(0.04), np.zeros(2), 10, seed),
    "simulate_langevin": lambda seed: simulate_langevin(DW, np.zeros(2), [0.1], 4, 1e-2, seed),
}


@pytest.mark.parametrize("call", SEED_DOORS.values(), ids=SEED_DOORS)
def test_a_seed_no_ensemble_may_hold_is_refused_before_any_stream(monkeypatch, call):
    # the binary header holds a u64 seed: a run from 2**64 would make an
    # ensemble no file can store, so the stream door refuses it before drawing
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    with pytest.raises(ConfigurationError,
                       match=r"master_seed must be in \[0, 2\*\*64\), got 18446744073709551616"):
        call(2 ** 64)


def test_path_streams_of_a_two_word_domain_are_path_stream():
    # a domain of 2**32 and above takes two words, so its block falls back to path_stream
    for domain in (2 ** 32, 2 ** 40 + 3):
        for q, stream in zip(range(5, 8), path_streams(7, domain, 5, 8)):
            assert np.array_equal(stream.random(8), path_stream(7, domain, q).random(8))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, False])
def test_path_stream_refuses_malformed_seeds(seed):
    with pytest.raises(ConfigurationError, match="master_seed"):
        path_stream(seed, DOMAIN_JUMP, 0)
    with pytest.raises(ConfigurationError, match="master_seed"):
        path_streams(seed, DOMAIN_JUMP, 0, 3)
    with pytest.raises(ConfigurationError, match="master_seed"):
        simulate_path(MIX, DW, GaussianProposal(0.04), np.zeros(2), 1.0, seed)


def test_observed_ensemble_accessors():
    ens = ObservedEnsemble(
        obs_grid=np.array([0.1, 0.2]),
        samples=np.zeros((5, 2, 3)),
        epsilon=0.01,
        kind="m1",
        seed=0,
    )
    assert ens.n_paths == 5 and ens.d_star == 3
    assert ens.marginal(1, coord=2).shape == (5,)
    with pytest.raises(ConfigurationError):
        ObservedEnsemble(np.array([0.1, 0.2]), np.zeros((5, 3, 3)), 0.01, "m1", 0)
