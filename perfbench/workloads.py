"""The three workloads. Each has `setup(seed)`, which builds every input
from the workload seed, and `run(lib, inputs, gates, scratch)`, one timed
iteration: library calls through the adapter, then the correctness gates.

An iteration reuses the same inputs and seed, so repeated iterations do the
same work and produce the same bytes and accepted-event counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from adapter import (
    BoxedQuadratic,
    FiniteChain,
    GaussianProposal,
    GeneratorKind,
    SmoothedDoubleWell,
    bump_library,
    default_x_grid,
)
import gates as g

# Statistical gates run on every seed the benchmark is given, so each is set
# for a false-alarm probability near 1e-5 per check under a correct program
# (criteria 6-8 use 5% and 0.1% levels at one fixed seed).
P_FLOOR = 1e-5

# ks_sweep: criterion 6 at a path count that fits several iterations in a run.
# Kolmogorov tail: P(K > 2.5) = 7e-6; a rise of 7 null sd between two
# independent null statistics has probability 7e-6.
KS_PATHS = 1024
KS_EPS = (1e-1, 1e-2, 1e-3)
KS_DT = 1e-4
KS_COEFF = 2.5
KS_RISE_SD = 7.0

# occupation: criterion 7
OCC_PATHS = 256
OCC_EPS = 0.05
OCC_WELL = 1.48946
OCC_GRID = 80.0 + 25.0 * np.arange(200)
OCC_EVENTS_FLOOR = 1_000_000
# The criterion-7 chi-square over all 51,200 samples is recorded, not gated:
# a path's 200 observations are correlated, so its p-value is not uniform
# under a correct sampler. The gate tests the last observation of each of the
# independent paths.
OCC_GATE_BINS = 10

# oracles: criteria 1, 3, 4, 5, 8 and a d=3 Langevin reference
MOMENT_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
PROBE_EPS = (1e-1, 1e-2, 1e-3)
FOLDED_EPS = (1e-5, 1e-6, 1e-7, 1e-8)
FOLDED_WINDOWS = {3: (1.45, 1.55), 4: (1.95, 2.05)}
SLOPE_WINDOW = (0.35, 0.65)
FIRST_JUMP_SAMPLES = 1_000_000
FINITE_CHAINS = 100
FINITE_STATES = 5
FINITE_COMPETITORS = 10_000
FINITE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
FINITE_TOL = 1e-12
LANGEVIN_PATHS = 4096
LANGEVIN_X0 = (1.0, -0.5, 2.0)
LANGEVIN_DT = 1e-4

_KINDS = (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5))


@dataclass(frozen=True)
class KsInputs:
    seed: int
    target: object
    x0: np.ndarray
    obs: np.ndarray
    proposals: tuple


class KsSweep:
    """3 kinds x 3 eps jump ensembles against one Langevin reference."""

    name = "ks_sweep"

    def setup(self, seed):
        return KsInputs(seed, BoxedQuadratic(d_star=1), np.array([1.0]), np.array([0.5, 1.0]),
                        tuple(GaussianProposal(e) for e in KS_EPS))

    def run(self, lib, inp, gates, scratch):
        ref = lib.simulate_langevin("ref", inp.target, inp.x0, inp.obs, KS_PATHS, KS_DT, inp.seed)
        thr = lib.ks_threshold(KS_PATHS, KS_COEFF)
        slack = KS_RISE_SD * lib.ks_null_sd(KS_PATHS)
        for kind in _KINDS:
            ks = []
            for j, prop in enumerate(inp.proposals, start=1):
                label = f"{kind.tag}_e{j}"
                ens, _ = lib.simulate_ensemble(label, kind, inp.target, prop, inp.x0, inp.obs,
                                               KS_PATHS, inp.seed)
                ks.append(lib.compare_ensembles(label, ens, ref).max_ks)
            gates.check(f"{kind.tag} final KS", g.below(ks[-1], thr, "max KS"))
            gates.check(f"{kind.tag} KS non-increasing", g.non_increasing(ks, slack))


@dataclass(frozen=True)
class OccupationInputs:
    seed: int
    target: object
    proposal: object
    starts: np.ndarray


class Occupation:
    """Long unrescaled double-well runs on a dense grid, then artifact I/O."""

    name = "occupation"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        upper = rng.permutation(OCC_PATHS) < OCC_PATHS // 2
        starts = np.where(upper, OCC_WELL, -OCC_WELL)[:, None]
        return OccupationInputs(seed, SmoothedDoubleWell(d_star=1), GaussianProposal(OCC_EPS), starts)

    def run(self, lib, inp, gates, scratch):
        for kind in _KINDS[:2]:
            label = kind.tag
            ens, events = lib.simulate_ensemble(label, kind, inp.target, inp.proposal, inp.starts,
                                                OCC_GRID, OCC_PATHS, inp.seed, rescaled=False)
            lib.stationarity_chisquare(label, ens.samples[:, :, 0].ravel(), inp.target, 50)
            _, p, _ = lib.stationarity_chisquare(f"{label}_last", ens.samples[:, -1, 0], inp.target,
                                                 OCC_GATE_BINS)
            gates.check(f"{label} Gibbs chi-square at the last observation", g.p_value(p, P_FLOOR))
            gates.check(f"{label} accepted events", g.at_least(events, OCC_EVENTS_FLOOR, "events"))
            csv_path = os.path.join(scratch, f"{label}.csv")
            bin_path = os.path.join(scratch, f"{label}.bin")
            lib.write_csv(label, ens, csv_path)
            lib.write_binary(label, ens, bin_path)
            gates.check(f"{label} CSV round trip", g.same_ensemble(ens, lib.read_csv(label, csv_path)))
            gates.check(f"{label} binary round trip",
                        g.same_ensemble(ens, lib.read_binary(label, bin_path)))


@dataclass(frozen=True)
class OracleInputs:
    seed: int
    moment_cases: tuple
    probe_target: object
    probe_grid: np.ndarray
    test_functions: tuple
    jump_target: object
    jump_proposal: object
    jump_x: np.ndarray
    chains: tuple
    langevin_target: object


class Oracles:
    """Quadrature oracles, the first-jump law, the finite geometry and a
    d=3 Langevin reference; the jump block engine does no work here."""

    name = "oracles"

    def setup(self, seed):
        cases = tuple(
            (f"{name}_d{d}_{kind.tag}", kind, make(d_star=d))
            for name, make in (("quadratic", BoxedQuadratic), ("doublewell", SmoothedDoubleWell))
            for d in (1, 3)
            for kind in _KINDS[:2]
        )
        rng = np.random.default_rng([seed, 1])
        chains = []
        for _ in range(FINITE_CHAINS):
            q = 1.0 - rng.random((FINITE_STATES, FINITE_STATES))
            np.fill_diagonal(q, 0.0)
            q /= max(q.sum(axis=1).max(), 1.0)
            mu = rng.dirichlet(np.ones(FINITE_STATES))
            chains.append(FiniteChain(n=FINITE_STATES, rates=q, mu=mu / mu.sum()))
        return OracleInputs(
            seed=seed,
            moment_cases=cases,
            probe_target=BoxedQuadratic(d_star=1),
            probe_grid=default_x_grid(1),
            test_functions=bump_library(1),
            jump_target=SmoothedDoubleWell(d_star=1),
            jump_proposal=GaussianProposal(1e-2),
            jump_x=np.array([0.7]),
            chains=tuple(chains),
            langevin_target=BoxedQuadratic(d_star=3),
        )

    def run(self, lib, inp, gates, scratch):
        lo, hi = SLOPE_WINDOW
        for label, kind, target in inp.moment_cases:
            rep = lib.moment_report(label, kind, target, MOMENT_EPS)
            gates.check(f"{label} drift slope", g.in_window(rep.slopes[1], lo, hi))
            gates.check(f"{label} volatility slope", g.in_window(rep.slopes[2], lo, hi))
            gates.check(f"{label} third-moment slope", g.at_least(rep.slopes[3], lo, "slope"))

        for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.25)):
            for tf in inp.test_functions:
                label = f"{kind.tag}_{tf.name}"
                probe = lib.generator_convergence_probe(label, kind, inp.probe_target, tf,
                                                        inp.probe_grid, PROBE_EPS)
                gates.check(f"{label} probe slope", g.in_window(probe.slope, lo, hi))

        for t in (0.0, 1.0, 5.0):
            for k, (wlo, whi) in FOLDED_WINDOWS.items():
                vals = [lib.folded_normal_moment(t, k, e) for e in FOLDED_EPS]
                gates.check(f"folded t={t:g} k={k} slope",
                            g.in_window(lib.fit_loglog_slope(FOLDED_EPS, vals), wlo, whi))
        gap = max(abs(lib.folded_normal_moment(0.0, k, e) - lib.gaussian_abs_moment(k, e))
                  for k in (3, 4) for e in (1e-1, 1e-2, 1e-3))
        gates.check("folded zero-tilt closed form", g.at_most(gap, 1e-10, "gap"))

        kind = GeneratorKind.m2()
        z, _ = lib.first_jump_displacements("m2", kind, inp.jump_target, inp.jump_proposal,
                                            inp.jump_x, FIRST_JUMP_SAMPLES, inp.seed)
        _, p, _ = lib.displacement_chisquare("m2", z, kind, inp.jump_target, inp.jump_proposal,
                                             inp.jump_x)
        gates.check("first-jump chi-square", g.p_value(p, P_FLOOR))

        rng = np.random.default_rng([inp.seed, 2])
        worst_gap, worst_margin = lib.minimality_sweep(inp.chains, FINITE_ALPHAS,
                                                       FINITE_COMPETITORS, rng)
        gates.check("finite mixture gap", g.at_most(worst_gap, FINITE_TOL, "alpha gap"))
        gates.check("finite search margin", g.at_least(worst_margin, -FINITE_TOL, "margin"))

        target = inp.langevin_target
        x0 = np.array(LANGEVIN_X0)
        obs = np.array([0.5, 1.0])
        ens = lib.simulate_langevin("d3", target, x0, obs, LANGEVIN_PATHS, LANGEVIN_DT, inp.seed)
        for k, t in enumerate(obs):
            for j in range(target.d_star):
                mean, var = lib.ou_exact_marginal(x0[j], t, target.T, target.d_star)
                gates.check(f"langevin d3 t={t:g} x{j + 1} OU marginal",
                            g.ou_marginal(ens.samples[:, k, j], mean, var))


WORKLOADS = {w.name: w for w in (KsSweep(), Occupation(), Oracles())}
