"""End-to-end acceptance gate.

Nine checks, one per numbered requirement, each ending in a single
"[criterion N] name: PASS/FAIL (detail)" line plus the pytest verdict.
Statistical checks use fixed seeds; thresholds are the contract values,
not tuned to the draws.
"""

import json
import math
import time

import numpy as np
import pytest

from mhjump import (
    BoxedQuadratic,
    GaussianProposal,
    GeneratorKind,
    SmoothedDoubleWell,
    compare_ensembles,
    first_jump_displacements,
    folded_normal_moment,
    moment_report,
    simulate_ensemble,
    simulate_langevin,
    stationarity_chisquare,
)
from mhjump.cli import main
from mhjump.finite import (
    d_mu,
    make_m1,
    make_m2,
    mix,
    random_chain,
    random_reversible_batch,
    reversibility_gap,
)
from mhjump.kernels import log_rate_density
from mhjump.verify import (
    bump_library,
    displacement_chisquare,
    fit_loglog_slope,
    gaussian_abs_moment,
    generator_convergence_probe,
    default_x_grid,
    ks_null_sd,
    ks_threshold,
)

SEED = 314159


def conclude(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_mixture_distance_minimal():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_gap = 0.0
    worst_margin = math.inf
    for _ in range(100):
        chain = random_chain(5, rng)
        m1, m2 = make_m1(chain), make_m2(chain)
        base = d_mu(chain, chain.rates, m1)
        for a in alphas:
            worst_gap = max(worst_gap, abs(d_mu(chain, chain.rates, mix(m1, m2, a)) - base))
        comps = random_reversible_batch(chain, 10_000, rng)
        off = ~np.eye(chain.n, dtype=bool)
        dists = np.sum(
            chain.mu[None, :, None] * np.abs(comps - chain.rates[None]) * off[None],
            axis=(1, 2),
        )
        worst_margin = min(worst_margin, float(dists.min()) - base)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-12 and worst_margin >= -1e-12 and elapsed < 60.0
    conclude(1, "mixture distance minimal", ok,
             f"alpha gap {worst_gap:.2e} <= 1e-12, search margin {worst_margin:.2e} >= -1e-12, "
             f"{elapsed:.1f}s")


def test_criterion_2_reversibility():
    rng = np.random.default_rng(SEED + 1)
    worst_finite = 0.0
    for _ in range(100):
        chain = random_chain(5, rng)
        m1, m2 = make_m1(chain), make_m2(chain)
        for m in (m1, m2, mix(m1, m2, 0.5)):
            worst_finite = max(worst_finite, reversibility_gap(chain, m))

    target = SmoothedDoubleWell(d_star=3)
    prop = GaussianProposal(1e-2)
    worst_cont = 0.0
    xs = rng.uniform(-2.5, 2.5, size=(10_000, 3))
    zs = rng.normal(0.0, math.sqrt(prop.epsilon), size=10_000)
    coords = rng.integers(0, 3, size=10_000)
    for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)):
        for x, z, i in zip(xs, zs, coords):
            y = x.copy()
            y[i] += z
            lhs = -target.u(x) / target.T + log_rate_density(kind, target, prop, x, i, y[i])
            rhs = -target.u(y) / target.T + log_rate_density(kind, target, prop, y, i, x[i])
            rel = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
            worst_cont = max(worst_cont, rel)
    ok = worst_finite <= 1e-14 and worst_cont <= 1e-12
    conclude(2, "detailed balance", ok,
             f"finite gap {worst_finite:.2e} <= 1e-14, "
             f"continuous log gap {worst_cont:.2e} <= 1e-12 over 10000 pairs x 3 kinds")


def test_criterion_3_generator_moment_slopes():
    t0 = time.time()
    eps_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    bad = []
    for make in (lambda d: BoxedQuadratic(d_star=d), lambda d: SmoothedDoubleWell(d_star=d)):
        for d_star in (1, 3):
            target = make(d_star)
            for kind in (GeneratorKind.m1(), GeneratorKind.m2()):
                rep = moment_report(kind, target, eps_grid)
                for k in (1, 2):
                    if not 0.35 <= rep.slopes[k] <= 0.65:
                        bad.append(f"{target.name}/d{d_star}/{kind.label()}/k{k}="
                                   f"{rep.slopes[k]:.3f}")
                if rep.slopes[3] < 0.35:
                    bad.append(f"{target.name}/d{d_star}/{kind.label()}/k3="
                               f"{rep.slopes[3]:.3f}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    conclude(3, "drift and volatility error orders", ok,
             ("all k=1,2 slopes in [0.35,0.65], k=3 >= 0.35" if not bad else "; ".join(bad))
             + f", {elapsed:.1f}s")


def test_criterion_4_folded_moment_orders():
    eps_grid = np.array([1e-5, 1e-6, 1e-7, 1e-8])
    bad = []
    for t in (0.0, 1.0, 5.0):
        for k, (lo, hi) in ((3, (1.45, 1.55)), (4, (1.95, 2.05))):
            vals = [folded_normal_moment(t, k, e) for e in eps_grid]
            slope = fit_loglog_slope(eps_grid, vals)
            if not lo <= slope <= hi:
                bad.append(f"t={t:g},k={k}: slope {slope:.4f}")
    worst_closed = 0.0
    for k in (3, 4):
        for e in (1e-1, 1e-2, 1e-3):
            worst_closed = max(
                worst_closed,
                abs(folded_normal_moment(0.0, k, e) - gaussian_abs_moment(k, e)),
            )
    ok = not bad and worst_closed <= 1e-10
    conclude(4, "tilted absolute-moment orders", ok,
             ("slopes 1.5/2.0 within 0.05" if not bad else "; ".join(bad))
             + f", zero-tilt closed-form gap {worst_closed:.1e} <= 1e-10")


def test_criterion_5_generator_probe_slope():
    t0 = time.time()
    target = BoxedQuadratic(d_star=1)
    x_grid = default_x_grid(1)
    eps_grid = [1e-1, 1e-2, 1e-3]
    bad = []
    for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.25)):
        for tf in bump_library(1):
            probe = generator_convergence_probe(kind, target, tf, x_grid, eps_grid)
            if not 0.35 <= probe.slope <= 0.65:
                bad.append(f"{kind.label()}/{tf.name}: {probe.slope:.3f}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    conclude(5, "generator action converges at root-epsilon order", ok,
             ("all 9 probe slopes in 0.5+-0.15" if not bad else "; ".join(bad))
             + f", {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_ks_convergence_to_diffusion():
    t0 = time.time()
    target = BoxedQuadratic(d_star=1)
    x0 = np.array([1.0])
    obs = [0.5, 1.0]
    n = 10_000
    ref = simulate_langevin(target, x0, obs, n, 1e-4, SEED, threads=4)
    thr = ks_threshold(n)
    noise = ks_null_sd(n)
    eps_grid = [1e-1, 1e-2, 1e-3]
    bad, lines = [], []
    for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)):
        ks_by_eps = []
        for eps in eps_grid:
            ens = simulate_ensemble(kind, target, GaussianProposal(eps), x0, obs, n,
                                    SEED, threads=4)
            ks_by_eps.append(compare_ensembles(ens, ref).max_ks)
        if not ks_by_eps[-1] < thr:
            bad.append(f"{kind.label()}: final ks {ks_by_eps[-1]:.4f} >= {thr:.4f}")
        for a, b in zip(ks_by_eps, ks_by_eps[1:]):
            if b > a + 2.0 * noise:
                bad.append(f"{kind.label()}: ks rose {a:.4f} -> {b:.4f}")
        lines.append(f"{kind.label()} ks={['%.4f' % v for v in ks_by_eps]}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 900.0
    conclude(6, "rescaled law approaches the diffusion", ok,
             "; ".join(bad if bad else lines) + f", threshold {thr:.4f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_7_gibbs_stationarity():
    t0 = time.time()
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(0.05)
    n_paths = 256
    well = 1.48946
    starts = np.where((np.arange(n_paths) % 2 == 0)[:, None], well, -well)
    obs = 80.0 + 25.0 * np.arange(200)
    bad, lines = [], []
    for kind in (GeneratorKind.m1(), GeneratorKind.m2()):
        ens, counts = simulate_ensemble(kind, target, prop, starts, obs, n_paths,
                                        SEED, rescaled=False, threads=4,
                                        return_counts=True)
        events = int(counts.sum())
        samples = ens.samples[:, :, 0].ravel()
        chi2, p, _ = stationarity_chisquare(samples, target, n_bins=50)
        lines.append(f"{kind.label()}: p={p:.3g}, {events} events")
        if events < 1_000_000:
            bad.append(f"{kind.label()}: only {events} jump events")
        if p <= 0.001:
            bad.append(f"{kind.label()}: chi-square p={p:.2e}")
    elapsed = time.time() - t0
    ok = not bad
    conclude(7, "long-run occupation matches the Gibbs law", ok,
             "; ".join(bad if bad else lines) + f", {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_8_first_jump_law():
    t0 = time.time()
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(1e-2)
    kind = GeneratorKind.m2()
    x = np.array([0.7])
    z, _ = first_jump_displacements(kind, target, prop, x, 1_000_000, SEED)
    chi2, p, n_bins = displacement_chisquare(z, kind, target, prop, x,
                                             n_bins=200, binning="equal_prob")
    elapsed = time.time() - t0
    ok = p > 0.001
    conclude(8, "first-jump displacement matches quadrature", ok,
             f"chi2={chi2:.1f} over {n_bins} bins, p={p:.3g} > 0.001, "
             f"n=1e6, {elapsed:.1f}s")


def test_criterion_9_deterministic_artifacts(tmp_path, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    jump_cfg = tmp_path / "jump.json"
    jump_cfg.write_text(json.dumps({
        "potential": "doublewell", "d_star": 2, "kind": "mix", "alpha": 0.5,
        "epsilon": 1e-2, "obs_grid": [0.3, 0.6], "n_paths": 300, "x0": 0.8,
        "seed": 123,
    }))
    lang_cfg = tmp_path / "lang.json"
    lang_cfg.write_text(json.dumps({
        "potential": "doublewell", "d_star": 2, "obs_grid": [0.3, 0.6],
        "n_paths": 300, "x0": 0.8, "dt": 1e-3, "seed": 123,
    }))
    runs = [("r1", "1"), ("r2", "1"), ("r4", "4")]
    for name, threads in runs:
        assert main(["simulate", "--config", str(jump_cfg),
                     "--out", str(tmp_path / ("j" + name)),
                     "--threads", threads, "--quiet"]) == 0
        assert main(["langevin", "--config", str(lang_cfg),
                     "--out", str(tmp_path / ("l" + name)),
                     "--threads", threads, "--quiet"]) == 0
    bad = []
    for prefix, files in (("j", ("ensemble.csv", "ensemble.bin")),
                          ("l", ("reference.csv", "reference.bin"))):
        dirs = [tmp_path / (prefix + name) for name, _ in runs]
        for fname in files:
            blobs = [(d / fname).read_bytes() for d in dirs]
            if not (blobs[0] == blobs[1] == blobs[2]):
                bad.append(f"{prefix}*/{fname} differs across runs/threads")
        hashes = {json.loads((d / "manifest.json").read_text())["config_hash"]
                  for d in dirs}
        if len(hashes) != 1:
            bad.append(f"{prefix}*/manifest.json config_hash differs")
    ok = not bad
    conclude(9, "repeat runs produce identical artifacts", ok,
             "; ".join(bad) if bad else
             "ensemble and reference files byte-identical over 2 repeats and threads 1/4")
