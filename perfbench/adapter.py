"""The benchmark's only door into mhjump.

Every library call a workload makes goes through a `Library` method, and
each method wraps its call in one span named "<layer>.<function>". No
method passes a tuning knob (threads, block_paths), so a change of library
default shows up in the numbers; `return_counts=True` is the only extra
argument, for the exact accepted-event counts. The classes the workloads
need to build their inputs are imported here and re-exported.

Every ensemble the library returns is fingerprinted (sha256 of its sample
bytes) into `Library.records`; two runs' records diff to show whether jump
artifacts kept their bytes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from mhjump import (  # noqa: F401  (re-exported for input construction)
    BoxedQuadratic,
    GaussianProposal,
    GeneratorKind,
    SmoothedDoubleWell,
    compare_ensembles,
    first_jump_displacements,
    folded_normal_moment,
    moment_report,
    read_binary,
    read_csv,
    simulate_ensemble,
    simulate_langevin,
    stationarity_chisquare,
    write_binary,
    write_csv,
)
from mhjump.finite import (  # noqa: F401
    FiniteChain,
    d_mu,
    make_m1,
    make_m2,
    mix,
    random_reversible_batch,
)
from mhjump.langevin import ou_exact_marginal
from mhjump.verify import (  # noqa: F401
    bump_library,
    default_x_grid,
    displacement_chisquare,
    fit_loglog_slope,
    gaussian_abs_moment,
    generator_convergence_probe,
    ks_null_sd,
    ks_threshold,
)


def sample_sha256(samples):
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes()).hexdigest()


class Library:
    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []

    def _fingerprint(self, call, label, ens, **extra):
        self.records.append(dict(call=call, label=label, sha256=sample_sha256(ens.samples), **extra))

    # jump

    def simulate_ensemble(self, label, kind, target, proposal, x0, obs_grid, n_paths, seed,
                          rescaled=True):
        with self.tracer.span("jump.simulate_ensemble", label) as s:
            ens, counts = simulate_ensemble(kind, target, proposal, x0, obs_grid, n_paths, seed,
                                            rescaled=rescaled, return_counts=True)
        events = int(counts.sum())
        s.attrs.update(accepted_events=events, obs_recorded=ens.n_paths * ens.obs_grid.size)
        self._fingerprint("jump.simulate_ensemble", label, ens, accepted_events=events)
        return ens, events

    def first_jump_displacements(self, label, kind, target, proposal, x, n_samples, seed):
        with self.tracer.span("jump.first_jump_displacements", label) as s:
            z, coords = first_jump_displacements(kind, target, proposal, x, n_samples, seed)
        s.attrs["samples"] = int(z.size)
        self.records.append(dict(call="jump.first_jump_displacements", label=label,
                                 sha256=sample_sha256(z)))
        return z, coords

    # langevin

    def simulate_langevin(self, label, target, x0, obs_grid, n_paths, dt, seed):
        with self.tracer.span("langevin.simulate_langevin", label) as s:
            ens = simulate_langevin(target, x0, obs_grid, n_paths, dt, seed)
        s.attrs["path_steps"] = n_paths * int(np.rint(ens.obs_grid[-1] / dt))
        self._fingerprint("langevin.simulate_langevin", label, ens)
        return ens

    def ou_exact_marginal(self, x0, t, T, d_star):
        with self.tracer.span("langevin.ou_exact_marginal"):
            return ou_exact_marginal(x0, t, T, d_star)

    # verify

    def compare_ensembles(self, label, ens, ref):
        with self.tracer.span("verify.compare_ensembles", label) as s:
            rep = compare_ensembles(ens, ref)
        s.attrs["max_ks"] = rep.max_ks
        return rep

    def ks_threshold(self, n, coeff):
        with self.tracer.span("verify.ks_threshold"):
            return ks_threshold(n, coeff=coeff)

    def ks_null_sd(self, n):
        with self.tracer.span("verify.ks_null_sd"):
            return ks_null_sd(n)

    def stationarity_chisquare(self, label, samples, target, n_bins):
        with self.tracer.span("verify.stationarity_chisquare", label) as s:
            chi2, p, counts = stationarity_chisquare(samples, target, n_bins=n_bins)
        s.attrs["p"] = p
        return chi2, p, counts

    def moment_report(self, label, kind, target, epsilon_grid):
        with self.tracer.span("verify.moment_report", label) as s:
            rep = moment_report(kind, target, epsilon_grid)
        s.attrs["quad_calls"] = rep.epsilon_grid.size * rep.x_grid.shape[0] * 3
        return rep

    def generator_convergence_probe(self, label, kind, target, tf, x_grid, epsilon_grid):
        with self.tracer.span("verify.generator_convergence_probe", label) as s:
            probe = generator_convergence_probe(kind, target, tf, x_grid, epsilon_grid)
        s.attrs["quad_calls"] = probe.epsilon_grid.size * len(x_grid) * target.d_star
        return probe

    def folded_normal_moment(self, t, k, epsilon):
        with self.tracer.span("verify.folded_normal_moment") as s:
            value = folded_normal_moment(t, k, epsilon)
        s.attrs["quad_calls"] = 1
        return value

    def gaussian_abs_moment(self, k, epsilon):
        with self.tracer.span("verify.gaussian_abs_moment"):
            return gaussian_abs_moment(k, epsilon)

    def fit_loglog_slope(self, x, y):
        with self.tracer.span("verify.fit_loglog_slope"):
            return fit_loglog_slope(x, y)

    def displacement_chisquare(self, label, z, kind, target, proposal, x):
        with self.tracer.span("verify.displacement_chisquare", label) as s:
            chi2, p, n_bins = displacement_chisquare(z, kind, target, proposal, x,
                                                     n_bins=200, binning="equal_prob")
        s.attrs["p"] = p
        return chi2, p, n_bins

    # ensembles

    def write_csv(self, label, ens, path):
        with self.tracer.span("ensembles.write_csv", label) as s:
            write_csv(ens, path)
        s.attrs["bytes"] = os.path.getsize(path)

    def write_binary(self, label, ens, path):
        with self.tracer.span("ensembles.write_binary", label) as s:
            write_binary(ens, path)
        s.attrs["bytes"] = os.path.getsize(path)

    def read_csv(self, label, path):
        with self.tracer.span("ensembles.read_csv", label):
            return read_csv(path)

    def read_binary(self, label, path):
        with self.tracer.span("ensembles.read_binary", label):
            return read_binary(path)

    # finite

    def minimality_sweep(self, chains, alphas, n_competitors, rng):
        """Criterion 1 over `chains`: the largest |d_mu(Q, mix) - d_mu(Q, M1)|
        over alphas, and the smallest d_mu(Q, R) - d_mu(Q, M1) over random
        reversible competitors R. The competitor distances are the batched
        form of d_mu, written here because the finite layer has none."""
        worst_gap, worst_margin = 0.0, np.inf
        with self.tracer.span("finite.minimality_sweep") as s:
            for chain in chains:
                m1 = self._finite("make_m1", make_m1, chain)
                m2 = self._finite("make_m2", make_m2, chain)
                base = self._finite("d_mu", d_mu, chain, chain.rates, m1)
                for a in alphas:
                    m = self._finite("mix", mix, m1, m2, a)
                    worst_gap = max(worst_gap, abs(self._finite("d_mu", d_mu, chain, chain.rates, m) - base))
                comps = self._finite("random_reversible_batch", random_reversible_batch,
                                     chain, n_competitors, rng)
                off = ~np.eye(chain.n, dtype=bool)
                dists = np.sum(chain.mu[None, :, None] * np.abs(comps - chain.rates[None]) * off[None],
                               axis=(1, 2))
                worst_margin = min(worst_margin, float(dists.min()) - base)
        s.attrs["competitors"] = len(chains) * n_competitors
        return worst_gap, worst_margin

    def _finite(self, name, fn, *args):
        with self.tracer.span("finite." + name):
            return fn(*args)
