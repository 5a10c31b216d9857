"""Experiment runner: config files, subcommands, manifests, plot data.

Subcommands: simulate (jump ensembles), langevin (reference ensembles),
verify-limit (moment orders, generator probe, and the KS sweep against the
reference diffusion), verify-geometry (finite-state minimal-distance suite),
moments (tilted absolute-moment orders), sbound (linearization bound).

Configs are JSON with a fixed key set; unknown keys are configuration
errors. Seed precedence: a seed in the config file wins, then the
MHJUMP_SEED environment variable, then --seed, then 0; a seed outside
[0, 2**64), which the binary header cannot hold, is refused. Exit codes: 0
all checks passed, 1 a numerical check failed, 2 configuration error, 3 I/O
error. Every file is written atomically. The run manifest (config hash,
version, seed, timestamps, outputs) is written once, by main, after the
command has written every output and returned 0 or 1; a run that ends in an
error leaves none, so a manifest is the record that its run finished. It is
the only artifact carrying wall-clock data, so result files are byte-stable
across reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import reprlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigurationError, DominationError, QuadratureError
from .ensembles import atomic_open, write_binary, write_csv
from .finite import (
    d_mu,
    half_space_masses,
    make_m1,
    make_m2,
    mix,
    random_chain,
    random_reversible_batch,
    reversibility_gap,
)
from .jump import DOMAIN_GEOMETRY, _validate_x0, check_seed, path_stream, simulate_ensemble
from .kernels import GeneratorKind
from .langevin import default_dt, simulate_langevin
from .targets import GaussianProposal, make_potential
from .verify import (
    bump_library,
    compare_ensembles,
    default_x_grid,
    fit_loglog_slope,
    folded_normal_moment,
    gaussian_abs_moment,
    generator_convergence_probe,
    ks_null_sd,
    ks_threshold,
    moment_report,
    s_bound_check,
)

_SLOPE_WINDOW = (0.35, 0.65)
# To first order in dU, s_mix = 1 - dU/(2T) + (1 - 2 alpha)|dU|/(2T): the |dU|
# kink behind the sqrt(eps) moment order cancels at alpha = 1/2, where the
# moment errors decay at order eps.
_MIX_SLOPE_WINDOW = (0.85, 1.15)
_MOMENT_CHECKS = (
    (GeneratorKind.m1(), _SLOPE_WINDOW),
    (GeneratorKind.m2(), _SLOPE_WINDOW),
    (GeneratorKind.mix(0.5), _MIX_SLOPE_WINDOW),
)
_PROBE_WINDOW = (0.35, 0.65)
_FOLDED_WINDOWS = {3: (1.45, 1.55), 4: (1.95, 2.05)}
_GEOM_TOL = 1e-12
_REV_TOL = 1e-14


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    """A float, or an int a float can hold: JSON's integers have no bound."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _is_numbers(v):
    return isinstance(v, list) and all(_is_number(e) for e in v)


# what each config field must hold; a field whose default is None may be None
_FIELD_TYPES = (
    ("an integer", _is_int,
     ("d_star", "n_paths", "seed", "threads", "n_chains", "n_states", "n_reversible", "n_pairs")),
    ("a number", _is_number, ("T", "alpha", "epsilon", "dt")),
    ("a positive finite number", lambda v: _is_number(v) and 0.0 < v < math.inf, ("quad_tol",)),
    ("a non-empty list of numbers", lambda v: _is_numbers(v) and len(v) > 0, ("obs_grid", "t_grid")),
    ("a non-empty list of positive finite numbers",
     lambda v: _is_numbers(v) and len(v) > 0 and all(0.0 < e < math.inf for e in v),
     ("epsilon_grid", "scale_grid")),
    ("a list of positive finite numbers with two distinct entries, to fit a slope to",
     lambda v: _is_numbers(v) and len(set(v)) > 1 and all(0.0 < e < math.inf for e in v),
     ("moment_epsilon_grid", "folded_epsilon_grid")),
    ("a number, a list of numbers or one such list per path, all of one length",
     lambda v: _is_number(v) or _is_numbers(v)
     or (isinstance(v, list) and all(map(_is_numbers, v)) and len(set(map(len, v))) == 1),
     ("x0",)),
    ("a string", lambda v: isinstance(v, str), ("potential", "kind")),
    ("an object", lambda v: isinstance(v, dict), ("potential_params",)),
)

# the smallest value of each count; verify-geometry needs two states to compare
_FIELD_MINIMUMS = (
    ("threads", 1), ("n_chains", 1), ("n_states", 2), ("n_reversible", 1), ("n_pairs", 1),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run; JSON round-trips exactly."""

    potential: str = "quadratic"
    potential_params: dict = field(default_factory=dict)
    T: float = 1.0
    d_star: int = 1
    kind: str = "m1"
    alpha: float | None = None
    epsilon: float = 1e-3
    epsilon_grid: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3])
    moment_epsilon_grid: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3, 1e-4])
    obs_grid: list = field(default_factory=lambda: [0.5, 1.0])
    n_paths: int = 2000
    x0: list | float = 1.0
    dt: float | None = None
    seed: int | None = None
    threads: int = 1
    quad_tol: float = 1e-10
    n_chains: int = 100
    n_states: int = 5
    n_reversible: int = 10000
    t_grid: list = field(default_factory=lambda: [0.0, 1.0, 5.0])
    folded_epsilon_grid: list = field(default_factory=lambda: [1e-5, 1e-6, 1e-7, 1e-8])
    n_pairs: int = 10000
    scale_grid: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3])

    def __post_init__(self):
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for what, ok, names in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not (ok(value) or (value is None and defaults[name] is None)):
                    raise ConfigurationError(
                        f"config field {name!r} must be {what}, got {reprlib.repr(value)}"
                    )
        for name, least in _FIELD_MINIMUMS:
            if getattr(self, name) < least:
                raise ConfigurationError(
                    f"config field {name!r} must be >= {least}, got {getattr(self, name)}"
                )
        repeated = sorted({"d_star", "T"} & set(self.potential_params))
        if repeated:
            raise ConfigurationError(f"potential_params may not set {repeated}: they are "
                                     "config fields of their own")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self):
        return dataclasses.asdict(self)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    def build_target(self):
        return make_potential(
            self.potential, d_star=self.d_star, T=self.T, **self.potential_params
        )

    def build_kind(self):
        return GeneratorKind.from_string(self.kind, self.alpha)

    def start_state(self, target):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim == 0:
            try:
                x0 = np.full(target.d_star, float(x0))
            except ValueError as exc:  # numpy's "Maximum allowed dimension exceeded"
                raise ConfigurationError(f"d_star is too large for a start state: {exc}") from None
        return _validate_x0(target, x0)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: bad JSON, bad UTF-8 or an integer past int's digit limit;
    # RecursionError: nesting past the parser's depth
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)


def resolve_seed(cfg, cli_seed):
    """Config seed wins, then MHJUMP_SEED, then the --seed flag, then 0. It is
    checked here, under its source's name, because moments draws nothing."""
    seed, source = 0, "seed"
    env = os.environ.get("MHJUMP_SEED")
    if cfg.seed is not None:
        seed, source = cfg.seed, "config field 'seed'"
    elif env is not None:
        try:
            seed, source = int(env), "MHJUMP_SEED"
        except ValueError:
            raise ConfigurationError(f"MHJUMP_SEED must be an integer, got {env!r}") from None
    elif cli_seed is not None:
        seed, source = cli_seed, "--seed"
    return check_seed(seed, source)


def write_manifest(out_dir, cfg, seed, outputs):
    """The manifest, written once the run has written every output: its
    timestamps mark the run's completion."""
    now = time.time()
    manifest = {
        "config_hash": cfg.config_hash(),
        "tool_version": __version__,
        "seed": int(seed),
        "created_unix": now,
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "outputs": list(outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    with atomic_open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_plot_csv(path, rows):
    """Per-figure data: columns x, y, yerr, series."""
    lines = ["x,y,yerr,series"]
    for x, y, yerr, series in rows:
        lines.append(f"{float(x)!r},{float(y)!r},{float(yerr)!r},{series}")
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reporter:
    """Collects named check failures; prints unless quiet."""

    def __init__(self, quiet):
        self.quiet = quiet
        self.failures = []

    def say(self, text):
        if not self.quiet:
            print(text)

    def check(self, ok, where, quantity, observed, tolerance):
        line = f"{where}: {quantity} = {observed} (required {tolerance})"
        if ok:
            self.say("pass " + line)
        else:
            self.failures.append(line)
            self.say("FAIL " + line)

    def status(self):
        if self.failures:
            self.say(f"{len(self.failures)} check(s) failed")
            return 1
        return 0


def _ensure_out(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def cmd_simulate(cfg, seed, out_dir, threads, rep):
    target = cfg.build_target()
    kind = cfg.build_kind()
    proposal = GaussianProposal(cfg.epsilon)
    x0 = cfg.start_state(target)
    ens = simulate_ensemble(
        kind, target, proposal, x0, cfg.obs_grid, cfg.n_paths, seed, threads=threads,
    )
    write_csv(ens, os.path.join(out_dir, "ensemble.csv"))
    write_binary(ens, os.path.join(out_dir, "ensemble.bin"))
    rep.say(f"wrote {out_dir}/ensemble.csv and .bin ({cfg.n_paths} paths)")
    return 0


def cmd_langevin(cfg, seed, out_dir, threads, rep):
    target = cfg.build_target()
    x0 = cfg.start_state(target)
    dt = cfg.dt if cfg.dt is not None else default_dt(target)
    ens = simulate_langevin(target, x0, cfg.obs_grid, cfg.n_paths, dt, seed, threads=threads)
    write_csv(ens, os.path.join(out_dir, "reference.csv"))
    write_binary(ens, os.path.join(out_dir, "reference.bin"))
    rep.say(f"wrote {out_dir}/reference.csv and .bin (dt={dt:g})")
    return 0


def cmd_verify_limit(cfg, seed, out_dir, threads, rep):
    target = cfg.build_target()
    x0 = cfg.start_state(target)
    dt = cfg.dt if cfg.dt is not None else default_dt(target)
    # the reference first, so that its checks refuse a bad request before any result file
    ref = simulate_langevin(target, x0, cfg.obs_grid, cfg.n_paths, dt, seed, threads=threads)
    x_grid = default_x_grid(target.d_star)
    eps_grid = list(cfg.moment_epsilon_grid)

    drift_rows, vol_rows, third_rows = [], [], []
    for kind, (lo, hi) in _MOMENT_CHECKS:
        report = moment_report(kind, target, eps_grid, x_grid)
        for k, rows in ((1, drift_rows), (2, vol_rows), (3, third_rows)):
            for eps, err in zip(report.epsilon_grid, report.sup_errors[k]):
                rows.append((eps, err, 0.0, report.kind_label))
            slope = report.slopes[k]
            if k == 3:
                rep.check(slope >= lo, f"verify.moment_report[{report.kind_label}]",
                          "k=3 error slope", f"{slope:.3f}", f">= {lo}")
            else:
                rep.check(lo <= slope <= hi, f"verify.moment_report[{report.kind_label}]",
                          f"k={k} error slope", f"{slope:.3f}", f"in [{lo}, {hi}]")
    write_plot_csv(os.path.join(out_dir, "drift_convergence.csv"), drift_rows)
    write_plot_csv(os.path.join(out_dir, "volatility_convergence.csv"), vol_rows)
    write_plot_csv(os.path.join(out_dir, "third_moment.csv"), third_rows)

    probe_rows = []
    plo, phi = _PROBE_WINDOW
    for kind in (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.25)):
        for tf in bump_library(target.d_star):
            probe = generator_convergence_probe(kind, target, tf, x_grid, eps_grid)
            for eps, gap in zip(probe.epsilon_grid, probe.sup_gaps):
                probe_rows.append((eps, gap, 0.0, f"{probe.kind_label}:{tf.name}"))
            rep.check(
                plo <= probe.slope <= phi,
                f"verify.generator_convergence_probe[{probe.kind_label},{tf.name}]",
                "gap slope", f"{probe.slope:.3f}", f"in [{plo}, {phi}]",
            )
    write_plot_csv(os.path.join(out_dir, "probe_convergence.csv"), probe_rows)

    kinds = (GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5))
    sweep = sorted(cfg.epsilon_grid, reverse=True)
    threshold = ks_threshold(cfg.n_paths)
    slack = 2.0 * ks_null_sd(cfg.n_paths)
    ks_rows = []
    for kind in kinds:
        per_eps = []
        for eps in sweep:
            ens = simulate_ensemble(
                kind, target, GaussianProposal(eps), x0, cfg.obs_grid,
                cfg.n_paths, seed, threads=threads,
            )
            comp = compare_ensembles(ens, ref)
            per_eps.append(comp.max_ks)
            ks_rows.append((eps, comp.max_ks, ks_null_sd(cfg.n_paths), kind.label()))
        rep.check(
            per_eps[-1] < threshold,
            f"verify.compare_ensembles[{kind.label()}]",
            f"max KS at eps={sweep[-1]:g}", f"{per_eps[-1]:.4f}", f"< {threshold:.4f}",
        )
        monotone = all(per_eps[j + 1] <= per_eps[j] + slack for j in range(len(per_eps) - 1))
        rep.check(
            monotone,
            f"verify.compare_ensembles[{kind.label()}]",
            "KS vs eps", "non-increasing" if monotone else str([f"{v:.4f}" for v in per_eps]),
            f"non-increasing within {slack:.4f}",
        )
    write_plot_csv(os.path.join(out_dir, "ks_vs_epsilon.csv"), ks_rows)
    return rep.status()


def cmd_verify_geometry(cfg, seed, out_dir, threads, rep):
    rng = path_stream(seed, DOMAIN_GEOMETRY, 0)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_alpha_gap = 0.0
    worst_rev = 0.0
    worst_half_gap = 0.0
    worst_lower = math.inf
    per_alpha_sum = np.zeros(len(alphas))
    for _ in range(cfg.n_chains):
        chain = random_chain(cfg.n_states, rng)
        m1 = make_m1(chain)
        m2 = make_m2(chain)
        base = d_mu(chain, chain.rates, m1)
        for j, a in enumerate(alphas):
            val = d_mu(chain, chain.rates, mix(m1, m2, a))
            per_alpha_sum[j] += val
            worst_alpha_gap = max(worst_alpha_gap, abs(val - base))
        for m in (m1, m2, mix(m1, m2, 0.5)):
            worst_rev = max(worst_rev, reversibility_gap(chain, m))
        under, over = half_space_masses(chain)
        worst_half_gap = max(worst_half_gap, abs(under - over), abs(over - base))
        dists = d_mu(chain, random_reversible_batch(chain, cfg.n_reversible, rng), chain.rates)
        worst_lower = min(worst_lower, float(dists.min()) - base)
    rows = [
        (a, per_alpha_sum[j] / cfg.n_chains, 0.0, "mean_d_mu") for j, a in enumerate(alphas)
    ]
    write_plot_csv(os.path.join(out_dir, "dmu_landscape.csv"), rows)
    rep.check(worst_alpha_gap <= _GEOM_TOL, "finite.d_mu[mixture sweep]",
              "max |d_mu(Q,mix) - d_mu(Q,M1)|", f"{worst_alpha_gap:.3e}", f"<= {_GEOM_TOL:g}")
    rep.check(worst_lower >= -_GEOM_TOL, "finite.random_reversible[lower bound]",
              "min d_mu(Q,R) - d_mu(Q,M1)", f"{worst_lower:.3e}", f">= -{_GEOM_TOL:g}")
    rep.check(worst_half_gap <= _GEOM_TOL, "finite.half_space_masses",
              "max half-space asymmetry", f"{worst_half_gap:.3e}", f"<= {_GEOM_TOL:g}")
    rep.check(worst_rev <= _REV_TOL, "finite.make_m1/make_m2/mix",
              "max reversibility gap", f"{worst_rev:.3e}", f"<= {_REV_TOL:g}")
    return rep.status()


def cmd_moments(cfg, seed, out_dir, threads, rep):
    eps_grid = np.asarray(cfg.folded_epsilon_grid, dtype=float)
    rows = []
    for t in cfg.t_grid:
        for k in (3, 4):
            vals = np.array([folded_normal_moment(t, k, e, tol=cfg.quad_tol) for e in eps_grid])
            for e, v in zip(eps_grid, vals):
                rows.append((e, v, 0.0, f"t={t:g},k={k}"))
            slope = fit_loglog_slope(eps_grid, vals)
            lo, hi = _FOLDED_WINDOWS[k]
            rep.check(lo <= slope <= hi, f"verify.folded_normal_moment[t={t:g},k={k}]",
                      "log-log slope", f"{slope:.4f}", f"in [{lo}, {hi}]")
    for k in (3, 4):
        for e in (1e-1, 1e-2, 1e-3):
            gap = abs(folded_normal_moment(0.0, k, e, tol=cfg.quad_tol) - gaussian_abs_moment(k, e))
            rep.check(gap <= cfg.quad_tol, f"verify.folded_normal_moment[t=0,k={k},eps={e:g}]",
                      "closed-form gap", f"{gap:.2e}", f"<= {cfg.quad_tol:g}")
    write_plot_csv(os.path.join(out_dir, "moments.csv"), rows)
    return rep.status()


def cmd_sbound(cfg, seed, out_dir, threads, rep):
    target = cfg.build_target()
    report = s_bound_check(target, cfg.n_pairs, cfg.scale_grid, seed)
    rows = [
        (s, r, 0.0, "max_ratio") for s, r in zip(report.scales, report.max_ratio)
    ]
    write_plot_csv(os.path.join(out_dir, "sbound.csv"), rows)
    rep.check(report.stable, "verify.s_bound_check",
              f"violations of c1={report.c1:.4g}", str(report.n_violations), "= 0")
    return rep.status()


# each command and the outputs its manifest lists
_COMMANDS = {
    "simulate": (cmd_simulate, ["ensemble.csv", "ensemble.bin"]),
    "langevin": (cmd_langevin, ["reference.csv", "reference.bin"]),
    "verify-limit": (cmd_verify_limit, ["drift_convergence.csv", "volatility_convergence.csv",
                                        "third_moment.csv", "probe_convergence.csv",
                                        "ks_vs_epsilon.csv"]),
    "verify-geometry": (cmd_verify_geometry, ["dmu_landscape.csv"]),
    "moments": (cmd_moments, ["moments.csv"]),
    "sbound": (cmd_sbound, ["sbound.csv"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mhjump",
        description="Simulation and verification runner for the jump-process diffusion limits.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="fallback seed (config and MHJUMP_SEED win)")
    parser.add_argument("--out", default="mhjump-out", help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads, at most the usable cores (default from config)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = _Reporter(quiet=args.quiet)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        seed = resolve_seed(cfg, args.seed)
        threads = args.threads if args.threads is not None else cfg.threads
        if threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {threads}")
        out_dir = _ensure_out(args.out)
        command, outputs = _COMMANDS[args.command]
        status = command(cfg, seed, out_dir, threads, rep)
        # a failed check (1) still finishes the run; an exception leaves no manifest
        write_manifest(out_dir, cfg, seed, outputs)
        return status
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array's shape
        print(f"configuration error: {args.command} does not fit in memory ({exc}); "
              "reduce its sizes", file=sys.stderr)
        return 2
    except (DominationError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
