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
error. Every file is written atomically, to the path out(name) gives. The
run manifest (config hash, version, seed, timestamps, the names given to
out, in order) is written once, by main, after the command has written
every output and returned 0 or 1; a run that ends in an error leaves none,
so a manifest is the record that its run finished. It is the only artifact
carrying wall-clock data, so result files are byte-stable across reruns.
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
from .jump import DOMAIN_GEOMETRY, check_seed, path_stream, simulate_ensemble
from .kernels import GeneratorKind
from .langevin import default_dt, simulate_langevin
from .targets import GaussianProposal, make_potential
from .verify import (
    Check,
    default_x_grid,
    folded_checks,
    ks_sweep_checks,
    minimality_checks,
    moment_checks,
    probe_checks,
    s_bound_check,
)


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
    ("a non-empty list of numbers", lambda v: _is_numbers(v) and len(v) > 0, ("obs_grid",)),
    ("a non-empty list of finite numbers",
     lambda v: _is_numbers(v) and len(v) > 0 and all(map(math.isfinite, v)), ("t_grid",)),
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
        if isinstance(self.x0, list):
            return self.x0
        try:
            return np.full(target.d_star, float(self.x0))
        except ValueError as exc:  # numpy's "Maximum allowed dimension exceeded"
            raise ConfigurationError(f"d_star is too large for a start state: {exc}") from None


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
    """Prints each Check as a pass or FAIL line unless quiet; collects the failures."""

    def __init__(self, quiet):
        self.quiet = quiet
        self.failures = []

    def say(self, text):
        if not self.quiet:
            print(text)

    def check(self, checks):
        for c in checks:
            line = f"{c.where}: {c.quantity} = {c.observed} (required {c.required})"
            if c.ok:
                self.say("pass " + line)
            else:
                self.failures.append(line)
                self.say("FAIL " + line)

    def status(self):
        if self.failures:
            self.say(f"{len(self.failures)} check(s) failed")
            return 1
        return 0


def _write_ensemble(ens, out, stem, rep, note):
    path = out(stem + ".csv")
    write_csv(ens, path)
    write_binary(ens, out(stem + ".bin"))
    rep.say(f"wrote {path} and .bin ({note})")


def cmd_simulate(cfg, seed, out, threads, rep):
    target = cfg.build_target()
    kind = cfg.build_kind()
    proposal = GaussianProposal(cfg.epsilon)
    x0 = cfg.start_state(target)
    ens = simulate_ensemble(
        kind, target, proposal, x0, cfg.obs_grid, cfg.n_paths, seed, threads=threads,
    )
    _write_ensemble(ens, out, "ensemble", rep, f"{cfg.n_paths} paths")
    return 0


def cmd_langevin(cfg, seed, out, threads, rep):
    target = cfg.build_target()
    x0 = cfg.start_state(target)
    dt = cfg.dt if cfg.dt is not None else default_dt(target)
    ens = simulate_langevin(target, x0, cfg.obs_grid, cfg.n_paths, dt, seed, threads=threads)
    _write_ensemble(ens, out, "reference", rep, f"dt={dt:g}")
    return 0


def cmd_verify_limit(cfg, seed, out, threads, rep):
    target = cfg.build_target()
    x0 = cfg.start_state(target)
    dt = cfg.dt if cfg.dt is not None else default_dt(target)
    # the reference first, so that its checks refuse a bad request before any result file
    ref = simulate_langevin(target, x0, cfg.obs_grid, cfg.n_paths, dt, seed, threads=threads)
    x_grid = default_x_grid(target.d_star)
    # each stage's checks print and its rows are written before the next stage starts
    checks, rows = moment_checks(target, cfg.moment_epsilon_grid, x_grid)
    rep.check(checks)
    for k, name in ((1, "drift_convergence.csv"), (2, "volatility_convergence.csv"),
                    (3, "third_moment.csv")):
        write_plot_csv(out(name), rows[k])
    checks, rows = probe_checks(target, cfg.moment_epsilon_grid, x_grid)
    rep.check(checks)
    write_plot_csv(out("probe_convergence.csv"), rows)
    checks, rows = ks_sweep_checks(target, x0, ref, cfg.epsilon_grid, seed, threads)
    rep.check(checks)
    write_plot_csv(out("ks_vs_epsilon.csv"), rows)
    return rep.status()


def cmd_verify_geometry(cfg, seed, out, threads, rep):
    rng = path_stream(seed, DOMAIN_GEOMETRY, 0)
    checks, rows = minimality_checks(cfg.n_chains, cfg.n_states, cfg.n_reversible, rng)
    write_plot_csv(out("dmu_landscape.csv"), rows)
    rep.check(checks)
    return rep.status()


def cmd_moments(cfg, seed, out, threads, rep):
    checks, rows = folded_checks(cfg.t_grid, cfg.folded_epsilon_grid, cfg.quad_tol)
    rep.check(checks)
    write_plot_csv(out("moments.csv"), rows)
    return rep.status()


def cmd_sbound(cfg, seed, out, threads, rep):
    target = cfg.build_target()
    report = s_bound_check(target, cfg.n_pairs, cfg.scale_grid, seed)
    rows = [
        (s, r, 0.0, "max_ratio") for s, r in zip(report.scales, report.max_ratio)
    ]
    write_plot_csv(out("sbound.csv"), rows)
    rep.check([Check("verify.s_bound_check", f"violations of c1={report.c1:.4g}",
                     str(report.n_violations), "= 0", report.stable)])
    return rep.status()


_COMMANDS = {"simulate": cmd_simulate, "langevin": cmd_langevin, "verify-limit": cmd_verify_limit,
             "verify-geometry": cmd_verify_geometry, "moments": cmd_moments, "sbound": cmd_sbound}


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
                        help="worker processes, at most the usable cores (default from config)")
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
        os.makedirs(args.out, exist_ok=True)
        outputs = []

        def out(name):  # the path to write name to; the manifest lists the names in order
            outputs.append(name)
            return os.path.join(args.out, name)
        status = _COMMANDS[args.command](cfg, seed, out, threads, rep)
        # a failed check (1) still finishes the run; an exception leaves no manifest
        write_manifest(args.out, cfg, seed, outputs)
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
