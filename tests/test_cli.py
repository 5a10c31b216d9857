"""Config handling, seed precedence, CLI subcommands and exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhjump import (ConfigurationError, GeneratorKind, QuadratureError, cli, jump,
                    simulate_ensemble, simulate_langevin)
from mhjump.cli import ExperimentConfig, load_config, main, resolve_seed, write_manifest
from mhjump.ensembles import read_binary, read_csv
from mhjump.targets import GaussianProposal, make_potential


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n_paths": 10, "walkers": 3})
    with pytest.raises(ConfigurationError, match="JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_config_round_trip_identity(tmp_path):
    cfg = ExperimentConfig(potential="doublewell", kind="mix", alpha=0.25,
                           epsilon=0.05, n_paths=7, x0=[0.1, -0.2], d_star=2)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert load_config(p) == cfg


def test_config_hash_ignores_key_order(tmp_path):
    d = ExperimentConfig(n_paths=5).to_dict()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(d, sort_keys=True))
    b.write_text(json.dumps(dict(reversed(list(d.items())))))
    assert load_config(a).config_hash() == load_config(b).config_hash()
    assert load_config(a).config_hash() != ExperimentConfig(n_paths=6).config_hash()


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    assert resolve_seed(ExperimentConfig(), None) == 0
    assert resolve_seed(ExperimentConfig(), 7) == 7
    monkeypatch.setenv("MHJUMP_SEED", "42")
    assert resolve_seed(ExperimentConfig(), 7) == 42
    assert resolve_seed(ExperimentConfig(seed=3), 7) == 3  # config wins over env
    monkeypatch.setenv("MHJUMP_SEED", "not-a-number")
    with pytest.raises(ConfigurationError, match="MHJUMP_SEED"):
        resolve_seed(ExperimentConfig(), None)


def write_config(tmp_path, **kw):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(kw))
    return str(p)


def spy_on_the_manifest(monkeypatch):
    """The files in the output directory each time main writes the manifest."""
    seen = []
    write = cli.write_manifest

    def spy(out_dir, *args):
        seen.append(sorted(os.listdir(out_dir)))
        return write(out_dir, *args)

    monkeypatch.setattr(cli, "write_manifest", spy)
    return seen


def assert_written_once_last(seen, out):
    """The manifest was written once, after every output, and lists exactly them."""
    outputs = sorted(json.loads((out / "manifest.json").read_text())["outputs"])
    assert seen == [outputs]
    assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])


def test_simulate_matches_library_call(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(
        tmp_path, potential="doublewell", d_star=1, kind="mix", alpha=0.5,
        epsilon=0.05, obs_grid=[0.2, 0.4], n_paths=40, x0=0.8, seed=7,
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out

    ens_csv = read_csv(out / "ensemble.csv")
    ens_bin = read_binary(out / "ensemble.bin")
    target = make_potential("doublewell", d_star=1, T=1.0)
    direct = simulate_ensemble(
        GeneratorKind.mix(0.5), target, GaussianProposal(0.05),
        np.array([0.8]), [0.2, 0.4], 40, master_seed=7,
    )
    assert np.array_equal(ens_csv.samples, direct.samples)
    assert np.array_equal(ens_bin.samples, direct.samples)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == ["ensemble.csv", "ensemble.bin"]
    assert manifest["config_hash"] == load_config(cfg).config_hash()


def test_langevin_command(tmp_path, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, potential="quadratic", obs_grid=[0.5],
                       n_paths=30, dt=1e-2, seed=1)
    out = tmp_path / "ref"
    assert main(["langevin", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    ens = read_csv(out / "reference.csv")
    direct = simulate_langevin(make_potential("quadratic", d_star=1, T=1.0),
                               np.array([1.0]), [0.5], 30, 1e-2, 1)
    assert np.array_equal(ens.samples, direct.samples)


def test_moments_command(tmp_path, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, potential="quadratic",
                       moment_epsilon_grid=[1e-1, 1e-2, 1e-3], seed=0)
    out = tmp_path / "m"
    assert main(["moments", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "manifest.json").exists()


def test_sbound_command(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, potential="logcosh", n_pairs=500, seed=0)
    out = tmp_path / "s"
    assert main(["sbound", "--config", cfg, "--out", str(out)]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("param,shown", [({"a": float("nan")}, "a must be finite, got nan"),
                                         ({"b": float("inf")}, "b must be finite, got inf")],
                         ids=["a-nan", "b-inf"])
def test_sbound_refuses_a_potential_parameter_that_is_not_finite(tmp_path, capsys, monkeypatch,
                                                                  param, shown):
    # a NaN or inf parameter is a malformed config, not a failed check: exit
    # 2 before any pair is drawn, and no manifest
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, potential="doublewell", potential_params=param, n_pairs=100)
    out = tmp_path / "s"
    assert main(["sbound", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: bad parameters for potential 'doublewell': "
                            f"{shown}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("bad", [{"quad_tol": 0}, {"quad_tol": -1}, {"quad_tol": float("nan")},
                                 {"t_grid": [0.0, float("nan")]}, {"t_grid": [float("inf")]}],
                         ids=["tol-0", "tol-negative", "tol-nan", "t-nan", "t-inf"])
def test_moments_exit_code_2_and_no_manifest_on_a_malformed_config(tmp_path, capsys, monkeypatch,
                                                                   bad):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    out = tmp_path / "m"
    assert main(["moments", "--config", write_config(tmp_path, **bad), "--out", str(out),
                 "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("t_grid", [[0.0, float("nan")], [0.0, float("inf")]], ids=["nan", "inf"])
def test_moments_refuses_a_non_finite_t_grid_before_any_check(tmp_path, capsys, monkeypatch,
                                                              t_grid):
    # the config is refused as it loads: no check line printed, no file made
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    out = tmp_path / "m"
    assert main(["moments", "--config", write_config(tmp_path, t_grid=t_grid),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config field 't_grid' must be a non-empty list of finite numbers" in captured.err
    assert not out.exists()


def test_verify_geometry_quick(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, n_chains=5, n_states=4, n_reversible=300, seed=0)
    out = tmp_path / "g"
    assert main(["verify-geometry", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "pass" in text and "FAIL" not in text


@pytest.mark.parametrize("bad", [
    {"n_reversible": 0},
    {"n_states": 1},
    {"n_chains": 0},
])
def test_verify_geometry_rejects_degenerate_sizes(tmp_path, capsys, monkeypatch, bad):
    # no competitors, or a one-state chain, would pass every check vacuously
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"n_chains": 2, "n_states": 3, "n_reversible": 10, **bad})
    assert main(["verify-geometry", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
    assert f"config field {next(iter(bad))!r} must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("command,bad", [
    ("verify-limit", {"moment_epsilon_grid": []}),
    ("verify-limit", {"epsilon_grid": []}),
    ("verify-limit", {"obs_grid": []}),
    ("sbound", {"scale_grid": []}),
    ("sbound", {"scale_grid": [0.0]}),
    ("sbound", {"n_pairs": 0}),
    ("sbound", {"n_pairs": -3}),
    ("moments", {"folded_epsilon_grid": []}),
    ("moments", {"folded_epsilon_grid": [-1e-5, 1e-6]}),
    ("moments", {"folded_epsilon_grid": [1e-5, float("inf")]}),
    ("moments", {"t_grid": []}),
    ("moments", {"t_grid": [1e9]}),
    ("moments", {"folded_epsilon_grid": [1e-5]}),
    ("moments", {"folded_epsilon_grid": [1e-5, 1e-5]}),
    ("verify-limit", {"moment_epsilon_grid": [1e-3]}),
    ("verify-limit", {"moment_epsilon_grid": [1e-3, 1e-3]}),
    ("moments", {"t_grid": [-1e4]}),
])
def test_exit_code_2_on_degenerate_grids(tmp_path, capsys, monkeypatch, command, bad):
    # each of these ran into a traceback, or passed on a nan
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"seed": 0, **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("potential,params", [
    ("quadratic", {"box": "x"}),
    ("logcosh", {"c": "x"}),
    ("doublewell", {"a": "x"}),
    ("doublewell", {"grad_bound": "x"}),
])
def test_exit_code_2_on_non_numeric_potential_params(tmp_path, capsys, monkeypatch, potential,
                                                      params):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, potential=potential, potential_params=params, n_pairs=10, seed=0)
    assert main(["sbound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.slow
def test_verify_limit_reduced(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(
        tmp_path, potential="quadratic", d_star=1,
        moment_epsilon_grid=[1e-1, 1e-2, 1e-3], epsilon_grid=[1e-1, 1e-2],
        obs_grid=[0.5, 1.0], n_paths=2000, dt=1e-3, seed=0,
    )
    out = tmp_path / "v"
    seen = spy_on_the_manifest(monkeypatch)
    assert main(["verify-limit", "--config", cfg, "--out", str(out),
                 "--threads", "4"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    for k in (1, 2, 3):
        assert f"pass verify.moment_report[mix(0.5)]: k={k} error slope" in text
    for name in ("drift_convergence.csv", "ks_vs_epsilon.csv", "manifest.json"):
        assert (out / name).exists()
    assert_written_once_last(seen, out)


_TINY_RUNS = {
    "simulate": {"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1},
    "langevin": {"n_paths": 5, "obs_grid": [0.1], "dt": 1e-2},
    "verify-geometry": {"n_chains": 2, "n_states": 3, "n_reversible": 20},
    "moments": {"t_grid": [1.0], "folded_epsilon_grid": [1e-5, 1e-6]},
    "sbound": {"n_pairs": 50},
}


# Every command's artifacts at one seed: the exit code, the sha256 of each
# output in the manifest's order, the sha256 of the pass/FAIL/summary lines
# on stdout (the "wrote" lines name the temporary directory) and the FAIL
# lines in full. verify-limit's doublewell config fails one probe check.
_PINNED_RUNS = {
    "simulate": (dict(_TINY_RUNS["simulate"], seed=0), 0, [], {
        "ensemble.csv": "a83af7fd9c615dba6b477e593ab8246fe14e37d75783e3ab2bd78a254e2b3f56",
        "ensemble.bin": "ae0ab328c082c9f9e084bf9480ba19a8776170321f0799efc71ca26d5b0051fa",
    }, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "langevin": (dict(_TINY_RUNS["langevin"], seed=0), 0, [], {
        "reference.csv": "996080c709700d8a519fec23b9838928b2292eb30ae8d9cea976a70ff8c92d93",
        "reference.bin": "430800571f2730f4ccfd7d35ebbb14da9798983dd2362d9dc5ad5e906d1fb8c7",
    }, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-limit": (
        {"potential": "doublewell", "moment_epsilon_grid": [0.1, 0.01], "epsilon_grid": [0.3, 0.1],
         "obs_grid": [0.5], "n_paths": 100, "dt": 0.01, "seed": 3}, 1,
        ["FAIL verify.generator_convergence_probe[mix(0.25),square_bump]: gap slope = 0.908 "
         "(required in [0.35, 0.65])"], {
            "drift_convergence.csv":
                "3bd616436e7b86d5850acc1f6b7fd99ac083bb2ec53294f4523d687c3cab7d50",
            "volatility_convergence.csv":
                "7a404f9764cfbda472e31cae74403c31eea64ee512eacdeb789118e44a6c1649",
            "third_moment.csv": "fd52c9d97d2ef24c19a354136512f275e368be17bb36c030557e0871fa2b5530",
            "probe_convergence.csv":
                "cea1fd59aa763473c4c4d418cec620bdba30b1042b5eac70e966335c520806de",
            "ks_vs_epsilon.csv": "e8749e66b8d816b34b278c5b995fe4c204d1bcaa404c3d4355c59326e0b45140",
        }, "542b729f19099158efb859a62a85ab725030fb90cd7650845e1cd6b6a288f7b1"),
    "verify-geometry": (dict(_TINY_RUNS["verify-geometry"], seed=0), 0, [], {
        "dmu_landscape.csv": "a54a7597c5f577a0d05b1caf805a4d6bbca084c7ff1849666006738289cc3f84",
    }, "c5eb1caee975ed71948d11502add33c0b2d7a4c9b87455579e99634e39d18abf"),
    "moments": (dict(_TINY_RUNS["moments"], seed=0), 0, [], {
        "moments.csv": "6c1b11bca4a846c66b60f703f4570cef762ca7260d44a8bdb5960262ebf9c8d5",
    }, "e155a6b36e94df1252573eab4845d8ad8f2b95764f5ab9d845aeb67512c50cbc"),
    "moments-failing": ({"t_grid": [1.0], "folded_epsilon_grid": [0.5, 0.1], "seed": 0}, 1, [
        "FAIL verify.folded_normal_moment[t=1,k=3]: log-log slope = 2.0188 "
        "(required in [1.45, 1.55])",
        "FAIL verify.folded_normal_moment[t=1,k=4]: log-log slope = 2.5794 "
        "(required in [1.95, 2.05])",
    ], {
        "moments.csv": "446b7fcdfbc4c777a5f66222b7da558cbbc75861ead1521494b60bc0544c47a8",
    }, "6ef378f5079b3e0643e4d4f2fe56047e8d4746ab09eb7b5247cff893fd5d53f3"),
    "sbound": (dict(_TINY_RUNS["sbound"], seed=0), 0, [], {
        "sbound.csv": "15c515f3ddb3592b3ae004d6b2fc9590d5f3dec8e799012fa9d424c3b8bd3ca1",
    }, "66eacf931502e98114aea637719ba3181e85568567859992f0e8680cad193bcd"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_RUNS))
def test_each_command_keeps_its_bytes(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    config, code, failed, digests, checks_sha256 = _PINNED_RUNS[case]
    out = tmp_path / "o"
    command = case.removesuffix("-failing")
    assert main([command, "--config", write_config(tmp_path, **config), "--out", str(out)]) == code
    checks = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("wrote ")]
    assert [line for line in checks if line.startswith("FAIL")] == failed
    assert hashlib.sha256("\n".join(checks).encode()).hexdigest() == checks_sha256
    assert json.loads((out / "manifest.json").read_text())["outputs"] == list(digests)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("command", sorted(_TINY_RUNS))
def test_the_manifest_is_written_once_last_and_lists_the_outputs(tmp_path, monkeypatch, command):
    # verify-limit's case is test_verify_limit_reduced
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, seed=0, **_TINY_RUNS[command])
    out = tmp_path / "o"
    seen = spy_on_the_manifest(monkeypatch)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) in (0, 1)
    assert_written_once_last(seen, out)


def test_a_run_that_fails_between_two_artifact_writes_leaves_no_manifest(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)

    def refuse(ens, path):
        raise OSError(f"{path}: no space left")

    monkeypatch.setattr(cli, "write_binary", refuse)
    cfg = write_config(tmp_path, seed=0, **_TINY_RUNS["simulate"])
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert os.listdir(out) == ["ensemble.csv"]


@pytest.mark.parametrize("command", ["simulate", "langevin"])
def test_a_run_that_cannot_be_allocated_leaves_no_manifest(tmp_path, capsys, monkeypatch,
                                                           command):
    # 10**12 paths of 16 coordinates at 2 times are 256 TB, past a 47-bit
    # address space: the allocation fails at once, whatever the overcommit setting
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, n_paths=10 ** 12, d_star=16, obs_grid=[0.1, 0.2], epsilon=0.1,
                       dt=1e-2, seed=0)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert f"configuration error: {command} does not fit in memory" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_quiet_silences_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, n_paths=5, obs_grid=[0.1], epsilon=0.1, seed=0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "q"),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_exit_code_2_on_config_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["simulate", "--config", str(bad_json), "--out", str(tmp_path / "o1")]) == 2
    cfg = write_config(tmp_path, potential="mystery", seed=0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    monkeypatch.setenv("MHJUMP_SEED", "zebra")
    ok = write_config(tmp_path, n_paths=5, obs_grid=[0.1], epsilon=0.1)
    assert main(["simulate", "--config", ok, "--out", str(tmp_path / "o3")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mix:abc", "mix:", "mix:nan", "mix:1.5"])
def test_exit_code_2_on_a_bad_mix_weight(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, kind=kind, n_paths=5, obs_grid=[0.1], epsilon=0.1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match="mix"):
        GeneratorKind.from_string(kind)


@pytest.mark.parametrize("bad", [
    {"n_paths": "abc"},
    {"epsilon": "0.01"},
    {"n_paths": 2.5},
    {"threads": 0},
    {"seed": True},
    {"kind": "mix", "alpha": "0.5"},
    {"x0": "abc"},
    {"x0": [[0.1], "x"]},
    {"obs_grid": [0.1, "x"]},
    {"obs_grid": "abc"},
    {"potential_params": [1]},
    {"kind": 1},
])
def test_exit_code_2_on_mistyped_config_fields(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1, **bad})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**bad)


def test_a_refused_config_value_is_shown_in_short():
    # a long list or a deep nesting is cut, and the message still names the field
    deep = 1.0
    for _ in range(900):
        deep = [deep]
    for name, value in [("obs_grid", [0.5] * 5000 + ["x"]), ("x0", deep)]:
        with pytest.raises(ConfigurationError, match=f"config field '{name}'") as info:
            ExperimentConfig(**{name: value})
        assert len(str(info.value)) < 300


@pytest.mark.parametrize("bad", [
    {"x0": [[1.0], [2.0, 3.0]], "n_paths": 2},  # numpy's inhomogeneous-shape ValueError
    {"potential_params": {"d_star": 2}},  # make_potential's TypeError: d_star given twice
    {"potential_params": {"T": 2.0}},
    {"x0": 10 ** 400},  # JSON integers beyond a float: OverflowError
    {"T": 10 ** 400},
    {"potential": "doublewell", "potential_params": {"a": 10 ** 400}},
], ids=["ragged_x0", "params_d_star", "params_T", "huge_x0", "huge_T", "huge_param"])
def test_exit_code_2_on_configs_that_raised_a_traceback(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1, **bad})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command,bad", [
    ("simulate", {"d_star": 2 ** 57}),  # start_state: 2**57 floats, 1 EiB
    ("simulate", {"n_paths": 2 ** 57}),  # the ensemble's samples
    ("langevin", {"n_paths": 2 ** 57}),
], ids=["simulate-d_star", "simulate-n_paths", "langevin-n_paths"])
def test_exit_code_2_on_a_run_that_cannot_be_allocated(tmp_path, capsys, monkeypatch, command,
                                                       bad):
    # sizes past any address space fail at once, whatever the overcommit setting
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1, **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {command} does not fit in memory" in err
    assert str(2 ** 57) in err  # numpy's message names the array's shape


KILLED_SIMULATE = """
import os, signal, sys
from mhjump import jump
from mhjump.cli import main
jump.os.sched_getaffinity = lambda pid: {0, 1}
jump.SPLIT_CANDIDATES = 1.0  # the work of each path pays for a worker
jump.BLOCK_PATHS = 2
run_block = jump._run_block

def killed_past_the_first_block(p, x0, horizon, streams, obs_proc, offset):
    if offset:  # as the OOM killer ends a worker: no exception, no result
        os.kill(os.getpid(), signal.SIGKILL)
    return run_block(p, x0, horizon, streams, obs_proc, offset)

jump._run_block = killed_past_the_first_block
sys.exit(main(sys.argv[1:]))
"""


def test_exit_code_2_and_no_manifest_when_a_worker_is_killed(tmp_path, isolated):
    cfg = write_config(tmp_path, n_paths=5, obs_grid=[0.1], epsilon=0.1, seed=0, threads=2)
    out = tmp_path / "o"
    run = isolated(KILLED_SIMULATE, "simulate", "--config", cfg, "--out", str(out), "--quiet")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.count("\n") == 1 and "a worker process was killed" in run.stderr
    assert run.stderr.startswith("configuration error: simulate does not fit in memory")
    assert not (out / "manifest.json").exists()


_UNBUILDABLE_STARTS = [
    ("past_numpy_dims", {"d_star": 10 ** 400}, ("simulate", "langevin", "verify-limit")),
    ("past_memory", {"d_star": 2 ** 57}, ("simulate", "langevin", "verify-limit")),
    ("x0_of_wrong_length", {"d_star": 2, "x0": [1.0]}, ("simulate", "langevin", "verify-limit")),
    # one start per path: simulate takes it, the Langevin runs take a single state
    ("per_path_x0", {"x0": [[0.5], [0.6], [0.7], [0.8], [0.9]]}, ("langevin", "verify-limit")),
    # U(1e200) overflows: from there no candidate could ever be accepted
    ("infinite_potential", {"potential": "doublewell", "x0": 1e200},
     ("simulate", "langevin", "verify-limit")),
]


@pytest.mark.parametrize("bad,command", [
    pytest.param(bad, command, id=f"{name}-{command}")
    for name, bad, commands in _UNBUILDABLE_STARTS for command in commands
])
def test_exit_code_2_and_no_manifest_on_a_start_state_that_cannot_be_built(
        tmp_path, capsys, monkeypatch, command, bad):
    # numpy's ValueError past its dimensions, a MemoryError at 2**57 floats
    # (past any address space); the start state is checked before the
    # manifest, so the refused run leaves no file
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, **{"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1, "seed": 0,
                                    **bad})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,bad", [
    pytest.param(command, bad, id=f"{name}-{command}")
    for name, bad, commands in (
        ("no_paths", {"n_paths": 0}, ("simulate", "langevin", "verify-limit")),
        ("decreasing_obs_grid", {"obs_grid": [0.5, 0.3]}, ("simulate", "langevin", "verify-limit")),
        ("obs_grid_off_the_dt_grid", {"dt": 0.3}, ("verify-limit",)),
    ) for command in commands
])
def test_exit_code_2_and_an_empty_out_on_a_run_the_library_refuses(tmp_path, capsys, monkeypatch,
                                                                   command, bad):
    # verify-limit builds its Langevin reference first: the library refuses
    # the request before any quadrature runs or any file is written
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, seed=0, **bad)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("text", [
    b'{"kind": "m\xff"}',
    b"[" * 100000 + b"]" * 100000,
    b'{"n_paths": ' + b"1" * 5000 + b"}",
], ids=["invalid_utf8", "nested_past_the_recursion_limit", "integer_past_the_digit_limit"])
def test_exit_code_2_on_a_config_file_json_cannot_read(tmp_path, capsys, monkeypatch, text):
    # UnicodeDecodeError, RecursionError and ValueError each ended in a traceback
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_bytes(text)
    with pytest.raises(ConfigurationError, match="is not valid JSON"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["m1", "m2", "mix:0.5"])
def test_exit_code_2_on_an_alpha_the_kind_takes_no_part_of(tmp_path, capsys, monkeypatch, kind):
    # the alpha would enter the manifest's config hash and change nothing
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, kind=kind, alpha=0.3, n_paths=5, obs_grid=[0.1], epsilon=0.1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"kind {kind!r} takes no alpha" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6,
)
_NUMBER = st.integers() | st.floats()  # JSON integers have no bound
_NUMBERS = st.lists(_NUMBER, max_size=3)


def _field(name):
    """Values of the field's type, unbounded in size, or any JSON value."""
    default = getattr(ExperimentConfig(), name)
    typed = {int: st.integers(), float: _NUMBER, list: _NUMBERS, str: st.text(max_size=4),
             dict: st.dictionaries(st.text(max_size=3), _NUMBER, max_size=2)}
    return typed.get(type(default), _NUMBER) | _JSON


_FIELDS = {
    **{f.name: _field(f.name) for f in dataclasses.fields(ExperimentConfig)},
    "potential": st.sampled_from(["quadratic", "logcosh", "doublewell"]) | _JSON,
    "potential_params": st.dictionaries(
        st.sampled_from(["a", "b", "sigma", "c", "grad_bound", "d_star", "T", "box"]), _NUMBER,
        max_size=3) | _JSON,
    "kind": st.sampled_from(["m1", "m2", "mix", "mix:0.5", "mix:2", "m3"]) | _JSON,
    "x0": _NUMBER | _NUMBERS | st.lists(_NUMBERS, max_size=3) | _JSON,
    # the start state holds d_star floats, so d_star stays small
    "d_star": st.integers(-2, 8) | st.floats() | st.booleans() | st.none(),
}


def _configs(fields):
    """A few fields at a time, so that most configs get past the type checks."""
    return st.lists(st.sampled_from(sorted(fields)), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: fields[name] for name in names}))


_CONFIGS = _configs(_FIELDS)
# the fields that size a run, drawn only small or malformed, never large and
# valid: a number where a field takes a list, a list where it takes a number
_MALFORMED = st.booleans() | st.text(max_size=4)
_NOT_A_COUNT = st.floats() | st.none() | _MALFORMED | _NUMBERS
_NOT_A_STEP = st.floats(max_value=0.0) | st.just(math.nan) | _MALFORMED | _NUMBERS
_RUN_CONFIGS = _configs({
    **_FIELDS,
    "n_paths": st.integers(max_value=6) | _NOT_A_COUNT,
    "d_star": st.integers(max_value=4) | _NOT_A_COUNT,
    "obs_grid": st.lists(st.floats(max_value=0.2) | st.just(math.nan), max_size=3) | _NUMBER
    | st.none() | _MALFORMED,
    "epsilon": st.floats(min_value=0.01) | st.none() | _NOT_A_STEP,
    "dt": st.floats(min_value=0.01) | _NOT_A_STEP,  # dt None is the default, below 0.01
})


@given(_CONFIGS)
def test_every_config_builds_or_is_refused(data):
    # target, kind and start state build, or the config is refused; no run
    try:
        cfg = ExperimentConfig.from_dict(data)
        target = cfg.build_target()
        cfg.build_kind()
        cfg.start_state(target)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("command", ["simulate", "langevin"])
@given(data=_RUN_CONFIGS)
def test_every_run_config_ends_in_an_exit_code(command, data):
    # a few random fields over a small run that succeeds: the run finishes,
    # fails a numerical check or is refused, and never raises. The start
    # state is checked only by the engines. A rate that the drawn T or
    # potential makes large would draw as many events as MAX_CANDIDATES
    # allows, so a smaller cap refuses it (exit 2) instead.
    base = {"n_paths": 3, "obs_grid": [0.1, 0.2], "epsilon": 0.1, "dt": 0.05, "seed": 0}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(jump, "MAX_CANDIDATES", 1e4):
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as f:
            json.dump({**base, **data}, f)
        assert main([command, "--config", cfg, "--out", os.path.join(tmp, "o"), "--quiet"]) in (
            0, 1, 2)


def test_per_path_start_states_from_config(tmp_path, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, x0=[[0.1], [0.2]], n_paths=2, epsilon=0.1, obs_grid=[0.0, 0.1], seed=1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert np.array_equal(read_binary(tmp_path / "o" / "ensemble.bin").samples[:, 0, 0], [0.1, 0.2])


def test_every_config_field_is_type_checked():
    from mhjump.cli import _FIELD_TYPES

    checked = [name for _, _, names in _FIELD_TYPES for name in names]
    assert sorted(checked) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


def test_threads_flag_must_be_positive(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, n_paths=5, obs_grid=[0.1], epsilon=0.1, seed=0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("source,command", [("config", "sbound"), ("env", "verify-geometry"),
                                            ("flag", "simulate")])
def test_exit_code_2_and_no_manifest_on_a_seed_the_binary_header_cannot_hold(
        tmp_path, capsys, monkeypatch, source, command, seed):
    # the binary header stores the seed as a u64; each source is refused
    # where the three meet, before the manifest
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = {"n_paths": 5, "obs_grid": [0.1], "epsilon": 0.1, "n_pairs": 50, "n_chains": 2,
           "n_reversible": 20}
    argv = [command, "--out", str(tmp_path / "o"), "--quiet"]
    if source == "config":
        cfg["seed"] = seed
    elif source == "env":
        monkeypatch.setenv("MHJUMP_SEED", str(seed))
    else:
        argv.append(f"--seed={seed}")
    assert main(argv + ["--config", write_config(tmp_path, **cfg)]) == 2
    assert f"must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_exit_code_1_and_every_failed_check_named(tmp_path, capsys, monkeypatch):
    # at eps 0.5 and 0.1 the folded moments are far from their small-eps
    # orders: both slope checks fail, and the run still writes its data
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, folded_epsilon_grid=[0.5, 0.1], t_grid=[1.0], seed=0)
    out = tmp_path / "o"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert ("FAIL verify.folded_normal_moment[t=1,k=3]: log-log slope = 2.0188 "
            "(required in [1.45, 1.55])") in text
    assert ("FAIL verify.folded_normal_moment[t=1,k=4]: log-log slope = 2.5794 "
            "(required in [1.95, 2.05])") in text
    assert text.count("FAIL") == 2 and text.rstrip().endswith("2 check(s) failed")
    assert (out / "moments.csv").exists()


def test_exit_code_3_on_blocked_output(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = write_config(tmp_path, n_paths=5, obs_grid=[0.1], epsilon=0.1, seed=0)
    assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_1_on_numerical_failure(tmp_path, capsys, monkeypatch):
    # no quadrature meets an error estimate of 1e-300
    monkeypatch.delenv("MHJUMP_SEED", raising=False)
    cfg = write_config(tmp_path, quad_tol=1e-300, seed=0)
    assert main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "numerical failure: folded moment" in capsys.readouterr().err


def test_a_stage_that_raises_leaves_the_earlier_stages_checks_and_rows(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.delenv("MHJUMP_SEED", raising=False)

    def no_probe(*args):
        raise QuadratureError("probe quadrature did not converge")

    monkeypatch.setattr("mhjump.verify.generator_convergence_probe", no_probe)
    config, _, _, digests, _ = _PINNED_RUNS["verify-limit"]
    out = tmp_path / "o"
    assert main(["verify-limit", "--config", write_config(tmp_path, **config),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "numerical failure: probe quadrature" in captured.err
    checks = [line for line in captured.out.splitlines() if not line.startswith("wrote ")]
    assert len(checks) == 9
    assert all(line.startswith("pass verify.moment_report[") for line in checks)
    moments = ["drift_convergence.csv", "volatility_convergence.csv", "third_moment.csv"]
    assert sorted(os.listdir(out)) == sorted(moments)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in moments} == {name: digests[name] for name in moments}


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert "invalid choice" in capsys.readouterr().err


def test_manifest_is_atomic_and_sorted(tmp_path):
    cfg = ExperimentConfig(n_paths=3)
    path = write_manifest(str(tmp_path), cfg, 5, ["a.csv"])
    data = json.loads(open(path).read())
    assert list(data) == sorted(data)
    assert data["tool_version"]
    assert not os.path.exists(path + ".tmp")
