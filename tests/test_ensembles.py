"""Ensemble file formats: text round trips, binary layout, error paths."""

import numpy as np
import pytest

from mhjump import (
    BoxedQuadratic,
    ConfigurationError,
    GeneratorKind,
    ObservedEnsemble,
    simulate_ensemble,
    simulate_langevin,
)
from mhjump.ensembles import read_binary, read_csv, write_binary, write_csv
from mhjump.targets import GaussianProposal


@pytest.fixture
def jump_ens():
    target = BoxedQuadratic(d_star=2)
    return simulate_ensemble(
        GeneratorKind.mix(0.25), target, GaussianProposal(0.04),
        np.array([1.0, -0.5]), [0.3, 0.7], 12, master_seed=99,
    )


@pytest.fixture
def langevin_ens():
    target = BoxedQuadratic(d_star=2)
    return simulate_langevin(target, np.array([1.0, -0.5]), [0.3, 0.7], 12, 1e-3, 99)


def test_csv_round_trip(tmp_path, jump_ens):
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    back = read_csv(p)
    assert np.array_equal(back.samples, jump_ens.samples)
    assert np.array_equal(back.obs_grid, jump_ens.obs_grid)
    assert back.epsilon == jump_ens.epsilon
    assert back.kind == "mix"
    assert back.alpha == 0.25
    assert back.seed == 99


def test_binary_round_trip_byte_identical(tmp_path, jump_ens):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_binary(jump_ens, p1)
    write_binary(read_binary(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_langevin_alpha_round_trips_as_missing(tmp_path, langevin_ens):
    assert langevin_ens.alpha is None
    for name, writer, reader in (("l.csv", write_csv, read_csv),
                                 ("l.bin", write_binary, read_binary)):
        p = tmp_path / name
        writer(langevin_ens, p)
        back = reader(p)
        assert back.kind == "langevin"
        assert back.alpha is None
        assert np.array_equal(back.samples, langevin_ens.samples)


def test_formats_agree(tmp_path, jump_ens):
    pc, pb = tmp_path / "e.csv", tmp_path / "e.bin"
    write_csv(jump_ens, pc)
    write_binary(jump_ens, pb)
    a, b = read_csv(pc), read_binary(pb)
    assert np.array_equal(a.samples, b.samples)
    assert a.epsilon == b.epsilon and a.kind == b.kind and a.alpha == b.alpha


def test_read_csv_rejects_mangled_header(tmp_path, jump_ens):
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    lines = p.read_text().splitlines(keepends=True)
    assert lines[0].startswith("#")
    p.write_text("".join(lines[2:]))  # drop metadata comments
    with pytest.raises(ConfigurationError):
        read_csv(p)


def test_read_binary_rejects_bad_magic(tmp_path, jump_ens):
    p = tmp_path / "e.bin"
    write_binary(jump_ens, p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="not an ensemble dump"):
        read_binary(p)


def test_read_binary_rejects_bad_version(tmp_path, jump_ens):
    p = tmp_path / "e.bin"
    write_binary(jump_ens, p)
    raw = bytearray(p.read_bytes())
    raw[4:6] = (999).to_bytes(2, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="version"):
        read_binary(p)


def test_read_binary_rejects_truncation(tmp_path, jump_ens):
    p = tmp_path / "e.bin"
    write_binary(jump_ens, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ConfigurationError, match="expected .* bytes"):
        read_binary(p)


def test_read_binary_rejects_unknown_kind_code(tmp_path, jump_ens):
    p = tmp_path / "e.bin"
    write_binary(jump_ens, p)
    raw = bytearray(p.read_bytes())
    raw[6] = 250  # kind byte
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="kind"):
        read_binary(p)


def test_write_binary_rejects_unknown_kind(tmp_path, jump_ens):
    bad = ObservedEnsemble(
        obs_grid=jump_ens.obs_grid, samples=jump_ens.samples,
        epsilon=jump_ens.epsilon, kind="exotic", seed=0,
    )
    with pytest.raises(ConfigurationError, match="kind"):
        write_binary(bad, tmp_path / "e.bin")


def _mangle_csv(path, line, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[line] = edit(lines[line])
    path.write_text("".join(lines))


@pytest.mark.parametrize("line, edit, message", [
    (0, lambda s: s.replace(" n_grid=2 d=2", ""), "metadata lacks 'n_grid'"),
    (0, lambda s: s.replace(" seed=99", " seed99"), "bad metadata"),
    (0, lambda s: s.replace("n_paths=12", "n_paths=abc"), "bad metadata"),
    (0, lambda s: s.replace("n_paths=12", "n_paths=-12"), ">= 1"),
    (1, lambda s: "path_id,t,y_1,y_2\n", "header"),
    (1, lambda s: "path_id,t,x_1\n", "header"),
    (5, lambda s: s.rsplit(",", 1)[0] + ",abc\n", "unreadable"),
    (5, lambda s: s.rsplit(",", 1)[0] + "\n", "unreadable"),
], ids=["truncated-metadata", "token-without-equals", "non-integer-count",
        "negative-count", "wrong-header", "header-of-other-dimension",
        "non-numeric-cell", "ragged-row"])
def test_read_csv_rejects_malformed_files(tmp_path, jump_ens, line, edit, message):
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    _mangle_csv(p, line, edit)
    with pytest.raises(ConfigurationError, match=message):
        read_csv(p)


def test_read_csv_rejects_non_ascii_bytes(tmp_path, jump_ens):
    p = tmp_path / "e.csv"
    write_binary(jump_ens, p)
    with pytest.raises(ConfigurationError):
        read_csv(p)
