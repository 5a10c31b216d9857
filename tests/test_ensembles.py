"""Ensemble file formats: text round trips, binary layout, error paths."""

import dataclasses
import math
import warnings

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
from mhjump.ensembles import _HEADER, read_binary, read_csv, write_binary, write_csv
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


@pytest.mark.parametrize("d, n_paths, n_grid", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (0, 2 ** 63 + 5, 1)])
def test_read_binary_rejects_empty_dimensions(tmp_path, d, n_paths, n_grid):
    # a header whose payload size matches but describes no samples
    p = tmp_path / "e.bin"
    header = _HEADER.pack(b"MHJE", 1, 0, 0, d, n_paths, n_grid, 0.01, math.nan, 0)
    p.write_bytes(header + np.zeros(n_grid + n_paths * n_grid * d).tobytes())
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        read_binary(p)


BAD_GRIDS = {
    "decreasing": [1.0, 0.5],
    "negative": [-0.3, 0.7],
    "infinite": [0.3, math.inf],
    "nan": [math.nan, 0.7],
}


@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_readers_reject_a_malformed_observation_grid(tmp_path, jump_ens, grid):
    new = BAD_GRIDS[grid]
    b = tmp_path / "e.bin"
    write_binary(jump_ens, b)
    raw = bytearray(b.read_bytes())
    raw[_HEADER.size:_HEADER.size + 16] = np.array(new, dtype="<f8").tobytes()
    b.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError, match="e.bin"):
        read_binary(b)

    c = tmp_path / "e.csv"
    write_csv(jump_ens, c)
    times = dict(zip((repr(float(t)) for t in jump_ens.obs_grid), map(repr, new)))
    lines = c.read_text().splitlines()
    for r in range(2, len(lines)):
        cells = lines[r].split(",")
        cells[1] = times[cells[1]]
        lines[r] = ",".join(cells)
    c.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="e.csv"):
        read_csv(c)


@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_observed_ensemble_keeps_the_run_rule(grid):
    with pytest.raises(ConfigurationError, match="obs_grid"):
        ObservedEnsemble(np.array(BAD_GRIDS[grid]), np.zeros((3, 2, 1)), 0.01, "m1", 0)


@pytest.mark.parametrize("shape", [(0, 2, 1), (3, 2, 0)])
def test_observed_ensemble_rejects_empty_paths_and_coordinates(shape):
    with pytest.raises(ConfigurationError):
        ObservedEnsemble(np.array([0.3, 0.7]), np.zeros(shape), 0.01, "m1", 0)


@pytest.mark.parametrize("kind, seed, message", [
    ("exotic", 0, r"unknown ensemble kind 'exotic'"),
    ("m1", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
    ("m1", 2 ** 64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
    ("m1", 1.5, r"seed must be in \[0, 2\*\*64\), got 1.5"),
], ids=["kind-exotic", "seed-negative", "seed-2**64", "seed-float"])
def test_observed_ensemble_refuses_a_kind_or_seed_no_file_can_hold(kind, seed, message):
    with pytest.raises(ConfigurationError, match=message):
        ObservedEnsemble(np.array([0.3, 0.7]), np.zeros((3, 2, 1)), 0.01, kind, seed)


@pytest.mark.parametrize("code, kind", enumerate(["m1", "m2", "mix", "langevin"]))
def test_binary_kind_codes_keep_their_values(tmp_path, jump_ens, code, kind):
    # the codes are part of the file format
    p = tmp_path / "e.bin"
    write_binary(dataclasses.replace(jump_ens, kind=kind), p)
    assert p.read_bytes()[6] == code
    assert read_binary(p).kind == kind


FORMATS = {"csv": (write_csv, read_csv), "bin": (write_binary, read_binary)}


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("fmt", FORMATS)
def test_every_read_ensemble_writes_back_through_both_writers(tmp_path, jump_ens, langevin_ens,
                                                              fmt, seed):
    for ens in (dataclasses.replace(jump_ens, seed=seed), dataclasses.replace(langevin_ens, seed=seed)):
        write, read = FORMATS[fmt]
        write(ens, tmp_path / f"read.{fmt}")
        back = read(tmp_path / f"read.{fmt}")
        for out, (write_again, read_again) in FORMATS.items():
            write_again(back, tmp_path / f"again.{out}")
            again = read_again(tmp_path / f"again.{out}")
            assert np.array_equal(again.samples, ens.samples)
            assert np.array_equal(again.obs_grid, ens.obs_grid)
            assert (again.kind, again.epsilon, again.alpha, again.seed) == \
                (ens.kind, ens.epsilon, ens.alpha, ens.seed)


def test_write_binary_rejects_unknown_kind(tmp_path, jump_ens):
    # the record refuses the kind, so no ensemble reaches write_binary with it
    with pytest.raises(ConfigurationError, match="kind"):
        bad = ObservedEnsemble(
            obs_grid=jump_ens.obs_grid, samples=jump_ens.samples,
            epsilon=jump_ens.epsilon, kind="exotic", seed=0,
        )
        write_binary(bad, tmp_path / "e.bin")


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_write_binary_refuses_a_seed_the_header_cannot_hold(tmp_path, jump_ens, seed):
    # the header's seed field is a u64; the record refuses any other seed, so
    # it never reaches the header as a struct.error
    with pytest.raises(ConfigurationError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
        write_binary(dataclasses.replace(jump_ens, seed=seed), tmp_path / "e.bin")
    assert not (tmp_path / "e.bin").exists()


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


@pytest.mark.parametrize("edit, message", [
    (lambda s: "7" + s[s.index(","):], "path_id"),
    (lambda s: "1,99.0" + s[s.index(",", s.index(",") + 1):], "t column"),
], ids=["path-id", "grid-time"])
def test_read_csv_checks_every_path_id_and_time(tmp_path, jump_ens, edit, message):
    # row 4 is path 1 at t=0.3: both columns must follow the metadata's layout
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    assert p.read_text().splitlines()[4].startswith("1,0.3,")
    _mangle_csv(p, 4, edit)
    with pytest.raises(ConfigurationError, match=message):
        read_csv(p)


def test_read_csv_rejects_an_unknown_kind(tmp_path, jump_ens):
    # only the kinds the binary format can store load, so every read ensemble writes back
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    _mangle_csv(p, 0, lambda s: s.replace("kind=mix", "kind=exotic"))
    with pytest.raises(ConfigurationError, match="exotic"):
        read_csv(p)


@pytest.mark.parametrize("seed", [-5, 2 ** 64])
def test_read_csv_refuses_a_seed_no_ensemble_may_hold(tmp_path, jump_ens, seed):
    # the record's refusal, named with the file: no read ensemble fails to write back
    p = tmp_path / "e.csv"
    write_csv(jump_ens, p)
    _mangle_csv(p, 0, lambda s: s.replace("seed=99", f"seed={seed}"))
    with pytest.raises(ConfigurationError) as info:
        read_csv(p)
    assert str(info.value) == f"{p}: seed must be in [0, 2**64), got {seed}"


class _DiskFull:
    """A file that takes half of the first write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: max(1, len(data) // 2)])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _writers(ens):
    from mhjump import random_chain, save_chain
    from mhjump.cli import ExperimentConfig, write_manifest, write_plot_csv

    chain = random_chain(3, np.random.default_rng(0))
    return {
        "write_csv": lambda d: write_csv(ens, d / "e.csv"),
        "write_binary": lambda d: write_binary(ens, d / "e.bin"),
        "save_chain": lambda d: save_chain(chain, d / "chain.txt"),
        "write_plot_csv": lambda d: write_plot_csv(str(d / "plot.csv"), [(0.1, 1.0, 0.0, "s")]),
        "write_manifest": lambda d: write_manifest(str(d), ExperimentConfig(), 0, ["e.csv"]),
    }


@pytest.mark.parametrize("writer", sorted(_writers(None)))
def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, jump_ens, writer):
    from mhjump import ensembles

    write = _writers(jump_ens)[writer]
    monkeypatch.setattr(ensembles, "open", lambda *a, **kw: _DiskFull(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    assert list(tmp_path.iterdir()) == []
    # a file already at the target keeps its bytes
    monkeypatch.undo()
    write(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(ensembles, "open", lambda *a, **kw: _DiskFull(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("d", [1, 2])
def test_read_csv_refuses_every_truncation(tmp_path, d):
    # a cut inside the last row leaves a shorter number that still parses, so
    # the reader must see that the row lost its newline
    ens = simulate_ensemble(GeneratorKind.m2(), BoxedQuadratic(d_star=d), GaussianProposal(0.04),
                            np.linspace(1.0, -0.5, d), [0.3, 0.7], 3, master_seed=99)
    whole = tmp_path / "e.csv"
    write_csv(ens, whole)
    data = whole.read_bytes()
    assert np.array_equal(read_csv(whole).samples, ens.samples)
    cut = tmp_path / "cut.csv"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError):
                read_csv(cut)
        assert not caught, (n, [str(w.message) for w in caught])
