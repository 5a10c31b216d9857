"""Ensemble serialization: CSV and a compact binary dump.

CSV: one metadata comment line, a header, then one row per path x grid point
(path_id, t, x_1..x_d). Floats use repr, the shortest round-trip form, so
identical ensembles serialize to identical bytes.

Binary layout (all little-endian), header then payload:

    offset  size  field
    0       4     magic b"MHJE"
    4       2     format version (u16, currently 1)
    6       1     kind code (u8: index in ENSEMBLE_KINDS, 0 m1, 1 m2, 2 mix, 3 langevin)
    7       1     pad (0)
    8       4     d_star (u32)
    12      8     n_paths (u64)
    20      8     n_grid (u64)
    28      8     scale (f64: proposal variance, or dt for langevin)
    36      8     alpha (f64, NaN when absent)
    44      8     seed (u64)
    52      -     obs grid, n_grid f64
    -       -     samples, n_paths * n_grid * d_star f64, C order
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import warnings

import numpy as np

from .errors import ConfigurationError
from .jump import ENSEMBLE_KINDS, ObservedEnsemble

_MAGIC = b"MHJE"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBIQQddQ")
_META_PREFIX = "# mhjump-ensemble "


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open path for writing through a temporary file in the same directory.

    The file appears at path, by os.replace, only when the block completes;
    if it raises, the temporary file is removed and path is left untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _meta_line(ens):
    alpha = "nan" if ens.alpha is None else repr(float(ens.alpha))
    return (
        f"{_META_PREFIX}kind={ens.kind} alpha={alpha} epsilon={float(ens.epsilon)!r} "
        f"seed={ens.seed} n_paths={ens.n_paths} n_grid={ens.obs_grid.size} d={ens.d_star}"
    )


def _csv_header(d):
    return "path_id,t," + ",".join(f"x_{j + 1}" for j in range(d))


def write_csv(ens, path):
    times = [repr(t) for t in ens.obs_grid.tolist()]
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{_meta_line(ens)}\n{_csv_header(ens.d_star)}\n")
        for p, states in enumerate(ens.samples):  # one path's rows in memory at a time
            values = map(repr, states.reshape(-1).tolist())
            cols = map(",".join, zip(*[values] * ens.d_star))  # each row's d values
            fh.write("".join([f"{p},{t},{x}\n" for t, x in zip(times, cols)]))


def _check_counts(path, n_paths, n_grid, d):
    """Header counts are checked before any payload is shaped by them."""
    if min(n_paths, n_grid, d) < 1:
        raise ConfigurationError(f"{path}: n_paths, n_grid and d must be >= 1")


def _ensemble(path, grid, samples, epsilon, kind, seed, alpha):
    """The ensemble a reader decoded; its own checks name the file."""
    try:
        return ObservedEnsemble(
            obs_grid=grid,
            samples=samples,
            epsilon=epsilon,
            kind=kind,
            seed=seed,
            alpha=None if math.isnan(alpha) else alpha,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _read_meta(path, meta):
    """The metadata line -> (kind, alpha, epsilon, seed, n_paths, n_grid, d)."""
    if not meta.startswith(_META_PREFIX):
        raise ConfigurationError(f"{path} is not an ensemble CSV")
    try:
        fields = dict(tok.split("=", 1) for tok in meta.split()[2:])
        kind, alpha, epsilon = fields["kind"], float(fields["alpha"]), float(fields["epsilon"])
        seed, n_paths, n_grid, d = (int(fields[key]) for key in ("seed", "n_paths", "n_grid", "d"))
    except KeyError as exc:
        raise ConfigurationError(f"{path}: metadata lacks {exc}") from None
    except ValueError as exc:  # a token without "=", or a non-numeric value
        raise ConfigurationError(f"{path}: bad metadata: {exc}") from None
    _check_counts(path, n_paths, n_grid, d)
    return kind, alpha, epsilon, seed, n_paths, n_grid, d


def _ends_with_newline(path):
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        return fh.read(1) == b"\n"


def read_csv(path):
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            # a file with no data row is refused below, by its body shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            meta, header = fh.readline().strip(), fh.readline().strip()
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:  # non-numeric cells, ragged rows, non-ASCII bytes
        raise ConfigurationError(f"{path}: unreadable ensemble CSV: {exc}") from None
    kind, alpha, epsilon, seed, n_paths, n_grid, d = _read_meta(path, meta)
    if header != _csv_header(d):
        raise ConfigurationError(f"{path}: header {header!r} is not {_csv_header(d)!r}")
    if not _ends_with_newline(path):  # write_csv ends every row; a cut one still parses
        raise ConfigurationError(f"{path}: truncated: the last row does not end with a newline")
    if body.shape != (n_paths * n_grid, 2 + d):
        raise ConfigurationError(f"{path}: body shape {body.shape} does not match metadata")
    grid = body[:n_grid, 1].copy()
    if not np.array_equal(body[:, 0], np.repeat(np.arange(n_paths), n_grid)):
        raise ConfigurationError(
            f"{path}: path_id column is not 0..{n_paths - 1}, each {n_grid} times"
        )
    if not np.array_equal(body[:, 1], np.tile(grid, n_paths)):
        raise ConfigurationError(f"{path}: t column does not repeat one grid for every path")
    return _ensemble(path, grid, body[:, 2:].reshape(n_paths, n_grid, d), epsilon, kind, seed, alpha)


def write_binary(ens, path):
    alpha = math.nan if ens.alpha is None else float(ens.alpha)
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        ENSEMBLE_KINDS.index(ens.kind),
        0,
        ens.d_star,
        ens.n_paths,
        ens.obs_grid.size,
        float(ens.epsilon),
        alpha,
        ens.seed,
    )
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ens.obs_grid, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ens.samples, dtype="<f8").tobytes())


def read_binary(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ConfigurationError(f"{path} is not an ensemble dump")
    magic, version, code, pad, d, n_paths, n_grid, scale, alpha, seed = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ConfigurationError(f"{path}: unsupported format version {version}")
    if pad:
        raise ConfigurationError(f"{path}: pad byte at offset 7 is {pad}, not 0")
    if code >= len(ENSEMBLE_KINDS):
        raise ConfigurationError(f"{path}: unknown kind code {code}")
    _check_counts(path, n_paths, n_grid, d)
    need = _HEADER.size + 8 * (n_grid + n_paths * n_grid * d)
    if len(raw) != need:
        raise ConfigurationError(f"{path}: expected {need} bytes, got {len(raw)}")
    grid = np.frombuffer(raw, dtype="<f8", count=n_grid, offset=_HEADER.size).astype(float)
    samples = np.frombuffer(
        raw, dtype="<f8", count=n_paths * n_grid * d, offset=_HEADER.size + 8 * n_grid
    ).astype(float).reshape(n_paths, n_grid, d)
    return _ensemble(path, grid, samples, scale, ENSEMBLE_KINDS[code], seed, alpha)
