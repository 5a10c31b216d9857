"""Finite-state jump generators: the min/max constructions, the weighted L1
metric between rate matrices, and the half-space decomposition behind the
minimal-distance property of the mixture family.

Conventions: rates[x, y] is the jump rate x -> y, diagonals are identically
zero (holding rates are implied), mu is a strictly positive probability
vector. All operations are pure numpy on small dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import atomic_open
from .errors import ConfigurationError

_MU_TOL = 1e-12


def _zero_diag(a):
    out = np.array(a, dtype=float, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Base rates Q and target law mu on n states."""

    n: int
    rates: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        rates = _zero_diag(self.rates)
        mu = np.asarray(self.mu, dtype=float).copy()
        if rates.shape != (self.n, self.n):
            raise ConfigurationError(f"rates must be {self.n}x{self.n}, got {rates.shape}")
        if mu.shape != (self.n,):
            raise ConfigurationError(f"mu must have length {self.n}, got {mu.shape}")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0.0):
            raise ConfigurationError("rates must be finite and nonnegative")
        if not np.all(mu > 0.0):  # this check and the next are written so that a NaN fails
            raise ConfigurationError("mu must be strictly positive")
        if not abs(mu.sum() - 1.0) <= _MU_TOL:
            raise ConfigurationError(f"mu must sum to 1 within {_MU_TOL}, got {mu.sum()}")
        rates.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "mu", mu)


def random_chain(n, rng):
    """Off-diagonal rates iid uniform(0, 1], rescaled to max row sum <= 1;
    mu from a flat Dirichlet."""
    q = 1.0 - rng.random((n, n))
    np.fill_diagonal(q, 0.0)
    q /= max(q.sum(axis=1).max(), 1.0)
    mu = rng.dirichlet(np.ones(n))
    mu = mu / mu.sum()
    return FiniteChain(n=n, rates=q, mu=mu)


def _flux_ratio(chain):
    """Matrix of mu(y) Q(y, x) / mu(x), the reversed-flux rates."""
    return (chain.mu[None, :] * chain.rates.T) / chain.mu[:, None]


def make_m1(chain):
    """Entrywise min of Q and the reversed flux; mu-reversible by construction."""
    return _zero_diag(np.minimum(chain.rates, _flux_ratio(chain)))


def make_m2(chain):
    """Entrywise max of Q and the reversed flux; mu-reversible by construction."""
    return _zero_diag(np.maximum(chain.rates, _flux_ratio(chain)))


def mix(m1, m2, alpha):
    if not (0.0 <= alpha <= 1.0):
        raise ConfigurationError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * np.asarray(m1, dtype=float) + (1.0 - alpha) * np.asarray(m2, dtype=float)


def d_mu(chain, a, b):
    """sum_{x != y} mu(x) |A(x,y) - B(x,y)|.

    a and b may also be stacks (..., n, n) of rate matrices, broadcast against
    each other; the result is then one distance per stacked pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-2:] != chain.rates.shape or b.shape[-2:] != chain.rates.shape:
        raise ConfigurationError("rate matrices must match the chain size")
    off = ~np.eye(chain.n, dtype=bool)
    dist = np.sum(chain.mu[:, None] * np.abs(a - b) * off, axis=(-2, -1))
    return float(dist) if dist.ndim == 0 else dist


def reversibility_gap(chain, m):
    """max_{x,y} |mu(x) M(x,y) - mu(y) M(y,x)|, zero iff mu-reversible."""
    f = chain.mu[:, None] * np.asarray(m, dtype=float)
    return float(np.max(np.abs(f - f.T)))


def random_reversible(chain, rng):
    """One mu-reversible generator: symmetric S > 0, R(x,y) = S(x,y)/mu(x)."""
    return random_reversible_batch(chain, 1, rng)[0]


def random_reversible_batch(chain, count, rng):
    """Stack of count mu-reversible generators, sampled as in random_reversible."""
    s = rng.random((count, chain.n, chain.n))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    r = s / chain.mu[None, :, None]
    idx = np.arange(chain.n)
    r[:, idx, idx] = 0.0
    return r


def half_space_masses(chain):
    """Total |mu(x)Q(x,y) - mu(y)Q(y,x)| over the under- and over-flux pairs.

    The two masses are equal by the (x, y) <-> (y, x) swap, and each equals
    the distance from Q to the min construction: mu(x)(Q - M1)(x,y) is the
    positive part of the flux asymmetry.
    """
    f = chain.mu[:, None] * chain.rates
    gap = f - f.T
    mass_under = float(np.sum(np.abs(gap[gap < 0.0])))
    mass_over = float(np.sum(gap[gap > 0.0]))
    return mass_under, mass_over


def save_chain(chain, path):
    """Plain-text format: first line n, then the mu row, then n rate rows."""
    lines = [str(chain.n), " ".join(repr(float(v)) for v in chain.mu)]
    for row in chain.rates:
        lines.append(" ".join(repr(float(v)) for v in row))
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_chain(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"chain file {path} is not ASCII text: {exc}") from None
    if not tokens:
        raise ConfigurationError(f"empty chain file {path}")
    try:
        n = int(tokens[0])
        vals = np.array([float(t) for t in tokens[1:]], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"bad chain file {path}: {exc}") from None
    if n < 1:
        raise ConfigurationError(f"chain file {path} should start with a state count >= 1, got {n}")
    if vals.size != n + n * n:
        raise ConfigurationError(
            f"chain file {path} should hold n + n*n = {n + n * n} numbers, got {vals.size}"
        )
    return FiniteChain(n=n, rates=vals[n:].reshape(n, n), mu=vals[:n])
