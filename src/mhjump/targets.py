"""Gibbs targets, the coordinate Gaussian proposal, and acceptance factors.

A target is mu(dx) proportional to exp(-U(x)/T) dx on R^d; the normalizing
constant is never computed. Moves are single-coordinate: pick i uniformly,
propose y = x + z e_i with z ~ N(0, eps). Two acceptance factors attach to a
move, written here through dU = U(y) - U(x):

    s1 = exp(-max(dU, 0)/T)      classical dynamics, rates <= proposal
    s2 = exp(max(-dU, 0)/T)      accelerated dynamics, rates >= proposal

plus the linearized surrogate s2_hat = exp(max(-z * dU_i(x), 0)/T) whose gap
to s2 is second order in z. Everything downstream carries log s, not s;
exponentiation happens at the last moment so that the eps -> 0 regime does
not lose the tiny dU to rounding.

A potential declares its bound on U's descent once, for all of R^d: either
a constant per-coordinate gradient bound (grad_bound), or a per-state slope
bound (slope_bound) with U(x) - U(x + z e_i) <= slope_bound(x)_i |z| for
every z. The jump engine's dominating kernel is tilted by that bound at the
current state. The quadratic declares the per-state bound |x_i|, exact on
all of R, and no constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GaussianProposal:
    """Single-coordinate displacement law N(0, epsilon)."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ConfigurationError(f"proposal epsilon must be positive, got {self.epsilon}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.epsilon)

    def logpdf(self, z):
        z = np.asarray(z, dtype=float)
        return -0.5 * z * z / self.epsilon - 0.5 * math.log(2.0 * math.pi * self.epsilon)


def _move_index(x, i):
    """Index of the moved coordinate in x: x[..., i], or x[r, i[r]] when x is
    a block of rows and i holds one coordinate per row."""
    if x.ndim > 1 and np.ndim(i):
        return np.arange(x.shape[0]), i
    return Ellipsis, i


class TargetPotential:
    """Gibbs target exp(-U/T): potential values, gradient, declared bounds.

    Subclasses implement u(x) and grad(x) vectorized over leading axes of x
    with shape (..., d_star), and declare one bound: a finite grad_bound, a
    true bound on sup_x |dU_i(x)| over the whole space, or an override of
    slope_bound with grad_bound None.
    """

    name = "target"

    def __init__(self, d_star, T, grad_bound=None):
        if d_star < 1 or int(d_star) != d_star:
            raise ConfigurationError(f"d_star must be a positive integer, got {d_star}")
        if not (T > 0.0 and math.isfinite(T)):
            raise ConfigurationError(f"temperature must be positive, got {T}")
        local = type(self).slope_bound is not TargetPotential.slope_bound
        if not (grad_bound is None if local
                else grad_bound is not None and 0.0 <= grad_bound < math.inf):
            raise ConfigurationError(f"{self.name} must declare exactly one of a finite grad_bound "
                                     f"and a slope_bound override, got grad_bound {grad_bound}")
        self.d_star = int(d_star)
        self.T = float(T)
        self.grad_bound = None if local else float(grad_bound)

    def u(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def delta_u_move(self, x, i, z):
        """U(x + z e_i) - U(x), the one dU of a single-coordinate move.

        Broadcasts over rows: x is one state (d,) or a block (n, d), i is one
        coordinate or one per row, z is one displacement or one per row.
        Generic fallback via two full evaluations of u.
        """
        x = np.asarray(x, dtype=float)
        rows = np.broadcast_shapes(x.shape[:-1], np.shape(i), np.shape(z))
        x = np.broadcast_to(x, rows + x.shape[-1:])
        y = x.copy()
        y[_move_index(y, i)] += z
        return self.u(y) - self.u(x)

    def slope_bound(self, x):
        """A bound b(x) on the descent of U along any single-coordinate move:
        U(x) - U(x + z e_i) <= b(x)_i |z| for every z.

        The default is the constant grad_bound. A subclass with no grad_bound
        returns an array of x's shape; the jump engine then thins the tilted
        kinds against the state-dependent tilt max_i b(x)_i / T.
        """
        return self.grad_bound


class SeparableTargetPotential(TargetPotential):
    """U(x) = sum_i u1(x_i); per-coordinate formulas enable exact dU on moves."""

    def u1(self, v):
        raise NotImplementedError

    def du1(self, v):
        raise NotImplementedError

    def u(self, x):
        return np.sum(self.u1(np.asarray(x, dtype=float)), axis=-1)

    def grad(self, x):
        return self.du1(np.asarray(x, dtype=float))

    def delta_u_move(self, x, i, z):
        x = np.asarray(x, dtype=float)
        xi = x[_move_index(x, i)]
        return self.u1(xi + z) - self.u1(xi)


def delta_u_from_u1(target):
    """Whether target's dU is the separable u1(x_i + z) - u1(x_i), so a caller
    may keep u1(x_i) and evaluate u1 once per move, with the same bits. False
    for any other class, and for any override of delta_u_move."""
    return type(target).delta_u_move is SeparableTargetPotential.delta_u_move


def delta_u_line(target, x, i):
    """z -> target.delta_u_move(x, i, z) at one fixed start (x, i).

    A target whose dU comes from u1 computes u1(x_i) once, for every z; any
    other is called as is.
    """
    if not delta_u_from_u1(target):
        return lambda z: target.delta_u_move(x, i, z)
    x = np.asarray(x, dtype=float)
    xi = x[_move_index(x, i)][()]  # numpy scalars, not 0-d arrays: xi + z is scalar arithmetic
    start = target.u1(xi)[()]
    return lambda z: target.u1(xi + z) - start


class BoxedQuadratic(SeparableTargetPotential):
    """U(x) = |x|^2 / 2, with the per-state slope bound |x_i| and no constant one.

    slope_bound(x) = |x_i| is exact on all of R: u1(v) - u1(v + z)
    = -v z - z^2 / 2 <= |v| |z|, with the gap vanishing as z -> 0 against
    the sign of v.
    """

    name = "quadratic"

    def __init__(self, d_star=1, T=1.0):
        super().__init__(d_star, T)

    def u1(self, v):
        v = np.asarray(v, dtype=float)
        return 0.5 * v * v

    def du1(self, v):
        return np.asarray(v, dtype=float)

    def slope_bound(self, x):
        return np.abs(np.asarray(x, dtype=float))


class LogCoshWell(SeparableTargetPotential):
    """U(x) = sum_i log cosh(x_i) - c x_i; globally bounded gradient 1 + |c|."""

    name = "logcosh"

    def __init__(self, d_star=1, T=1.0, c=0.0):
        super().__init__(d_star, T, grad_bound=1.0 + abs(float(c)))
        self.c = float(c)

    def u1(self, v):
        v = np.asarray(v, dtype=float)
        # log cosh v = |v| + log1p(exp(-2|v|)) - log 2, stable for large |v|
        a = np.abs(v)
        return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0) - self.c * v

    def du1(self, v):
        return np.tanh(np.asarray(v, dtype=float)) - self.c


class SmoothedDoubleWell(SeparableTargetPotential):
    """U(x) = sum_i sqrt(1 + x_i^2) w(x_i) with a Gaussian-dimple shaping w.

    w(v) = 1 - b (exp(-(v-a)^2 / 2 sigma^2) + exp(-(v+a)^2 / 2 sigma^2)).
    Defaults give exactly two minima near +-1.49, one interior maximum at 0
    (barrier ~0.51) and sup |u1'| = 2.3062; grad_bound is declared 2.5, a
    true bound with a safety margin so thinning domination cannot fail.
    """

    name = "doublewell"

    def __init__(self, d_star=1, T=1.0, a=1.5, b=1.0, sigma=0.9, grad_bound=2.5):
        if not (sigma > 0.0):
            raise ConfigurationError("doublewell sigma must be positive")
        super().__init__(d_star, T, grad_bound=float(grad_bound))
        self.a = float(a)
        self.b = float(b)
        self.sigma = float(sigma)

    def _w(self, v):
        s2 = 2.0 * self.sigma * self.sigma
        return 1.0 - self.b * (np.exp(-((v - self.a) ** 2) / s2) + np.exp(-((v + self.a) ** 2) / s2))

    def _dw(self, v):
        s2 = self.sigma * self.sigma
        return self.b * (
            (v - self.a) / s2 * np.exp(-((v - self.a) ** 2) / (2.0 * s2))
            + (v + self.a) / s2 * np.exp(-((v + self.a) ** 2) / (2.0 * s2))
        )

    def u1(self, v):
        v = np.asarray(v, dtype=float)
        return np.sqrt(1.0 + v * v) * self._w(v)

    def du1(self, v):
        v = np.asarray(v, dtype=float)
        r = np.sqrt(1.0 + v * v)
        return v / r * self._w(v) + r * self._dw(v)


_POTENTIALS = {
    BoxedQuadratic.name: BoxedQuadratic,
    LogCoshWell.name: LogCoshWell,
    SmoothedDoubleWell.name: SmoothedDoubleWell,
}


def potential_names():
    return sorted(_POTENTIALS)


def make_potential(name, d_star=1, T=1.0, **params):
    """Build a built-in potential by name ('quadratic', 'logcosh', 'doublewell')."""
    try:
        cls = _POTENTIALS[name]
    except KeyError:
        raise ConfigurationError(f"unknown potential {name!r}; known: {potential_names()}") from None
    for key, value in params.items():  # a NaN or inf one makes U NaN or inf where it is used
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"bad parameters for potential {name!r}: {key} must be "
                                     f"finite, got {value}")
    try:
        return cls(d_star=d_star, T=T, **params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad parameters for potential {name!r}: {exc}") from None


# acceptance factors, all in log space; du = U(y) - U(x), broadcasting welcome


def log_s_m1(du, T):
    du = np.asarray(du, dtype=float)
    return -np.maximum(du, 0.0) / T


def log_s_m2(du, T):
    du = np.asarray(du, dtype=float)
    return np.maximum(-du, 0.0) / T


def log_s_mix(du, T, alpha):
    """log(alpha s1 + (1-alpha) s2), reducing exactly at alpha in {0, 1}."""
    if alpha == 1.0:
        return log_s_m1(du, T)
    if alpha == 0.0:
        return log_s_m2(du, T)
    return np.logaddexp(math.log(alpha) + log_s_m1(du, T), math.log1p(-alpha) + log_s_m2(du, T))


def log_s_hat_m2(grad_i, z, T):
    """Linearized accelerated factor: exp(max(-z dU_i(x), 0)/T), in logs."""
    grad_i = np.asarray(grad_i, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.maximum(-z * grad_i, 0.0) / T


def taylor_gap(du, grad_i, z, T):
    """g = [U(x) - U(y) + z dU_i(x)]/T, the first-order remainder of the move."""
    du = np.asarray(du, dtype=float)
    return (-du + np.asarray(z, dtype=float) * np.asarray(grad_i, dtype=float)) / T


# one-dimensional Gibbs quadrature oracle (density, cdf, quantiles)


def gibbs_table_1d(target):
    """Dense-grid normalized density and cdf of exp(-u1/T) on [-12, 12]."""
    if target.d_star != 1:
        raise ConfigurationError("gibbs_table_1d needs a one-dimensional target")
    grid = np.linspace(-12.0, 12.0, 200001)
    logw = -target.u1(grid) / target.T
    w = np.exp(logw - np.max(logw))
    dx = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dx)])
    total = cdf[-1]
    return grid, w / total, cdf / total


def gibbs_quantiles_1d(target, probs):
    """Quantiles of the 1-d Gibbs law by interpolating the quadrature cdf."""
    grid, _, cdf = gibbs_table_1d(target)
    return np.interp(np.asarray(probs, dtype=float), cdf, grid)
