"""Numerical verification of the diffusion-limit claims.

Quadrature of rescaled kernel moments against the drift and volatility of
the limiting SDE, tilted absolute-moment orders, the second-order bound on
the linearized acceptance factor, a direct generator-convergence probe on
compactly supported C^2 test functions, distributional comparison of jump
ensembles against the reference diffusion, and the stationarity and
thinning goodness-of-fit statistics.

Error-decay orders are asserted through log-log slope fits on a grid of
proposal variances. Moment and probe errors are aggregated as the sup over
an x-grid before fitting: the limits hold uniformly in x, and pointwise
error curves can sit at zeros of the leading coefficient where the local
decay order is faster than the uniform one. The quadratures at one
(eps, x, coordinate) share a node memo, so the k = 1, 2, 3 moments pay for
each distinct node's acceptance factor once; a miss at the centre of a
QUADPACK interval fills that interval's whole 21-node Gauss-Kronrod stencil
in one pass, with the bits of a node filled alone.

Importing this module loads numpy and scipy.special only: the KS distance
is computed exactly on the 1/lcm(n, m) lattice with numpy, the chi-square
tail comes from scipy.special.chdtrc, and scipy.integrate loads on the
first quadrature call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .errors import ConfigurationError, QuadratureError
from .jump import DOMAIN_SBOUND, _integer, path_stream
from .targets import (
    GaussianProposal,
    delta_u_line,
    gibbs_quantiles_1d,
    log_s_m2,
    log_s_hat_m2,
    log_s_mix,
    taylor_gap,
)

QUAD_TOL = 1e-10
_QUAD_OPTS = dict(limit=500, epsabs=1e-13, epsrel=1e-12)
_U_RANGE = 12.0
_SQRT2PI = math.sqrt(2.0 * math.pi)

DEFAULT_X_VALUES = (-1.8, -0.9, 0.45, 1.1, 2.2)
_OFFCOORD_FILL = (0.3, -0.7, 1.2, -0.2)


def default_x_grid(d_star):
    """Probe points: coordinate 0 sweeps DEFAULT_X_VALUES, the rest sit at fixed
    spots chosen away from stationary points of the built-in potentials."""
    pts = np.zeros((len(DEFAULT_X_VALUES), d_star))
    pts[:, 0] = DEFAULT_X_VALUES
    for j in range(1, d_star):
        pts[:, j] = _OFFCOORD_FILL[(j - 1) % len(_OFFCOORD_FILL)]
    return pts


def fit_loglog_slope(x, y):
    x = np.asarray(x, dtype=float)
    if np.unique(x).size < 2:
        raise ConfigurationError(f"a log-log slope needs two distinct points, got {x.tolist()}")
    return float(np.polyfit(np.log(x), np.log(np.asarray(y, dtype=float)), 1)[0])


def _phi1(u):
    return np.exp(-0.5 * u * u) / _SQRT2PI


# QUADPACK's 21-point Gauss-Kronrod stencil on [-1, 1] in the order qk21 asks
# for it: the centre, then -x, +x for the five Gauss and the five Kronrod
# abscissae x
_GK21 = (0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
         0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
         0.148874338981631210884826001129720, 0.995657163025808080735527280689003,
         0.930157491355708226001207180059508, 0.780817726586416897063717578345042,
         0.562757134668604683339000099272694, 0.294392862701460198131126603103866)
_STENCIL = np.array([0.0] + [sign * x for x in _GK21 for sign in (-1.0, 1.0)])
_HALF = _U_RANGE / 2.0
_MAX_DEPTH = 40  # bisection levels predicted; a deeper interval's nodes miss one by one


class _NodeFactor(dict):
    """u -> (s(x, x + sqrt(eps) u e_i), phi(u)) for the substituted quadratures,
    filled on first lookup; dU comes from delta_u_line, which computes a
    separable target's start energy once.

    _quad_line's intervals are bisections of [-12, 0] and [0, 12], so a level-L
    centre is c = +-(2j + 1) 6 / 2^L, and quad asks for it before the other 20
    nodes c -+ (6 / 2^L) x of its stencil. A miss at such a c fills the whole
    stencil in one pass: one scalar line call per node for dU, then one numpy
    call each for log s and phi. Any other miss is filled alone. A value's
    bits do not depend on which of the two filled it.
    """

    def __init__(self, kind, target, eps, x, i):
        super().__init__()
        self.root = math.sqrt(eps)
        self.line = delta_u_line(target, x, i)
        self.T, self.alpha = target.T, kind.alpha_eff

    def __missing__(self, u):
        num, den = abs(u / _HALF).as_integer_ratio()
        centre = num % 2 and num < 2 * den <= 2 ** (_MAX_DEPTH + 1)
        nodes = u + (_HALF / den) * _STENCIL if centre else np.array([u])
        du = np.array([self.line(z) for z in (self.root * nodes).tolist()])
        s = map(math.exp, log_s_mix(du, self.T, self.alpha).tolist())
        fill = dict(zip(nodes.tolist(), zip(s, _phi1(nodes).tolist())))
        self.update(fill)
        return fill[u]


def _quad_line(factor, weight):
    """int_{|u|<=12} weight(u) s(u) phi(u) du; the integrand is smooth except
    for one kink at u = 0, handed to the adaptive rule as a breakpoint."""

    from scipy.integrate import quad

    def integrand(u):
        s, phi = factor[u]
        return weight(u) * s * phi

    return quad(integrand, -_U_RANGE, _U_RANGE, points=[0.0], **_QUAD_OPTS)


def _moment(factor, eps, d_star, k, tol):
    val, err = _quad_line(factor, lambda u: u ** k)
    scale = eps ** (0.5 * k - 1.0) / d_star
    if not err * scale <= tol:  # a NaN error estimate fails too
        raise QuadratureError(
            f"moment k={k} at eps={eps:g}: error estimate {err * scale:.2e} above {tol:g}"
        )
    return val * scale


def generator_moment(kind, target, proposal, x, i=0, k=1, tol=QUAD_TOL):
    """(1/eps) int (y_i - x_i)^k M(x, y) dy_i by substituted quadrature.

    With z = sqrt(eps) u the integral becomes
    eps^{k/2 - 1} (1/d*) int_{|u|<=12} u^k s(x, x + sqrt(eps) u e_i) phi(u) du.
    """
    if k not in (1, 2, 3):
        raise ConfigurationError(f"moment order k must be 1, 2, or 3, got {k}")
    eps = proposal.epsilon
    return _moment(_NodeFactor(kind, target, eps, x, i), eps, target.d_star, k, tol)


def moment_limits(target, x, i=0):
    """Limits of the k=1,2,3 rescaled moments: the SDE drift and volatility."""
    g = float(np.asarray(target.grad(np.asarray(x, dtype=float)))[..., i])
    return {
        1: -g / (2.0 * target.T * target.d_star),
        2: 1.0 / target.d_star,
        3: 0.0,
    }


@dataclass(frozen=True, eq=False)
class MomentReport:
    kind_label: str
    epsilon_grid: np.ndarray
    x_grid: np.ndarray
    coord: int
    values: dict
    sup_errors: dict
    slopes: dict


def moment_report(kind, target, epsilon_grid, x_grid=None, i=0):
    """Sup-over-x moment errors per epsilon and their fitted decay slopes."""
    eps_grid = np.asarray(epsilon_grid, dtype=float)
    if x_grid is None:
        x_grid = default_x_grid(target.d_star)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    values = {k: np.empty((eps_grid.size, x_grid.shape[0])) for k in (1, 2, 3)}
    sup_errors = {k: np.empty(eps_grid.size) for k in (1, 2, 3)}
    limits = [moment_limits(target, x, i) for x in x_grid]
    lims = {k: np.array([lim[k] for lim in limits]) for k in (1, 2, 3)}
    for a, eps in enumerate(eps_grid):
        proposal = GaussianProposal(eps)
        for b, x in enumerate(x_grid):
            factor = _NodeFactor(kind, target, proposal.epsilon, x, i)
            for k in (1, 2, 3):
                values[k][a, b] = _moment(factor, proposal.epsilon, target.d_star, k, QUAD_TOL)
        for k in (1, 2, 3):
            sup_errors[k][a] = float(np.max(np.abs(values[k][a] - lims[k])))
    slopes = {k: fit_loglog_slope(eps_grid, sup_errors[k]) for k in (1, 2, 3)}
    return MomentReport(
        kind_label=kind.label(),
        epsilon_grid=eps_grid,
        x_grid=x_grid,
        coord=i,
        values=values,
        sup_errors=sup_errors,
        slopes=slopes,
    )


def folded_normal_moment(t, k, epsilon, tol=QUAD_TOL):
    """E[e^{t|Z|} |Z|^k] for Z ~ N(0, epsilon), by quadrature.

    Substituting z = sqrt(eps) u gives 2 eps^{k/2} int_0^inf e^{t sqrt(eps) u}
    u^k phi(u) du; the integrand peaks near u = t sqrt(eps).
    """
    from scipy.integrate import quad

    if k not in (0, 1, 2, 3, 4):
        raise ConfigurationError(f"k must be in 0..4, got {k}")
    root = math.sqrt(epsilon)
    upper = _U_RANGE + 2.0 + t * root
    # refuses an empty [0, upper], an e^{t root u} that overflows, and a NaN or infinite t
    if not (upper > 0.0 and t * root * upper <= 700.0):
        raise ConfigurationError(f"folded moment t={t} eps={epsilon}: t sqrt(eps) is out of range")

    def integrand(u):
        return math.exp(t * root * u) * (u ** k) * _phi1(u)

    val, err = quad(integrand, 0.0, upper, **_QUAD_OPTS)
    scale = 2.0 * epsilon ** (0.5 * k)
    if not err * scale <= tol:
        raise QuadratureError(f"folded moment t={t} k={k}: error {err * scale:.2e} above {tol:g}")
    return val * scale


def gaussian_abs_moment(k, epsilon):
    """Closed-form E|Z|^k for Z ~ N(0, epsilon), k in 0..4."""
    root = math.sqrt(epsilon)
    table = {
        0: 1.0,
        1: root * math.sqrt(2.0 / math.pi),
        2: epsilon,
        3: epsilon * root * 2.0 * math.sqrt(2.0 / math.pi),
        4: 3.0 * epsilon * epsilon,
    }
    try:
        return table[k]
    except KeyError:
        raise ConfigurationError(f"k must be in 0..4, got {k}") from None


@dataclass(frozen=True, eq=False)
class SBoundReport:
    scales: np.ndarray
    max_ratio: np.ndarray
    c1: float
    n_violations: int

    @property
    def stable(self):
        """Ratios bounded by the fitted constant at every probed scale."""
        return self.n_violations == 0


def s_bound_check(target, n_pairs=10000, scale_grid=(1e-1, 1e-2, 1e-3), master_seed=0):
    """Second-order bound on the linearized acceptance factor.

    Checks |s2 - s2_hat| <= c1 e^{(M/T)|z|} z^2 over random single-coordinate
    moves from x in [-3, 3]^d at each displacement scale, with M the declared
    bound slope_bound(x)_i of the move and c1 fitted as 1.5x the empirical max
    of |g|/z^2 (g the first-order Taylor remainder) over a separate pair
    sample.
    """
    n_pairs = _integer("s_bound_check n_pairs", n_pairs, 1)
    scales = np.asarray(scale_grid, dtype=float)
    if not (scales.size and np.all((scales > 0.0) & (scales < np.inf))):
        raise ConfigurationError("s_bound_check needs positive finite scales")
    rng = path_stream(master_seed, DOMAIN_SBOUND, 0)

    def draw_moves(scale):
        x = rng.uniform(-3.0, 3.0, size=(n_pairs, target.d_star))
        i = rng.integers(0, target.d_star, size=n_pairs)
        z = scale * np.where(rng.random(n_pairs) < 0.5, -1.0, 1.0)
        gi = np.asarray(target.grad(x))[np.arange(n_pairs), i]
        theta = np.broadcast_to(target.slope_bound(x), x.shape)[np.arange(n_pairs), i] / target.T
        return target.delta_u_move(x, i, z), gi, z, theta

    # fit c1 from the Taylor remainder at the largest probed scale
    du, gi, z, _ = draw_moves(float(scales.max()))
    g = taylor_gap(du, gi, z, target.T)
    c1 = 1.5 * float(np.max(np.abs(g) / (z * z)))

    max_ratio = np.empty(scales.size)
    violations = 0
    for a, scale in enumerate(scales):
        du, gi, z, theta = draw_moves(scale)
        gap = np.abs(np.exp(log_s_m2(du, target.T)) - np.exp(log_s_hat_m2(gi, z, target.T)))
        bound = np.exp(theta * np.abs(z)) * z * z
        ratio = gap / bound
        max_ratio[a] = float(np.max(ratio))
        violations += int(np.sum(~(ratio <= c1)))  # a NaN ratio or c1 is a violation
    return SBoundReport(scales=scales, max_ratio=max_ratio, c1=c1, n_violations=violations)


# C^2 compactly supported test functions: products of per-coordinate factors


def _unit(v, r):
    """v / r clipped to [-1, 1], as np.clip gives it (NaN and -0.0 included),
    without the cost of np.clip's Python wrapper."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float) / r, -1.0), 1.0)


def _bump(v, r):
    s = _unit(v, r)
    return (1.0 - s * s) ** 3


def _dbump(v, r):
    s = _unit(v, r)
    return -6.0 * s * (1.0 - s * s) ** 2 / r


def _d2bump(v, r):
    s = _unit(v, r)
    return (-6.0 * (1.0 - s * s) ** 2 + 24.0 * s * s * (1.0 - s * s)) / (r * r)


@dataclass(frozen=True)
class ProductTestFunction:
    """f(x) = prod_j h_j(x_j) with per-factor first and second derivatives."""

    name: str
    factors: tuple  # tuple of (h, dh, d2h) triples, one per coordinate

    def _product(self, x, i, order):
        """The order-th derivative of factor i times every other factor, in
        coordinate order; order 0 is f itself, starting from 1.0."""
        x = np.asarray(x, dtype=float)
        out = 1.0 if order == 0 else self.factors[i][order](x[..., i])
        for j, (h, _, _) in enumerate(self.factors):
            if order == 0 or j != i:
                out = out * h(x[..., j])
        return out

    def value(self, x):
        return self._product(x, 0, 0)

    def partial(self, x, i):
        return self._product(x, i, 1)

    def second_partial(self, x, i):
        return self._product(x, i, 2)


def bump_library(d_star):
    """Three C^2 bump-localized polynomials on radius-3 bumps: bump, x_1 bump,
    x_1^2 bump."""
    r = 3.0
    plain = (lambda v: _bump(v, r), lambda v: _dbump(v, r), lambda v: _d2bump(v, r))
    linear = (
        lambda v: v * _bump(v, r),
        lambda v: _bump(v, r) + v * _dbump(v, r),
        lambda v: 2.0 * _dbump(v, r) + v * _d2bump(v, r),
    )
    square = (
        lambda v: v * v * _bump(v, r),
        lambda v: 2.0 * v * _bump(v, r) + v * v * _dbump(v, r),
        lambda v: 2.0 * _bump(v, r) + 4.0 * v * _dbump(v, r) + v * v * _d2bump(v, r),
    )
    rest = tuple(plain for _ in range(d_star - 1))
    return (
        ProductTestFunction("bump", (plain,) + rest),
        ProductTestFunction("linear_bump", (linear,) + rest),
        ProductTestFunction("square_bump", (square,) + rest),
    )


def apply_limit_generator(target, tf, x):
    """G f(x) = (1/d*) sum_i [-dU_i f_i / (2T) + f_ii / 2]."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(target.grad(x))
    out = 0.0
    for i in range(target.d_star):
        out += -g[..., i] * tf.partial(x, i) / (2.0 * target.T) + 0.5 * tf.second_partial(x, i)
    return out / target.d_star


def generator_probe_value(kind, target, proposal, tf, x):
    """(1/eps) M f(x): direct quadrature of (f(y) - f(x)) times the rate.

    Unlike _moment, it drops the quadrature's error estimate rather than
    check it against QUAD_TOL: the estimate sits far below the gap
    |(1/eps) M f - G f| that the probe measures, but not always below 1e-10.
    For square_bump at eps 1e-4, on verify-limit's default grid, the scaled
    estimate reaches 2.26e-10 beside a gap of 1.6e-2 (m2 on the quadratic at
    x = 2.2); 99 of 1620 probe quadratures over the built-in targets at d* 1
    and 3 exceed 1e-10. The check would refuse a valid run.
    """
    eps = proposal.epsilon
    root = math.sqrt(eps)
    x = np.asarray(x, dtype=float)
    fx = float(tf.value(x))
    total = 0.0
    for i in range(target.d_star):
        def gain(u):
            y = x.copy()
            y[i] += root * u
            return float(tf.value(y)) - fx

        val, _ = _quad_line(_NodeFactor(kind, target, eps, x, i), gain)
        total += val
    return total / (eps * target.d_star)


@dataclass(frozen=True, eq=False)
class ProbeReport:
    kind_label: str
    function_name: str
    epsilon_grid: np.ndarray
    sup_gaps: np.ndarray
    slope: float


def generator_convergence_probe(kind, target, tf, x_grid, epsilon_grid):
    """Sup over x_grid of |(1/eps) M f - G f| per epsilon, with slope fit."""
    eps_grid = np.asarray(epsilon_grid, dtype=float)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    sup_gaps = np.empty(eps_grid.size)
    for a, eps in enumerate(eps_grid):
        proposal = GaussianProposal(eps)
        gaps = [
            abs(generator_probe_value(kind, target, proposal, tf, x) - float(apply_limit_generator(target, tf, x)))
            for x in x_grid
        ]
        sup_gaps[a] = max(gaps)
    return ProbeReport(
        kind_label=kind.label(),
        function_name=tf.name,
        epsilon_grid=eps_grid,
        sup_gaps=sup_gaps,
        slope=fit_loglog_slope(eps_grid, sup_gaps),
    )


# ensemble comparison


def ks_statistic(a, b):
    """Two-sample KS distance sup |F_a - F_b|, rounded once from its exact value.

    n m (F_a - F_b) is an integer everywhere, so the distance is the float
    nearest k / (n m) for the largest such gap k. For n, m <= 10000 this is
    bit-for-bit scipy's ks_2samp statistic, which rounds to the same
    1/lcm(n, m) lattice. NaN in either sample gives NaN, as in ks_2samp.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ConfigurationError(f"KS distance needs two non-empty samples, got sizes {n} and {m}")
    if np.isnan(a[-1]) or np.isnan(b[-1]):
        return math.nan
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, side="right") * m - np.searchsorted(b, both, side="right") * n
    k = int(np.max(np.abs(gaps)))
    g = math.gcd(n, m)
    return k // g / (n // g * m)


def ks_threshold(n, coeff=1.36):
    """Classical two-sample critical value c sqrt(2/n) for two samples of n,
    95% by default."""
    return coeff * math.sqrt(2.0 / n)


def ks_null_sd(n):
    """Null sampling sd of the two-sample statistic for two samples of n: the
    Kolmogorov law has sd ~0.26, and D = K / sqrt(n/2)."""
    return 0.26 * math.sqrt(2.0 / n)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    obs_grid: np.ndarray
    n_paths: int
    ks: np.ndarray  # (n_obs, d)

    @property
    def max_ks(self):
        return float(np.max(self.ks))


def compare_ensembles(ens, ref):
    """Two-sample KS distance per obs time and coordinate between ensembles of
    equal size on one observation grid."""
    if ens.obs_grid.shape != ref.obs_grid.shape or not np.allclose(ens.obs_grid, ref.obs_grid):
        raise ConfigurationError("ensembles must share the observation grid")
    if ens.d_star != ref.d_star:
        raise ConfigurationError("ensembles must share d_star")
    if ens.n_paths != ref.n_paths:
        raise ConfigurationError("ensembles must hold the same number of paths")
    ks = np.empty((ens.obs_grid.size, ens.d_star))
    for k, j in np.ndindex(ks.shape):
        ks[k, j] = ks_statistic(ens.samples[:, k, j], ref.samples[:, k, j])
    return ConvergenceReport(obs_grid=ens.obs_grid, n_paths=ens.n_paths, ks=ks)


# goodness-of-fit statistics


def stationarity_chisquare(samples, target, n_bins=50):
    """Chi-square of 1-d samples against the Gibbs law on n_bins bins of equal
    Gibbs mass: (statistic, p-value, counts)."""
    return _equal_mass_chisquare(samples, n_bins, lambda probs: gibbs_quantiles_1d(target, probs))


def kernel_displacement_cdf(kind, target, proposal, x, i=0, n=200001):
    """Dense-grid cdf of the normalized displacement law M(x, x + z e_i)."""
    hw = _U_RANGE * math.sqrt(proposal.epsilon)
    z = np.linspace(-hw, hw, n)
    x = np.asarray(x, dtype=float)
    du = target.delta_u_move(x, i, z)
    w = np.exp(log_s_mix(du, target.T, kind.alpha_eff) + proposal.logpdf(z))
    dz = z[1] - z[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dz)])
    return z, cdf / cdf[-1]


def displacement_chisquare(displacements, kind, target, proposal, x, i=0,
                           n_bins=200, binning="equal_prob"):
    """Chi-square of sampled displacements against the quadrature kernel law,
    on n_bins bins of equal kernel mass read off kernel_displacement_cdf
    ("equal_prob", the only binning): (statistic, p-value, n_bins)."""
    if binning != "equal_prob":
        raise ConfigurationError(f"unknown binning {binning!r}")

    def quantiles(probs):
        grid, cdf = kernel_displacement_cdf(kind, target, proposal, x, i)
        return np.interp(probs, cdf, grid)

    chi2, p, _ = _equal_mass_chisquare(displacements, n_bins, quantiles)
    return chi2, p, n_bins


def _equal_mass_chisquare(samples, n_bins, quantiles):
    """Pearson statistic of the samples' counts in the n_bins bins cut at
    quantiles(k / n_bins), k = 1 .. n_bins - 1, against their mean count, with
    its chi-square tail on n_bins - 1 degrees of freedom: the same bits as
    scipy.stats.chisquare(counts)."""
    n_bins = _integer("n_bins", n_bins, 2)
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ConfigurationError("chi-square needs at least one sample")
    edges = quantiles(np.arange(1, n_bins) / n_bins)
    counts = np.bincount(np.searchsorted(edges, samples), minlength=n_bins)
    expected = np.mean(counts)
    chi2 = float(np.sum((counts.astype(float) - expected) ** 2 / expected))
    return chi2, float(chdtrc(n_bins - 1, chi2)), counts
