"""Potentials, acceptance factors, and the 1-d Gibbs quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from mhjump import (
    BoxedQuadratic,
    ConfigurationError,
    GaussianProposal,
    GeneratorKind,
    LogCoshWell,
    SmoothedDoubleWell,
    make_potential,
    simulate_path,
)
from mhjump.targets import (
    TargetPotential,
    delta_u_line,
    gibbs_quantiles_1d,
    gibbs_table_1d,
    log_s_hat_m2,
    log_s_m1,
    log_s_m2,
    log_s_mix,
    potential_names,
    taylor_gap,
)


def all_targets(d_star=2):
    return [
        BoxedQuadratic(d_star=d_star),
        LogCoshWell(d_star=d_star, c=0.4),
        SmoothedDoubleWell(d_star=d_star),
    ]


def gradient_gap(target, x):
    """Oracle: max abs gap between grad and scale-aware central differences."""
    x = np.asarray(x, dtype=float)
    g = target.grad(x)
    worst = 0.0
    for i in range(target.d_star):
        h = 1e-6 * (1.0 + abs(float(x[..., i])))
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        fd = (target.u(xp) - target.u(xm)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - g[..., i]))))
    return worst


def well_minima(t):
    """Oracle: the double well's two symmetric minima (-m, m), solved from du1 = 0."""
    m = brentq(lambda v: float(t.du1(v)), 0.5 * t.a, t.a + 4.0 * t.sigma)
    return (-m, m)


coords = st.floats(-8.0, 8.0)
dus = st.floats(-50.0, 50.0)
temps = st.floats(0.25, 4.0)
alphas = st.floats(0.0, 1.0)
moves = st.floats(-2.0, 2.0)


# --- potential values and gradients ---


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
@pytest.mark.parametrize("point", [(-2.3, 0.4), (0.0, 0.0), (1.49, -1.49), (7.0, -6.2)])
def test_gradient_matches_finite_differences(target, point):
    x = np.array(point)
    assert gradient_gap(target, x) < 1e-6


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
@given(x0=coords, x1=coords, z=moves, i=st.integers(0, 1))
def test_delta_u_move_is_exact_difference(target, x0, x1, z, i):
    x = np.array([x0, x1])
    y = x.copy()
    y[i] += z
    du = target.delta_u_move(x, i, z)
    ref = target.u(y) - target.u(x)
    assert abs(du - ref) <= 1e-11 * (1.0 + abs(ref))


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
@given(xi=coords, z=moves)
def test_separable_fast_path_matches_generic(target, xi, z):
    # the row-wise separable dU is what the simulator calls in bulk; it must
    # agree with the generic two-evaluation move
    x = np.array([xi, 0.3])
    assert np.isclose(
        float(target.delta_u_move(x[None, :], np.array([0]), np.array([z]))[0]),
        float(TargetPotential.delta_u_move(target, x, 0, z)),
        rtol=1e-12,
        atol=1e-12,
    )


def test_delta_u_move_broadcasts_over_rows(coupled):
    # block of states with one coordinate per row, and one state with many moves
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, size=(7, 2))
    i = rng.integers(0, 2, size=7)
    z = rng.normal(0.0, 0.5, size=7)
    for target in all_targets() + [coupled]:
        rows = target.delta_u_move(x, i, z)
        assert rows.shape == (7,)
        assert np.array_equal(rows, [target.delta_u_move(x[r], int(i[r]), z[r]) for r in range(7)])
        fan = target.delta_u_move(x[0], 1, z)
        assert np.array_equal(fan, [target.delta_u_move(x[0], 1, zz) for zz in z])
        picked = target.delta_u_move(x[0], i, z)
        assert np.array_equal(picked, [target.delta_u_move(x[0], int(i[r]), z[r]) for r in range(7)])


def test_delta_u_line_keeps_the_delta_u_move_bits(coupled):
    # a separable line evaluates u1 once per move plus once for the start;
    # the generic class and an override of delta_u_move are called as is
    class Flat(SmoothedDoubleWell):
        def delta_u_move(self, x, i, z):
            return 0.0 * z

    x, z = np.array([0.4, -1.1]), np.linspace(-0.5, 0.5, 9)
    for target in all_targets() + [coupled, Flat(d_star=2)]:
        line = delta_u_line(target, x, 1)
        assert np.array_equal([line(zz) for zz in z], [target.delta_u_move(x, 1, zz) for zz in z])
    target = make_potential("doublewell", d_star=2)
    calls, u1 = [], target.u1
    target.u1 = lambda v: calls.append(1) or u1(v)
    line = delta_u_line(target, x, 1)
    for zz in z:
        line(zz)
    assert len(calls) == z.size + 1


def test_quadratic_declares_only_its_slope_bound():
    t = BoxedQuadratic(d_star=1)
    assert t.grad_bound is None
    v = np.linspace(-1e3, 1e3, 4001)
    assert np.array_equal(np.abs(t.du1(v)), t.slope_bound(v))


class _Flat(TargetPotential):
    name = "flat"


class _FlatWithSlope(TargetPotential):
    name = "flat"

    def slope_bound(self, x):
        return np.zeros_like(x)


def test_a_target_declares_exactly_one_bound():
    assert _Flat(1, 1.0, grad_bound=0.0).grad_bound == 0.0
    assert _FlatWithSlope(1, 1.0).grad_bound is None
    with pytest.raises(ConfigurationError, match="exactly one"):
        _Flat(1, 1.0)
    with pytest.raises(ConfigurationError, match="exactly one"):
        _FlatWithSlope(1, 1.0, grad_bound=1.0)


def test_logcosh_grad_bound_is_global():
    t = LogCoshWell(d_star=1, c=-0.7)
    assert t.grad_bound == 1.7
    v = np.linspace(-40.0, 40.0, 20001)
    g = np.abs(t.du1(v))
    # tanh saturates to 1.0 in float64, so the sup attains the bound exactly
    assert np.max(g) <= t.grad_bound
    assert np.max(g) > t.grad_bound - 0.01


def test_doublewell_shape():
    t = SmoothedDoubleWell(d_star=1)
    lo, hi = well_minima(t)
    assert lo == -hi
    assert 1.4 < hi < 1.6
    assert abs(float(t.du1(hi))) < 1e-10
    barrier = float(t.u1(0.0) - t.u1(hi))
    assert 0.4 < barrier < 0.6
    v = np.linspace(-30.0, 30.0, 60000)  # even count keeps v = 0 off the grid
    sup = np.max(np.abs(t.du1(v)))
    assert sup < t.grad_bound  # declared 2.5 versus true ~2.306
    assert sup > 2.2
    # exactly three zeros of u1': the two minima and the interior maximum
    du = np.asarray(t.du1(v))
    crossings = int(np.sum(du[:-1] * du[1:] < 0.0))
    assert crossings == 3


def test_in_box():
    # no potential declares a domain box: any finite start state runs
    t = BoxedQuadratic(d_star=2)
    prop = GaussianProposal(0.01)
    simulate_path(GeneratorKind.m1(), t, prop, np.array([2.9, -2.9]), 1e-3, 0)
    simulate_path(GeneratorKind.m1(), t, prop, np.array([1e6, -1e6]), 1e-3, 0)
    simulate_path(GeneratorKind.m2(), t, prop, np.array([30.0, -3.1]), 1e-3, 0)
    with pytest.raises(ConfigurationError, match="finite"):
        simulate_path(GeneratorKind.m1(), t, prop, np.array([np.inf, 0.0]), 1e-3, 0)
    free = LogCoshWell(d_star=2)
    assert not hasattr(free, "box") and not hasattr(t, "box")
    simulate_path(GeneratorKind.m1(), free, prop, np.array([1e6, -1e6]), 1e-3, 0)


def test_make_potential_registry():
    assert potential_names() == ["doublewell", "logcosh", "quadratic"]
    t = make_potential("logcosh", d_star=3, T=0.5, c=1.0)
    assert isinstance(t, LogCoshWell) and t.d_star == 3 and t.T == 0.5
    with pytest.raises(ConfigurationError):
        make_potential("gaussian")
    with pytest.raises(ConfigurationError):
        make_potential("quadratic", nonsense=1.0)
    with pytest.raises(ConfigurationError):
        make_potential("quadratic", box=-1.0)
    with pytest.raises(ConfigurationError):
        make_potential("doublewell", sigma=0.0)


def test_target_parameter_validation():
    with pytest.raises(ConfigurationError):
        BoxedQuadratic(d_star=0)
    with pytest.raises(ConfigurationError):
        BoxedQuadratic(T=-1.0)
    with pytest.raises(ConfigurationError):
        LogCoshWell(d_star=2.5)


def test_proposal_validation_and_logpdf():
    with pytest.raises(ConfigurationError):
        GaussianProposal(0.0)
    with pytest.raises(ConfigurationError):
        GaussianProposal(float("inf"))
    prop = GaussianProposal(0.04)
    assert prop.sigma == 0.2
    z = np.array([-0.3, 0.0, 0.5])
    assert np.allclose(prop.logpdf(z), norm.logpdf(z, scale=0.2), rtol=1e-12)


# --- acceptance factors ---


@given(du=dus, T=temps)
def test_s_factor_ranges_and_product_identity(du, T):
    l1 = float(log_s_m1(du, T))
    l2 = float(log_s_m2(du, T))
    assert l1 <= 0.0
    assert l2 >= 0.0
    # s1 * s2 = exp(-du/T) for every move; both are 1 on level sets
    assert abs((l1 + l2) - (-du / T)) < 1e-12 * (1.0 + abs(du / T))
    if du == 0.0:
        assert l1 == 0.0 and l2 == 0.0


@given(du=dus, T=temps, alpha=alphas)
def test_mix_factor_between_endpoints(du, T, alpha):
    lm = float(log_s_mix(du, T, alpha))
    l1 = float(log_s_m1(du, T))
    l2 = float(log_s_m2(du, T))
    assert l1 - 1e-12 <= lm <= l2 + 1e-12
    assert float(log_s_mix(du, T, 1.0)) == l1
    assert float(log_s_mix(du, T, 0.0)) == l2


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
@pytest.mark.parametrize("alpha", [1.0, 0.0, 0.5, 0.25])
@given(x0=coords, x1=coords, z=moves, i=st.integers(0, 1))
def test_detailed_balance_of_acceptance_factors(target, alpha, x0, x1, z, i):
    # mu(x) s(x->y) = mu(y) s(y->x) in log form, for every mixing weight
    x = np.array([x0, x1])
    y = x.copy()
    y[i] += z
    du = float(target.delta_u_move(x, i, z))
    lhs = -float(target.u(x)) / target.T + float(log_s_mix(du, target.T, alpha))
    rhs = -float(target.u(y)) / target.T + float(log_s_mix(-du, target.T, alpha))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@given(du=st.floats(-5.0, 5.0), gi=st.floats(-2.5, 2.5), z=moves, T=temps)
def test_linearized_factor_gap_bounded_by_taylor_remainder(du, gi, z, T):
    # positive part is 1-Lipschitz, so |log s2 - log s2_hat| <= |g|
    gap = abs(float(log_s_m2(du, T)) - float(log_s_hat_m2(gi, z, T)))
    assert gap <= abs(float(taylor_gap(du, gi, z, T))) + 1e-12


@given(xi=coords, z=moves)
def test_taylor_gap_exact_for_quadratic(xi, z):
    # u1 = v^2/2 makes the remainder exactly -z^2 / (2T)
    t = BoxedQuadratic(d_star=1, T=2.0)
    du = float(t.delta_u_move(np.array([xi]), 0, z))
    g = float(taylor_gap(du, xi, z, t.T))
    assert abs(g - (-z * z / (2.0 * t.T))) < 1e-12


# --- Gibbs quadrature oracle ---


@pytest.mark.parametrize(
    "target",
    [BoxedQuadratic(d_star=1), SmoothedDoubleWell(d_star=1), LogCoshWell(d_star=1, T=0.5)],
    ids=lambda t: t.name,
)
def test_gibbs_table_is_a_distribution(target):
    grid, dens, cdf = gibbs_table_1d(target)
    assert cdf[0] == 0.0
    assert abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= 0.0)
    assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-8
    # symmetric potentials put the median at the origin
    q = gibbs_quantiles_1d(target, [0.5])
    assert abs(float(q[0])) < 1e-4


def test_gibbs_quantiles_invert_cdf():
    target = SmoothedDoubleWell(d_star=1)
    grid, _, cdf = gibbs_table_1d(target)
    probs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    qs = gibbs_quantiles_1d(target, probs)
    back = np.interp(qs, grid, cdf)
    assert np.max(np.abs(back - probs)) < 1e-6


def test_gibbs_quadratic_matches_normal():
    # exp(-x^2/2T) is N(0, T); quantiles must match the normal ppf
    target = BoxedQuadratic(d_star=1, T=0.7)
    probs = np.array([0.1, 0.3, 0.5, 0.9])
    qs = gibbs_quantiles_1d(target, probs)
    assert np.max(np.abs(qs - norm.ppf(probs, scale=math.sqrt(0.7)))) < 1e-5


def test_gibbs_table_rejects_multidim():
    with pytest.raises(ConfigurationError):
        gibbs_table_1d(BoxedQuadratic(d_star=2))
