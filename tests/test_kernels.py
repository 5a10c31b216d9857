"""Generator kinds, the tilted dominating kernel, and the thinning algebra.

The engine's one kernel record is jump._Kernel: the kernel every state shares
(jump._event_params(...).kernel), or a state-dependent one per row (jump._at).
Both take their mass Lam from kernels.row_kernel, checked here against
quadrature. A kernel draws |z| with kernels.sample_abs; its density is checked
against the oracle kernel_log_density below.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from mhjump import (
    BoxedQuadratic,
    ConfigurationError,
    DominationError,
    GaussianProposal,
    GeneratorKind,
    LogCoshWell,
    SmoothedDoubleWell,
)
from mhjump.jump import _at, _event_params, path_stream
from mhjump.kernels import (
    _ACCEPT_SLACK,
    accept_log_from_delta,
    check_domination,
    log_rate_density,
    row_kernel,
    sample_abs,
)

KINDS = [GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5), GeneratorKind.mix(0.25)]


def lam(eps, theta):
    """The engine's dominating mass Lam(eps, theta) = E e^{theta|Z|}."""
    return row_kernel(eps, theta)[2]


def kernel_log_density(theta, prop, z):
    """Oracle: log of the normalized kernel e^{theta|z|} phi_eps(z) / Lam(eps)."""
    return theta * np.abs(z) + prop.logpdf(z) - math.log(lam(prop.epsilon, theta))


def tilted(target, prop):
    """The event parameters of a tilted kind at no particular state."""
    return _event_params(GeneratorKind.m2(), target, prop)


def draw_abs(p, u, mask=True):
    return sample_abs(u, p.sigma, p.mean_abs, p.trunc_lo, mask)


# --- kind parsing ---


def test_kind_constructors_and_labels():
    assert GeneratorKind.m1().alpha_eff == 1.0
    assert GeneratorKind.m2().alpha_eff == 0.0
    assert GeneratorKind.mix(0.3).alpha_eff == 0.3
    assert GeneratorKind.m1().label() == "m1"
    assert GeneratorKind.mix(0.25).label() == "mix(0.25)"


def test_kind_from_string():
    assert GeneratorKind.from_string("m1") == GeneratorKind.m1()
    assert GeneratorKind.from_string(" M2 ") == GeneratorKind.m2()
    assert GeneratorKind.from_string("mix:0.75") == GeneratorKind.mix(0.75)
    assert GeneratorKind.from_string("mix", alpha=0.1) == GeneratorKind.mix(0.1)


def test_kind_validation():
    with pytest.raises(ConfigurationError):
        GeneratorKind("m3")
    with pytest.raises(ConfigurationError):
        GeneratorKind.mix(1.5)
    with pytest.raises(ConfigurationError):
        GeneratorKind("m1", alpha=0.5)
    with pytest.raises(ConfigurationError):
        GeneratorKind.from_string("mix")
    with pytest.raises(ConfigurationError):
        GeneratorKind("mix")


# --- dominating mass Lam(eps) ---


@pytest.mark.parametrize("eps,theta", [(1e-1, 2.5), (1e-2, 10.0), (1e-3, 1.0), (0.25, 0.3)])
def test_log_lam_matches_quadrature(eps, theta):
    dens = lambda z: math.exp(theta * abs(z)) * math.exp(-0.5 * z * z / eps) / math.sqrt(
        2.0 * math.pi * eps
    )
    hw = eps * theta + 14.0 * math.sqrt(eps)
    val, _ = quad(dens, -hw, hw, points=[0.0], limit=400)
    assert np.isclose(math.log(val), math.log(lam(eps, theta)), rtol=1e-10, atol=1e-12)


def test_lam_properties():
    theta = 2.5
    lams = [lam(e, theta) for e in (1e-1, 1e-2, 1e-3, 1e-6, 1e-12)]
    assert all(l >= 1.0 for l in lams)
    assert all(a > b for a, b in zip(lams, lams[1:]))  # decreasing toward 1
    assert lams[-1] < 1.0 + 1e-5
    # theta = 0 is the proposal: mean 0, half the mass cut, mass exactly 1
    assert row_kernel(1e-2, 0.0) == (0.0, 0.5, 1.0)


def test_log_lam_overflow_guard():
    with pytest.raises(ConfigurationError):
        row_kernel(1.0, 50.0)  # eps theta^2 / 2 = 1250
    with pytest.raises(ConfigurationError):  # one overflowing row refuses the block
        row_kernel(1.0, np.array([1.0, 50.0, 2.0]))


# --- dominating kernel ---


def test_kernel_untilted_degrades_to_proposal():
    from scipy.special import ndtri

    prop = GaussianProposal(0.04)
    p = _event_params(GeneratorKind.m1(), SmoothedDoubleWell(d_star=1), prop).kernel
    assert p.tilt == 0.0
    assert p.rate_total == 1.0
    u = np.linspace(0.01, 0.99, 11)
    assert np.allclose(draw_abs(p, u), 0.2 * ndtri(0.5 + 0.5 * u), rtol=1e-12)
    # m1's one component is the plain proposal, so it draws with no branch
    # mask and gets the bits of the all-plain mask u_branch >= alpha/R = 1
    assert p.p_plain is None
    assert np.array_equal(draw_abs(p, u, None), draw_abs(p, u, np.zeros(u.size, dtype=bool)))
    z = np.array([-0.4, 0.0, 0.3])
    ref = -0.5 * z * z / 0.04 - 0.5 * math.log(2.0 * math.pi * 0.04)
    assert np.allclose(kernel_log_density(p.tilt, prop, z), ref, rtol=1e-12)


def test_kernel_tilted_mask_selects_the_component_per_row():
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(0.04)
    p = tilted(target, prop).kernel
    plain = _event_params(GeneratorKind.m1(), target, prop).kernel
    u = np.linspace(0.01, 0.99, 12)
    mask = np.arange(12) % 3 == 0
    out = draw_abs(p, u, mask)
    assert np.array_equal(out[mask], draw_abs(p, u[mask]))
    assert np.array_equal(out[~mask], draw_abs(plain, u[~mask]))
    assert np.array_equal(draw_abs(p, u, False), draw_abs(plain, u))


def test_kernel_density_normalizes_to_one():
    target = SmoothedDoubleWell(d_star=1)
    for eps in (1e-1, 1e-3):
        prop = GaussianProposal(eps)
        p = tilted(target, prop).kernel
        hw = p.mean_abs + 14.0 * math.sqrt(eps)
        val, _ = quad(lambda z: math.exp(float(kernel_log_density(p.tilt, prop, z))), -hw, hw,
                      points=[0.0], limit=400)
        assert abs(val - 1.0) < 1e-9


def test_kernel_structure():
    target = SmoothedDoubleWell(d_star=1, T=0.5)
    prop = GaussianProposal(0.01)
    params = tilted(target, prop)
    p = params.kernel
    assert p.tilt == 5.0  # grad_bound / T
    assert params.epsilon == 0.01
    assert p.sigma == 0.1
    assert p.mean_abs == 0.01 * 5.0
    assert p.rate_total == lam(0.01, 5.0)
    # an equal-weight two-sided mixture with components at -mean_abs, +mean_abs
    z = np.linspace(0.0, 0.5, 5001)
    dens = kernel_log_density(p.tilt, prop, z)
    assert np.array_equal(dens, kernel_log_density(p.tilt, prop, -z))
    assert np.isclose(z[np.argmax(dens)], p.mean_abs, atol=1e-4)


def test_kernel_sampler_matches_density():
    # inverse-cdf draws against the numerically integrated cdf of the density
    target = SmoothedDoubleWell(d_star=1)
    eps = 0.01
    prop = GaussianProposal(eps)
    p = tilted(target, prop).kernel
    rng = path_stream(42, 7, 0)
    n = 40000
    u_sign = rng.random(n)
    z = np.where(u_sign < 0.5, -1.0, 1.0) * draw_abs(p, rng.random(n))
    grid = np.linspace(-12.0 * math.sqrt(eps), 12.0 * math.sqrt(eps), 100001)
    dens = np.exp(kernel_log_density(p.tilt, prop, grid))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    stat = kstest(z, lambda v: np.interp(v, grid, cdf)).statistic
    assert stat < 1.36 / math.sqrt(n) * 1.5


# --- rate densities ---


def total_rate(kind, target, prop):
    """The candidate clock rate, the engine's uniform bound on the total jump rate."""
    return _event_params(kind, target, prop).kernel.rate_total


def log_accept(kind, target, theta, x, i, z):
    """The engine's log a(z): one dU, then the thinning formula."""
    return accept_log_from_delta(target.delta_u_move(x, i, z), np.abs(z), kind.alpha_eff,
                                 theta, target.T)


def test_total_rate_bound_values():
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(0.01)
    mass = lam(prop.epsilon, target.grad_bound / target.T)
    assert total_rate(GeneratorKind.m1(), target, prop) == 1.0
    assert np.isclose(total_rate(GeneratorKind.m2(), target, prop), mass, rtol=1e-14)
    mixed = total_rate(GeneratorKind.mix(0.25), target, prop)
    assert np.isclose(mixed, 0.25 + 0.75 * mass, rtol=1e-14)
    assert 1.0 <= mixed <= mass


@pytest.mark.parametrize(
    "target",
    [BoxedQuadratic(d_star=2), SmoothedDoubleWell(d_star=2, T=0.5)],
    ids=lambda t: t.name,
)
@given(x0=st.floats(-3.0, 3.0), x1=st.floats(-3.0, 3.0), z=st.floats(-1.0, 1.0),
       i=st.integers(0, 1))
def test_rate_density_ordering(target, x0, x1, z, i):
    # min/max structure: m1 <= proposal/d* <= m2, mix in between
    prop = GaussianProposal(0.04)
    x = np.array([x0, x1])
    y_i = x[i] + z
    mid = math.exp(float(prop.logpdf(z))) / target.d_star
    r1 = math.exp(float(log_rate_density(GeneratorKind.m1(), target, prop, x, i, y_i)))
    r2 = math.exp(float(log_rate_density(GeneratorKind.m2(), target, prop, x, i, y_i)))
    rm = math.exp(float(log_rate_density(GeneratorKind.mix(0.3), target, prop, x, i, y_i)))
    tol = 1e-12 * (1.0 + r2)
    assert r1 <= mid + tol
    assert mid <= r2 + tol
    assert r1 - tol <= rm <= r2 + tol


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_rate_density_detailed_balance(kind):
    # e^{-U(x)/T} M(x,y) = e^{-U(y)/T} M(y,x), checked in log space
    target = SmoothedDoubleWell(d_star=3, T=0.7)
    prop = GaussianProposal(0.02)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=3)
        i = int(rng.integers(0, 3))
        z = float(rng.normal(0.0, prop.sigma))
        y = x.copy()
        y[i] += z
        lhs = -float(target.u(x)) / target.T + float(
            log_rate_density(kind, target, prop, x, i, y[i])
        )
        rhs = -float(target.u(y)) / target.T + float(
            log_rate_density(kind, target, prop, y, i, x[i])
        )
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_rate_density_sum_identity():
    # s1 + s2 = 1 + e^{-du/T}, so the m1 and m2 rates add up in closed form
    target = SmoothedDoubleWell(d_star=2)
    prop = GaussianProposal(0.09)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        z = float(rng.normal(0.0, 0.3))
        y_i = x[0] + z
        du = float(target.delta_u_move(x, 0, z))
        r1 = math.exp(float(log_rate_density(GeneratorKind.m1(), target, prop, x, 0, y_i)))
        r2 = math.exp(float(log_rate_density(GeneratorKind.m2(), target, prop, x, 0, y_i)))
        ref = (1.0 + math.exp(-du / target.T)) * math.exp(float(prop.logpdf(z))) / 2.0
        assert np.isclose(r1 + r2, ref, rtol=1e-12)


# --- thinning acceptance ---


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
@pytest.mark.parametrize(
    "target",
    [BoxedQuadratic(d_star=2), LogCoshWell(d_star=2, c=0.4), SmoothedDoubleWell(d_star=2)],
    ids=lambda t: t.name,
)
def test_acceptance_is_a_probability_on_kernel_draws(kind, target):
    # the quadratic's tilt comes from each row's state, out to |x_i| = 9
    prop = GaussianProposal(0.04)
    rng = path_stream(3, 7, 1)
    lo = 3.0 if target.grad_bound is not None else 9.0
    x = rng.uniform(-lo, lo, size=(2000, 2))
    p = _at(tilted(target, prop), x)
    u_sign = rng.random(2000)
    z = np.where(u_sign < 0.5, -1.0, 1.0) * draw_abs(p, rng.random(2000))
    for i in (0, 1):
        la = log_accept(kind, target, p.tilt, x, i, z)
        check_domination(la, kind, target, lambda k: f"row {k}")
        assert np.all(la <= 0.0)
        assert np.any(la < 0.0)


@pytest.mark.parametrize("kind", [GeneratorKind.m2(), GeneratorKind.mix(0.5)],
                         ids=lambda k: k.label())
@given(x0=st.floats(-30.0, 30.0), x1=st.floats(-30.0, 30.0), z=st.floats(-5.0, 5.0),
       i=st.integers(0, 1), T=st.sampled_from([0.5, 1.0, 3.0]))
def test_quadratic_slope_bound_dominates_and_is_tight(kind, x0, x1, z, i, T):
    # the per-state tilt max_i |x_i| / T, inside the box of half-width 10 and
    # outside it: log a(z) <= 0 for every move, and sup_z log a(z) = 0,
    # approached as z -> 0 against the sign of the largest coordinate
    target = BoxedQuadratic(d_star=2, T=T)
    x = np.array([x0, x1])
    theta = float(np.max(target.slope_bound(x))) / T
    la = float(accept_log_from_delta(target.delta_u_move(x, i, z), abs(z), kind.alpha_eff,
                                     theta, T))
    assert la <= 1e-13 * (1.0 + x @ x) / T
    j = int(np.argmax(np.abs(x)))
    toward = -np.sign(x[j]) * np.array([1e-2, 1e-4, 1e-6, 1e-8])
    sup = np.max(accept_log_from_delta(target.delta_u_move(x, j, toward), np.abs(toward),
                                       kind.alpha_eff, theta, T))
    assert -1e-9 <= sup <= 1e-13 * (1.0 + x @ x) / T


def test_accepted_rate_equals_kind_rate():
    # R * q(z) * a(z) must reproduce [alpha s1 + (1-alpha) s2] phi(z) / d*
    target = SmoothedDoubleWell(d_star=1, T=0.5)
    prop = GaussianProposal(0.04)
    kind = GeneratorKind.mix(0.3)
    p = _event_params(kind, target, prop).kernel
    r_total = p.rate_total
    x = np.array([0.8])
    for z in (-0.5, -0.05, 0.02, 0.4):
        la = float(log_accept(kind, target, p.tilt, x, 0, z))
        q = 0.3 * math.exp(float(prop.logpdf(z))) + 0.7 * math.exp(
            float(kernel_log_density(p.tilt, prop, z)) + math.log(lam(prop.epsilon, p.tilt))
        )
        accepted = r_total * (q / r_total) * math.exp(la)
        want = math.exp(float(log_rate_density(kind, target, prop, x, 0, x[0] + z)))
        assert np.isclose(accepted, want, rtol=1e-12)


def test_domination_violation_is_a_hard_error():
    # declared bound 0.5 is far below the true slope ~2.3 near the well wall
    target = SmoothedDoubleWell(d_star=1, grad_bound=0.5)
    kind = GeneratorKind.m2()
    p = _event_params(kind, target, GaussianProposal(0.04)).kernel
    la = log_accept(kind, target, p.tilt, np.array([0.7]), 0, 0.5)
    with pytest.raises(DominationError, match="grad_bound"):
        check_domination(la, kind, target, lambda k: "x=0.7, i=0, z=0.5")


@pytest.mark.parametrize("kw", [
    {"epsilon": -0.1},  # GaussianProposal
    {"epsilon": 0.0},
    {"epsilon": math.inf},
    {"grad_bound": -1.0},  # TargetPotential: the tilt grad_bound / T
    {"grad_bound": math.nan},
    {"grad_bound": math.inf},
    {"T": 0.0},
    {"epsilon": 1.0, "grad_bound": 50.0},  # row_kernel: eps theta^2 / 2 = 1250 overflows
])
def test_kernel_rejects_bad_parameters(kw):
    kw = {"epsilon": 0.1, "grad_bound": 1.0, "T": 1.0, **kw}
    with pytest.raises(ConfigurationError):
        tilted(SmoothedDoubleWell(d_star=1, T=kw["T"], grad_bound=kw["grad_bound"]),
               GaussianProposal(kw["epsilon"]))


@given(eps=st.floats(1e-12, 10.0), theta=st.floats(0.0, 1e3))
def test_dominating_mass_is_at_least_one(eps, theta):
    # Lam = E e^{theta|Z|} >= 1 for theta >= 0, so no kernel is lighter than
    # the proposal; past the overflow guard there is no kernel at all
    try:
        assert lam(eps, theta) >= 1.0
    except ConfigurationError:
        assert 0.5 * eps * theta * theta > 700.0


def test_accept_log_reduces_at_endpoints():
    du = np.array([-0.3, 0.0, 0.2])
    abs_z = np.array([0.1, 0.2, 0.3])
    from mhjump.targets import log_s_m1, log_s_m2

    assert np.allclose(accept_log_from_delta(du, abs_z, 1.0, 2.0, 1.0), log_s_m1(du, 1.0))
    assert np.allclose(
        accept_log_from_delta(du, abs_z, 0.0, 2.0, 1.0), log_s_m2(du, 1.0) - 2.0 * abs_z
    )


@given(du=st.floats(allow_nan=False, allow_infinity=False),
       abs_z=st.floats(0.0, allow_infinity=False), theta=st.floats(0.0, 1e3),
       T=st.floats(0.0, allow_infinity=False, exclude_min=True))
def test_m1_log_acceptance_never_passes_the_slack(du, abs_z, theta, T):
    # m1's log a = -max(dU, 0)/T, whatever the tilt it is handed, so the
    # engines skip check_domination for m1; a tiny T may overflow it to -inf
    with np.errstate(over="ignore"):
        assert accept_log_from_delta(du, abs_z, 1.0, theta, T) <= _ACCEPT_SLACK
