"""Quadrature oracles, slope fits, goodness-of-fit, ensemble comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from mhjump import (
    BoxedQuadratic,
    ConfigurationError,
    GaussianProposal,
    GeneratorKind,
    LogCoshWell,
    QuadratureError,
    SmoothedDoubleWell,
    compare_ensembles,
    first_jump_displacements,
    folded_normal_moment,
    generator_moment,
    make_potential,
    moment_report,
    s_bound_check,
    simulate_langevin,
    stationarity_chisquare,
)
from mhjump.targets import gibbs_quantiles_1d, log_s_mix
from mhjump.verify import (
    _NodeFactor,
    _quad_line,
    apply_limit_generator,
    bump_library,
    default_x_grid,
    displacement_chisquare,
    fit_loglog_slope,
    gaussian_abs_moment,
    generator_convergence_probe,
    generator_probe_value,
    kernel_displacement_cdf,
    ks_null_sd,
    ks_statistic,
    ks_threshold,
    moment_limits,
)


def kernel_total_rate(kind, target, proposal, x):
    """Oracle: int M(x, y) dy by per-coordinate quadrature."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(target.d_star):
        val, _ = _quad_line(_NodeFactor(kind, target, proposal.epsilon, x, i), lambda u: 1.0)
        total += val
    return total / target.d_star


def test_fit_loglog_slope_recovers_exponent():
    x = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    assert abs(fit_loglog_slope(x, 3.7 * x ** 0.5) - 0.5) < 1e-12
    assert abs(fit_loglog_slope(x, 0.2 * x ** 2.0) - 2.0) < 1e-12
    for degenerate in ([0.1], [0.1, 0.1]):
        with pytest.raises(ConfigurationError, match="two distinct"):
            fit_loglog_slope(degenerate, [1.0] * len(degenerate))


def test_default_x_grid_layout():
    g1 = default_x_grid(1)
    assert g1.shape == (5, 1)
    g3 = default_x_grid(3)
    assert g3.shape == (5, 3)
    assert np.array_equal(g3[:, 0], g1[:, 0])
    assert np.all(g3[:, 1] == g3[0, 1])  # off coordinates held fixed


# --- kernel moments ---


def trapezoid_moment(kind, target, prop, x, i, k):
    # dual route: dense trapezoid in the raw displacement variable
    from mhjump.targets import log_s_mix

    eps = prop.epsilon
    z = np.linspace(-12.0 * math.sqrt(eps), 12.0 * math.sqrt(eps), 400001)
    du = target.delta_u_move(np.asarray(x, dtype=float), i, z)
    w = np.exp(log_s_mix(du, target.T, kind.alpha_eff) + prop.logpdf(z))
    return np.trapezoid(z ** k * w, z) / (eps * target.d_star)


@pytest.mark.parametrize("kind", [GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)],
                         ids=lambda k: k.label())
@pytest.mark.parametrize("k", [1, 2, 3])
def test_generator_moment_against_trapezoid(kind, k):
    target = SmoothedDoubleWell(d_star=2)
    prop = GaussianProposal(1e-2)
    x = np.array([0.7, -0.4])
    a = generator_moment(kind, target, prop, x, i=0, k=k)
    b = trapezoid_moment(kind, target, prop, x, 0, k)
    assert np.isclose(a, b, rtol=1e-7, atol=1e-12)


def test_generator_moment_validation():
    target = BoxedQuadratic(d_star=1)
    with pytest.raises(ConfigurationError):
        generator_moment(GeneratorKind.m1(), target, GaussianProposal(1e-2), [0.5], k=4)
    with pytest.raises(QuadratureError):
        generator_moment(GeneratorKind.m1(), target, GaussianProposal(1e-2), [0.5], k=1,
                         tol=0.0)


def test_a_nan_tolerance_is_never_met():
    # the tolerance checks are written so that a NaN on either side fails them
    with pytest.raises(QuadratureError):
        generator_moment(GeneratorKind.m1(), BoxedQuadratic(d_star=1), GaussianProposal(1e-2),
                         [0.5], k=1, tol=math.nan)
    with pytest.raises(QuadratureError):
        folded_normal_moment(1.0, 3, 1e-5, tol=math.nan)


@pytest.mark.parametrize("kind", [GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)],
                         ids=lambda k: k.label())
@pytest.mark.parametrize("target", [BoxedQuadratic(d_star=1), SmoothedDoubleWell(d_star=3)],
                         ids=lambda t: t.name)
def test_moment_report_shares_nodes_across_orders(monkeypatch, kind, target):
    # one acceptance factor per distinct node: k = 1, 2, 3 at one (eps, x)
    # cost at most half of what three separate generator_moment calls cost
    import mhjump.verify as verify

    calls = []

    def counting(du, T, alpha):
        calls.append(1)
        return log_s_mix(du, T, alpha)

    monkeypatch.setattr(verify, "log_s_mix", counting)
    x = default_x_grid(target.d_star)[1]
    eps_grid = [1e-2, 5e-3]
    rep = moment_report(kind, target, eps_grid, x_grid=[x])
    shared = len(calls)
    calls.clear()
    for a, eps in enumerate(eps_grid):
        for k in (1, 2, 3):
            assert generator_moment(kind, target, GaussianProposal(eps), x, 0, k) == rep.values[k][a, 0]
    assert 0 < shared <= len(calls) / 2


def test_oracles_use_an_overridden_delta_u_move():
    # a class that overrides only delta_u_move keeps its dU in the oracles:
    # a quadratic that borrows the log-cosh dU has the log-cosh moments and rate
    well = LogCoshWell(d_star=1, c=0.4)

    class Borrowed(BoxedQuadratic):
        def delta_u_move(self, x, i, z):
            return well.delta_u_move(x, i, z)

    target, x_grid, prop = Borrowed(d_star=1), [[-0.9], [1.5]], GaussianProposal(1e-2)
    for kind in (GeneratorKind.m1(), GeneratorKind.m2()):
        rep = moment_report(kind, target, [1e-2, 1e-3], x_grid=x_grid)
        ref = moment_report(kind, well, [1e-2, 1e-3], x_grid=x_grid)
        for k in (1, 2, 3):
            assert np.array_equal(rep.values[k], ref.values[k])
        assert kernel_total_rate(kind, target, prop, np.array([1.5])) == \
            kernel_total_rate(kind, well, prop, np.array([1.5]))


def test_moment_limits_formulas():
    target = SmoothedDoubleWell(d_star=3, T=0.5)
    x = np.array([0.7, 0.1, -0.3])
    lim = moment_limits(target, x, i=0)
    g0 = float(target.grad(x)[0])
    assert np.isclose(lim[1], -g0 / (2.0 * 0.5 * 3))
    assert lim[2] == 1.0 / 3.0
    assert lim[3] == 0.0


def test_moment_report_slopes_quick():
    target = BoxedQuadratic(d_star=1)
    rep = moment_report(GeneratorKind.m1(), target, [1e-1, 1e-2, 1e-3])
    assert 0.3 <= rep.slopes[1] <= 0.7
    assert 0.3 <= rep.slopes[2] <= 0.7
    assert rep.slopes[3] >= 0.3
    assert rep.sup_errors[1].shape == (3,)
    assert np.all(np.diff(rep.sup_errors[1]) < 0.0)  # errors shrink with eps


def test_equal_weight_mixture_moment_error_decays_faster():
    # at alpha = 1/2 the acceptance sum is smooth in the move, the sqrt(eps)
    # term cancels, and the error decays at least linearly
    target = BoxedQuadratic(d_star=1)
    rep = moment_report(GeneratorKind.mix(0.5), target, [1e-1, 1e-2, 1e-3])
    assert rep.slopes[1] >= 0.8
    assert rep.slopes[2] >= 0.8


@pytest.mark.parametrize("name, d_star", [("quadratic", 1), ("doublewell", 1)])
def test_mixture_moment_window_of_verify_limit(name, d_star):
    # verify-limit's mix(0.5) window on its default eps grid; mix(0.45) keeps
    # part of the |dU| kink, so its k=1 slope falls outside the window
    from mhjump.cli import _MIX_SLOPE_WINDOW, ExperimentConfig

    lo, hi = _MIX_SLOPE_WINDOW
    target = make_potential(name, d_star=d_star, T=1.0)
    eps_grid = ExperimentConfig().moment_epsilon_grid
    rep = moment_report(GeneratorKind.mix(0.5), target, eps_grid)
    assert lo <= rep.slopes[1] <= hi
    assert lo <= rep.slopes[2] <= hi
    assert rep.slopes[3] >= lo
    off = moment_report(GeneratorKind.mix(0.45), target, eps_grid)
    assert not lo <= off.slopes[1] <= hi


# --- folded moments ---


def test_folded_moment_closed_forms_at_zero_tilt():
    for k in range(5):
        for eps in (1e-1, 1e-3):
            got = folded_normal_moment(0.0, k, eps)
            want = gaussian_abs_moment(k, eps)
            assert np.isclose(got, want, rtol=1e-11)
    assert np.isclose(gaussian_abs_moment(3, 0.01), 2.0 * math.sqrt(2.0 / math.pi) * 0.01 ** 1.5)
    assert np.isclose(gaussian_abs_moment(4, 0.01), 3.0 * 0.01 ** 2)
    with pytest.raises(ConfigurationError):
        gaussian_abs_moment(5, 0.01)
    with pytest.raises(ConfigurationError):
        folded_normal_moment(0.0, 5, 0.01)
    with pytest.raises(ConfigurationError, match="out of range"):  # e^{t sqrt(eps) u} overflows
        folded_normal_moment(1e9, 3, 1e-5)
    with pytest.raises(ConfigurationError, match="out of range"):  # [0, 14 + t sqrt(eps)] is empty
        folded_normal_moment(-1e4, 3, 1e-5)
    assert folded_normal_moment(-1.0, 3, 1e-5) > 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_folded_moment_refuses_a_non_finite_t(t):
    with pytest.raises(ConfigurationError, match="out of range"):
        folded_normal_moment(t, 3, 1e-5)


def test_folded_moment_orders_small_scale():
    eps = np.array([1e-5, 1e-6, 1e-7, 1e-8])
    vals3 = [folded_normal_moment(1.0, 3, e) for e in eps]
    vals4 = [folded_normal_moment(1.0, 4, e) for e in eps]
    assert abs(fit_loglog_slope(eps, vals3) - 1.5) < 0.05
    assert abs(fit_loglog_slope(eps, vals4) - 2.0) < 0.05
    # the tilt only inflates the moment
    assert folded_normal_moment(5.0, 3, 1e-2) > folded_normal_moment(0.0, 3, 1e-2)


# --- linearization bound ---


@pytest.mark.parametrize(
    "target",
    [BoxedQuadratic(d_star=1), LogCoshWell(d_star=2, c=0.4), SmoothedDoubleWell(d_star=3)],
    ids=lambda t: t.name,
)
def test_s_bound_holds(target):
    rep = s_bound_check(target, n_pairs=3000, master_seed=1)
    assert rep.stable
    assert rep.n_violations == 0
    assert rep.c1 > 0.0
    assert np.all(rep.max_ratio <= rep.c1)
    assert rep.scales.shape == rep.max_ratio.shape


@pytest.mark.parametrize("kw", [
    {"scale_grid": [0.0]},
    {"scale_grid": [1e-2, -1e-3]},
    {"scale_grid": [math.nan]},
    {"scale_grid": [math.inf]},
    {"scale_grid": []},
    {"n_pairs": 0},
])
def test_s_bound_rejects_a_degenerate_sample(kw):
    # a zero scale divided 0 by 0 and passed with c1 = nan
    with pytest.raises(ConfigurationError, match="s_bound_check"):
        s_bound_check(LogCoshWell(d_star=1), **{"n_pairs": 100, **kw})


class _NaNBeyondTwo(BoxedQuadratic):
    """The quadratic, with U NaN beyond |x| = 2."""

    def u1(self, v):
        return np.where(np.abs(v) > 2.0, np.nan, super().u1(v))


def test_s_bound_check_counts_a_nan_ratio_as_a_violation():
    # moves from [-3, 3] meet the NaN, and a NaN never compares above c1
    rep = s_bound_check(_NaNBeyondTwo(d_star=1), n_pairs=200, master_seed=1)
    assert not rep.stable
    assert rep.n_violations > 0


@pytest.mark.parametrize("n_pairs", [2.5, True, "4", None])
def test_s_bound_check_refuses_a_non_integer_n_pairs(n_pairs):
    # these reached numpy's sampler or a comparison and raised a TypeError
    with pytest.raises(ConfigurationError, match="n_pairs must be an integer >= 1"):
        s_bound_check(LogCoshWell(d_star=1), n_pairs=n_pairs)


# --- bump test functions and the generator probe ---


@pytest.mark.parametrize("name", ["bump", "linear_bump", "square_bump"])
@given(x0=st.floats(-4.0, 4.0), x1=st.floats(-4.0, 4.0))
def test_bump_derivatives_match_finite_differences(name, x0, x1):
    tf = {f.name: f for f in bump_library(2)}[name]
    x = np.array([x0, x1])
    h = 1e-5
    for i in (0, 1):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd1 = (tf.value(xp) - tf.value(xm)) / (2.0 * h)
        fd2 = (tf.value(xp) - 2.0 * tf.value(x) + tf.value(xm)) / (h * h)
        assert abs(fd1 - tf.partial(x, i)) < 1e-7
        assert abs(fd2 - tf.second_partial(x, i)) < 1e-4


def test_bumps_have_compact_support():
    for tf in bump_library(1):  # bumps of radius 3
        for v in (3.0, 3.5, -4.0):
            x = np.array([v])
            assert tf.value(x) == 0.0
            assert tf.partial(x, 0) == 0.0
            assert tf.second_partial(x, 0) == 0.0


def test_limit_generator_formula():
    target = BoxedQuadratic(d_star=1, T=2.0)
    tf = bump_library(1)[2]  # x^2 bump
    x = np.array([0.5])
    want = -0.5 * tf.partial(x, 0) / (2.0 * 2.0) + 0.5 * tf.second_partial(x, 0)
    assert np.isclose(apply_limit_generator(target, tf, x), want, rtol=1e-14)


def test_probe_approaches_limit_generator():
    target = SmoothedDoubleWell(d_star=1)
    tf = bump_library(1)[1]
    kind = GeneratorKind.m2()
    x = np.array([0.8])
    g = float(apply_limit_generator(target, tf, x))
    gap_coarse = abs(generator_probe_value(kind, target, GaussianProposal(1e-2), tf, x) - g)
    gap_fine = abs(generator_probe_value(kind, target, GaussianProposal(1e-5), tf, x) - g)
    assert gap_fine < gap_coarse / 10.0
    assert gap_fine < 5e-3


def test_probe_slope_quick():
    target = BoxedQuadratic(d_star=1)
    tf = bump_library(1)[0]
    probe = generator_convergence_probe(
        GeneratorKind.m1(), target, tf, default_x_grid(1), [1e-1, 1e-2, 1e-3]
    )
    assert 0.3 <= probe.slope <= 0.7
    assert probe.sup_gaps.shape == (3,)


def test_kernel_total_rate_bounds():
    target = SmoothedDoubleWell(d_star=2)
    prop = GaussianProposal(0.04)
    x = np.array([0.7, -1.2])
    r1 = kernel_total_rate(GeneratorKind.m1(), target, prop, x)
    r2 = kernel_total_rate(GeneratorKind.m2(), target, prop, x)
    rm = kernel_total_rate(GeneratorKind.mix(0.5), target, prop, x)
    lam = math.exp(0.5 * 0.04 * 2.5 ** 2) * 2.0 * stats.norm.cdf(2.5 * 0.2)
    assert r1 <= 1.0 + 1e-12
    assert 1.0 - 1e-12 <= r2 <= lam + 1e-12
    assert np.isclose(rm, 0.5 * (r1 + r2), rtol=1e-10)


# --- KS helpers and ensemble comparison ---


def test_ks_helpers():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=500), rng.normal(size=500)
    assert np.isclose(ks_statistic(a, b), stats.ks_2samp(a, b).statistic, rtol=1e-14)
    assert np.isclose(ks_threshold(10_000), 1.36 * math.sqrt(2.0 / 10_000))
    assert ks_null_sd(10_000) < ks_threshold(10_000)


# scipy's exact mode (n, m <= 10000) rounds the distance to the 1/lcm(n, m) lattice
@pytest.mark.parametrize("n, m", [(500, 500), (7, 13), (1000, 1500), (9999, 10000), (10000, 10000),
                                  (1, 1), (3, 10000)])
@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "ties"])
def test_ks_statistic_keeps_the_ks_2samp_bits(n, m, ties):
    rng = np.random.default_rng(n + 7 * m)
    for shift in (0.0, 0.05, 0.5):
        a, b = rng.normal(size=n), rng.normal(shift, 1.2, size=m)
        if ties:
            a, b = np.round(a, 1), np.round(b, 1)
        assert ks_statistic(a, b) == stats.ks_2samp(a, b).statistic
        assert ks_statistic(b, a) == stats.ks_2samp(b, a).statistic


def test_ks_statistic_is_exact_beyond_scipys_exact_mode():
    rng = np.random.default_rng(12)
    n = 12_000
    a, b = rng.normal(size=n), rng.normal(0.02, 1.0, size=n)
    both = np.concatenate([a, b])
    gaps = (np.searchsorted(np.sort(a), both, side="right")
            - np.searchsorted(np.sort(b), both, side="right"))
    k = int(np.max(np.abs(gaps)))
    assert ks_statistic(a, b) == float(Fraction(k, n))
    assert np.isclose(ks_statistic(a, b), stats.ks_2samp(a, b).statistic, rtol=1e-14)


def test_ks_statistic_rejects_an_empty_sample_and_propagates_nan():
    for a, b in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(ConfigurationError):
            ks_statistic(a, b)
    assert math.isnan(ks_statistic([0.3, math.nan], [0.5, 1.0]))


def test_compare_ensembles_contract():
    target = BoxedQuadratic(d_star=2)
    a = simulate_langevin(target, np.array([1.0, 0.0]), [0.5, 1.0], 400, 1e-2, 5)
    same = compare_ensembles(a, a)
    assert same.max_ks == 0.0
    assert same.ks.shape == (2, 2)
    b = simulate_langevin(target, np.array([1.0, 0.0]), [0.5, 1.0], 400, 1e-2, 6)
    rep = compare_ensembles(a, b)
    # max over 4 marginals, so allow a wider-than-single-test band
    assert rep.max_ks < ks_threshold(400, coeff=1.6)
    c = simulate_langevin(target, np.array([1.0, 0.0]), [0.25, 1.0], 400, 1e-2, 6)
    with pytest.raises(ConfigurationError):
        compare_ensembles(a, c)
    d = simulate_langevin(target, np.array([1.0, 0.0]), [0.5, 1.0], 300, 1e-2, 6)
    with pytest.raises(ConfigurationError):
        compare_ensembles(a, d)
    one = simulate_langevin(BoxedQuadratic(d_star=1), np.array([1.0]), [0.5, 1.0], 400, 1e-2, 6)
    with pytest.raises(ConfigurationError, match="ensembles must share d_star"):
        compare_ensembles(a, one)


# --- goodness of fit ---


def test_stationarity_chisquare_accepts_gibbs_samples():
    target = SmoothedDoubleWell(d_star=1)
    u = np.random.default_rng(8).random(100_000)
    samples = gibbs_quantiles_1d(target, u)  # exact inverse-cdf draws
    chi2, p, counts = stationarity_chisquare(samples, target, n_bins=50)
    assert p > 0.001
    assert counts.sum() == samples.size


def test_stationarity_chisquare_rejects_wrong_law():
    target = SmoothedDoubleWell(d_star=1)
    bad = np.random.default_rng(8).normal(0.0, 1.0, size=100_000)
    _, p, _ = stationarity_chisquare(bad, target, n_bins=50)
    assert p < 1e-6


def test_displacement_cdf_is_monotone():
    target = SmoothedDoubleWell(d_star=1)
    grid, cdf = kernel_displacement_cdf(
        GeneratorKind.m2(), target, GaussianProposal(1e-2), np.array([0.7])
    )
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= 0.0)


@pytest.mark.parametrize("kind", [GeneratorKind.m1(), GeneratorKind.m2(), GeneratorKind.mix(0.5)],
                         ids=lambda k: k.label())
def test_displacement_cdf_matches_per_point_loop(kind):
    # reference: one scalar dU per grid point, as the cdf was first written
    target = SmoothedDoubleWell(d_star=2)
    prop = GaussianProposal(1e-2)
    x = np.array([0.7, -0.2])
    grid, cdf = kernel_displacement_cdf(kind, target, prop, x, i=1, n=2001)
    du = np.array([target.delta_u_move(x, 1, zz) for zz in grid])
    w = np.exp(log_s_mix(du, target.T, kind.alpha_eff) + prop.logpdf(grid))
    ref = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * (grid[1] - grid[0]))])
    assert np.array_equal(cdf, ref / ref[-1])


def test_displacement_chisquare_accepts_kernel_draws():
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(1e-2)
    kind = GeneratorKind.m2()
    z, _ = first_jump_displacements(kind, target, prop, np.array([0.7]), 100_000, 4)
    chi2, p, n_bins = displacement_chisquare(z, kind, target, prop, np.array([0.7]),
                                             binning="equal_prob")
    assert p > 0.001
    assert n_bins > 50


def test_displacement_chisquare_rejects_untilted_draws():
    # plain proposal draws are visibly not the accelerated kernel at a steep x
    target = SmoothedDoubleWell(d_star=1)
    prop = GaussianProposal(1e-2)
    z = np.random.default_rng(3).normal(0.0, 0.1, size=100_000)
    _, p, _ = displacement_chisquare(z, GeneratorKind.m2(), target, prop, np.array([0.7]))
    assert p < 1e-4


def test_chisquare_keeps_the_scipy_bits():
    # the statistic and p-value are scipy.stats.chisquare(counts) bit for bit,
    # also for a sample count that n_bins does not divide
    rng = np.random.default_rng(21)
    target = SmoothedDoubleWell(d_star=1)
    for _ in range(50):
        samples = rng.normal(0.0, rng.uniform(0.8, 1.5), size=int(rng.integers(1, 5000)))
        chi2, p, counts = stationarity_chisquare(samples, target, n_bins=int(rng.integers(2, 300)))
        ref = stats.chisquare(counts)
        assert (chi2, p) == (ref.statistic, ref.pvalue)
    kind, prop, x = GeneratorKind.m2(), GaussianProposal(1e-2), np.array([0.7])
    grid, cdf = kernel_displacement_cdf(kind, target, prop, x)
    edges = np.interp(np.arange(1, 77) / 77, cdf, grid)
    z, _ = first_jump_displacements(kind, target, prop, x, 33333, 4)
    counts = np.bincount(np.searchsorted(edges, z), minlength=77)
    ref = stats.chisquare(counts)
    chi2, p, n_bins = displacement_chisquare(z, kind, target, prop, x, n_bins=77)
    assert (chi2, p, n_bins) == (ref.statistic, ref.pvalue, 77)


@pytest.mark.parametrize("n_bins", [1, 0, -3, 2.5])
def test_chisquare_needs_two_bins(n_bins):
    target = SmoothedDoubleWell(d_star=1)
    samples = np.random.default_rng(8).normal(size=1000)
    with pytest.raises(ConfigurationError):
        stationarity_chisquare(samples, target, n_bins=n_bins)
    with pytest.raises(ConfigurationError):
        displacement_chisquare(0.1 * samples, GeneratorKind.m2(), target, GaussianProposal(1e-2),
                               np.array([0.7]), n_bins=n_bins, binning="equal_prob")


def test_chisquare_rejects_an_empty_sample():
    target = SmoothedDoubleWell(d_star=1)
    with pytest.raises(ConfigurationError):
        stationarity_chisquare([], target, n_bins=10)
    with pytest.raises(ConfigurationError):
        displacement_chisquare([], GeneratorKind.m2(), target, GaussianProposal(1e-2), np.array([0.7]))


def test_displacement_chisquare_bad_binning():
    # equal_prob is the only binning
    target = SmoothedDoubleWell(d_star=1)
    for binning in ("fancy", "equal_width"):
        with pytest.raises(ConfigurationError, match="binning"):
            displacement_chisquare(np.zeros(10), GeneratorKind.m2(), target,
                                   GaussianProposal(1e-2), np.array([0.7]), binning=binning)
