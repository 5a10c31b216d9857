"""Finite-state min/max generators, the weighted L1 metric, half spaces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhjump import (
    ConfigurationError,
    FiniteChain,
    d_mu,
    half_space_masses,
    load_chain,
    make_m1,
    make_m2,
    mix,
    random_chain,
    random_reversible,
    save_chain,
)
from mhjump.finite import random_reversible_batch, reversibility_gap

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def chain_from_seed(seed, n=5):
    return random_chain(n, np.random.default_rng(seed))


# --- construction and validation ---


def test_a_refused_mu_sum_is_named_as_a_plain_number():
    with pytest.raises(ConfigurationError, match=r"mu must sum to 1 within 1e-12, got 1\.1$"):
        FiniteChain(n=2, rates=np.zeros((2, 2)), mu=[0.5, 0.6])


def test_chain_validation():
    good = FiniteChain(n=2, rates=[[0.0, 0.3], [0.2, 0.0]], mu=[0.4, 0.6])
    assert good.rates[0, 1] == 0.3
    with pytest.raises(ConfigurationError):
        FiniteChain(n=3, rates=np.zeros((2, 2)), mu=[0.5, 0.5])
    with pytest.raises(ConfigurationError, match=r"mu must have length 2, got \(3,\)"):
        FiniteChain(n=2, rates=np.zeros((2, 2)), mu=[0.2, 0.3, 0.5])
    with pytest.raises(ConfigurationError):
        FiniteChain(n=2, rates=[[0.0, -0.1], [0.2, 0.0]], mu=[0.5, 0.5])
    with pytest.raises(ConfigurationError):
        FiniteChain(n=2, rates=np.zeros((2, 2)), mu=[0.7, 0.4])
    with pytest.raises(ConfigurationError):
        FiniteChain(n=2, rates=np.zeros((2, 2)), mu=[1.0, 0.0])
    with pytest.raises(ConfigurationError):
        FiniteChain(n=2, rates=[[0.0, np.inf], [0.0, 0.0]], mu=[0.5, 0.5])
    for mu in ([np.nan, 1.0], [0.5, np.nan], [np.inf, 1.0]):  # a NaN compares false
        with pytest.raises(ConfigurationError, match="mu must"):
            FiniteChain(n=2, rates=np.zeros((2, 2)), mu=mu)


def test_chain_diagonal_is_cleared_and_frozen():
    chain = FiniteChain(n=2, rates=[[5.0, 0.3], [0.2, 7.0]], mu=[0.5, 0.5])
    assert chain.rates[0, 0] == 0.0 and chain.rates[1, 1] == 0.0
    with pytest.raises(ValueError):
        chain.rates[0, 1] = 1.0


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_random_chain_contract(seed, n):
    chain = random_chain(n, np.random.default_rng(seed))
    assert chain.rates.shape == (n, n)
    assert np.all(np.diag(chain.rates) == 0.0)
    assert chain.rates.sum(axis=1).max() <= 1.0 + 1e-12
    assert np.all(chain.mu > 0.0)
    assert abs(chain.mu.sum() - 1.0) < 1e-12


# --- min/max structure and reversibility ---


def test_minmax_structure_by_hand():
    # mu = (1/4, 3/4), q01 = 0.8, q10 = 0.2: reversed flux at (0,1) is 0.6
    chain = FiniteChain(n=2, rates=[[0.0, 0.8], [0.2, 0.0]], mu=[0.25, 0.75])
    m1 = make_m1(chain)
    m2 = make_m2(chain)
    assert np.isclose(m1[0, 1], 0.6)
    assert np.isclose(m1[1, 0], 0.2)
    assert np.isclose(m2[0, 1], 0.8)
    assert np.isclose(m2[1, 0], 0.8 * 0.25 / 0.75)
    assert np.isclose(d_mu(chain, chain.rates, m1), 0.05)
    assert np.isclose(d_mu(chain, chain.rates, m2), 0.05)
    under, over = half_space_masses(chain)
    assert np.isclose(under, 0.05) and np.isclose(over, 0.05)


def test_zero_rate_entries():
    # Q(0,1) = 0 with Q(1,0) > 0: min is 0, max carries the reversed flux
    chain = FiniteChain(n=3, rates=[[0, 0, 0.1], [0.3, 0, 0.2], [0.1, 0.4, 0]],
                        mu=[0.2, 0.3, 0.5])
    m1 = make_m1(chain)
    m2 = make_m2(chain)
    assert m1[0, 1] == 0.0
    assert np.isclose(m2[0, 1], 0.3 * 0.3 / 0.2)
    assert reversibility_gap(chain, m1) <= 1e-14
    assert reversibility_gap(chain, m2) <= 1e-14


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_minmax_reversible_and_ordered(seed, n):
    chain = random_chain(n, np.random.default_rng(seed))
    m1 = make_m1(chain)
    m2 = make_m2(chain)
    assert reversibility_gap(chain, m1) <= 1e-14
    assert reversibility_gap(chain, m2) <= 1e-14
    assert reversibility_gap(chain, mix(m1, m2, 0.5)) <= 1e-14
    assert np.all(m1 <= chain.rates + 1e-15)
    assert np.all(m2 + 1e-15 >= chain.rates)
    assert np.all(m1 <= m2 + 1e-15)


def test_mix_validation():
    chain = chain_from_seed(0)
    m1, m2 = make_m1(chain), make_m2(chain)
    with pytest.raises(ConfigurationError):
        mix(m1, m2, 1.2)
    with pytest.raises(ConfigurationError):
        mix(m1, m2, -0.1)
    assert np.allclose(mix(m1, m2, 1.0), m1)
    assert np.allclose(mix(m1, m2, 0.0), m2)


# --- the metric and the equality chain ---


def test_d_mu_is_a_metric_on_rate_matrices():
    chain = chain_from_seed(3)
    a, b = make_m1(chain), make_m2(chain)
    assert d_mu(chain, a, a) == 0.0
    assert np.isclose(d_mu(chain, a, b), d_mu(chain, b, a))
    c = mix(a, b, 0.5)
    assert d_mu(chain, a, b) <= d_mu(chain, a, c) + d_mu(chain, c, b) + 1e-15
    with pytest.raises(ConfigurationError):
        d_mu(chain, a, np.zeros((3, 3)))


def test_d_mu_on_a_stack_is_per_matrix():
    chain = chain_from_seed(4)
    comps = random_reversible_batch(chain, 6, np.random.default_rng(2))
    dists = d_mu(chain, comps, chain.rates)
    assert dists.shape == (6,)
    assert np.array_equal(dists, [d_mu(chain, c, chain.rates) for c in comps])
    with pytest.raises(ConfigurationError):
        d_mu(chain, comps[:, :3, :3], chain.rates)


@given(seed=st.integers(0, 50_000), n=st.integers(2, 8), alpha=st.floats(0.0, 1.0))
def test_mixture_distance_independent_of_alpha(seed, n, alpha):
    chain = random_chain(n, np.random.default_rng(seed))
    m1 = make_m1(chain)
    m2 = make_m2(chain)
    base = d_mu(chain, chain.rates, m1)
    assert abs(d_mu(chain, chain.rates, mix(m1, m2, alpha)) - base) <= 1e-12


@given(seed=st.integers(0, 50_000), n=st.integers(2, 8))
def test_half_space_masses_equal_the_distance(seed, n):
    chain = random_chain(n, np.random.default_rng(seed))
    base = d_mu(chain, chain.rates, make_m1(chain))
    under, over = half_space_masses(chain)
    assert abs(under - over) <= 1e-12
    assert abs(over - base) <= 1e-12


@given(seed=st.integers(0, 2_000))
def test_random_reversible_never_beats_the_minimum(seed):
    rng = np.random.default_rng(seed)
    chain = random_chain(5, rng)
    base = d_mu(chain, chain.rates, make_m1(chain))
    comps = random_reversible_batch(chain, 500, rng)
    assert np.all(np.abs(np.diagonal(comps, axis1=1, axis2=2)) == 0.0)
    dists = [d_mu(chain, chain.rates, r) for r in comps]
    assert min(dists) >= base - 1e-12
    single = random_reversible(chain, rng)
    assert reversibility_gap(chain, single) <= 1e-12


def test_local_perturbation_never_improves():
    # push mass delta along a reversible pair direction; the optimum holds
    rng = np.random.default_rng(9)
    delta = 1e-3
    for _ in range(20):
        chain = random_chain(5, rng)
        m1, m2 = make_m1(chain), make_m2(chain)
        base = d_mu(chain, chain.rates, m1)
        for alpha in ALPHAS:
            m = mix(m1, m2, alpha)
            for x in range(5):
                for y in range(x + 1, 5):
                    for sign in (1.0, -1.0):
                        pert = m.copy()
                        pert[x, y] += sign * delta
                        pert[y, x] += sign * delta * chain.mu[x] / chain.mu[y]
                        if pert[x, y] < 0.0 or pert[y, x] < 0.0:
                            continue  # a rate matrix must stay nonnegative
                        assert reversibility_gap(chain, pert) <= 1e-13
                        assert d_mu(chain, chain.rates, pert) >= base - 1e-12


# --- chain text format ---


def test_chain_round_trip(tmp_path):
    chain = chain_from_seed(17, n=6)
    path = tmp_path / "chain.txt"
    save_chain(chain, path)
    back = load_chain(path)
    assert back.n == chain.n
    assert np.array_equal(back.rates, chain.rates)
    assert np.array_equal(back.mu, chain.mu)
    # layout: first line n, then the mu row, then n rate rows
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "6"
    assert len(lines) == 2 + 6
    assert len(lines[1].split()) == 6


def test_load_chain_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ConfigurationError):
        load_chain(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.5 0.5\n0 1\n")
    with pytest.raises(ConfigurationError):
        load_chain(bad)  # 2 + 4 numbers needed, got 2 + 2
    junk = tmp_path / "junk.txt"
    junk.write_text("2\n0.5 x\n0 1\n1 0\n")
    with pytest.raises(ConfigurationError):
        load_chain(junk)


@pytest.mark.parametrize("text", ["-1\n", "-2\n0.5 0.5\n", "0\n"], ids=["n=-1", "n=-2", "n=0"])
def test_load_chain_refuses_a_state_count_below_one(tmp_path, text):
    # n + n*n numbers follow n, which -1 and -2 "satisfy" with 0 and 2 numbers
    path = tmp_path / "chain.txt"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="state count"):
        load_chain(path)


def test_load_chain_refuses_a_nan_in_mu(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("2\nnan 1.0\n0 0.3\n0.2 0\n")
    with pytest.raises(ConfigurationError, match="mu must be strictly positive"):
        load_chain(path)


def test_load_chain_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_bytes(b"2\n0.5 0.5\n0 1\n1 \xff0\n")
    with pytest.raises(ConfigurationError, match="ASCII"):
        load_chain(path)
