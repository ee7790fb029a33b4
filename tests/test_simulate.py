import math

import numpy as np
import pytest

from geocache import (
    CoverageDistribution,
    GeneralPolicy,
    ParameterError,
    PopularityDistribution,
    hit_probability_general,
    simulate_boolean_ppp,
    simulate_hits,
    zipf,
)
from geocache.simulate import poisson_gof_pvalue

from conftest import random_coverage, random_popularity

POP4 = PopularityDistribution(np.array([0.4, 0.3, 0.2, 0.1]))


def test_uncached_items_never_hit_under_deep_coverage():
    # every request sees 9 stations, far more than the catalog holds items
    dist = CoverageDistribution(pmf=np.array([0.0] * 9 + [1.0]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits(policy, POP4, dist, trials=20000, seed=5)
    assert abs(report.estimate - 0.4) <= 4.0 * report.stderr


def test_empty_coverage_never_hits():
    dist = CoverageDistribution(pmf=np.array([1.0]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits(policy, POP4, dist, trials=5000, seed=3)
    assert report.estimate == 0.0
    assert report.stderr == 0.0


def test_full_singleton_caching_always_hits():
    dist = CoverageDistribution(pmf=np.array([0.0, 0.6, 0.4]))
    policy = GeneralPolicy(tuple(frozenset({j}) for j in range(1, 5)))
    report = simulate_hits(policy, POP4, dist, trials=5000, seed=3)
    assert report.estimate == 1.0


def test_fixed_seed_reproducible():
    dist = CoverageDistribution(pmf=np.array([0.2, 0.5, 0.3]))
    policy = GeneralPolicy((frozenset({1, 2}), frozenset({3})))
    a = simulate_hits(policy, POP4, dist, trials=40000, seed=11)
    b = simulate_hits(policy, POP4, dist, trials=40000, seed=11)
    assert a == b
    c = simulate_hits(policy, POP4, dist, trials=40000, seed=12)
    assert c.estimate != a.estimate  # different stream actually sampled


def test_estimate_agrees_with_analytic_value(rng):
    for _ in range(5):
        pop = random_popularity(rng, 8)
        dist = random_coverage(rng)
        policy = GeneralPolicy((frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({1})))
        analytic = hit_probability_general(policy, pop, dist)
        report = simulate_hits(policy, pop, dist, trials=10**5, seed=int(rng.integers(1e6)))
        slack = max(4.0 * report.stderr, 1e-4)
        assert abs(report.estimate - analytic) <= slack


def test_stderr_formula():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits(policy, POP4, dist, trials=1000, seed=0)
    expected = math.sqrt(report.estimate * (1 - report.estimate) / 1000)
    assert report.stderr == pytest.approx(expected, rel=1e-12)


def test_simulate_rejects_bad_inputs():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    with pytest.raises(ParameterError):
        simulate_hits(policy, POP4, dist, trials=0)
    with pytest.raises(ParameterError):
        simulate_hits(policy, POP4, dist, trials=10, seed=-1)
    with pytest.raises(ParameterError):
        simulate_hits(GeneralPolicy((frozenset({9}),)), POP4, dist, trials=10)


# ---------------------------------------------------------------------------
# spatial Poisson process
# ---------------------------------------------------------------------------


def test_ppp_zero_radius_counts_nothing():
    emp = simulate_boolean_ppp(lam=1.0, radius=0.0, window_side=5.0, trials=2000, seed=1)
    assert emp.pmf[0] == 1.0


def test_ppp_window_precondition():
    with pytest.raises(ParameterError):
        simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=5.0, trials=10, seed=1)


def test_ppp_mean_matches_poisson():
    radius = 1.0 / math.sqrt(math.pi)  # lam * pi * r^2 = 1
    emp = simulate_boolean_ppp(
        lam=1.0, radius=radius, window_side=10.0 * radius, trials=10**5, seed=5
    )
    mean = math.fsum(k * p for k, p in enumerate(emp.pmf.tolist()))
    sigma = 1.0 / math.sqrt(10**5)  # Poisson(1) has unit variance
    assert abs(mean - 1.0) <= 4.0 * sigma


def test_ppp_reproducible():
    a = simulate_boolean_ppp(lam=1.0, radius=0.5, window_side=6.0, trials=20000, seed=9)
    b = simulate_boolean_ppp(lam=1.0, radius=0.5, window_side=6.0, trials=20000, seed=9)
    np.testing.assert_array_equal(a.pmf, b.pmf)


def test_ppp_chi_square_fit_single_run():
    mu = 2.0
    radius = math.sqrt(mu / math.pi)
    emp = simulate_boolean_ppp(
        lam=1.0, radius=radius, window_side=10.0 * radius, trials=20000, seed=42
    )
    assert poisson_gof_pvalue(emp, mu) > 0.01


def test_simulated_hits_match_both_evaluators_on_disjoint_policy():
    pop = zipf(10, 0.8)
    dist = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    from geocache import StructuredPolicy, hit_probability_structured

    structured = StructuredPolicy((1, 2, 3))
    analytic_s = hit_probability_structured(structured, pop, dist)
    analytic_g = hit_probability_general(structured.to_general(), pop, dist)
    assert analytic_s == analytic_g
    report = simulate_hits(structured, pop, dist, trials=10**5, seed=17)
    assert report == simulate_hits(structured.to_general(), pop, dist, trials=10**5, seed=17)
    assert abs(report.estimate - analytic_s) <= 4.0 * report.stderr
