import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geocache import (
    CoverageDistribution,
    GeneralPolicy,
    ParameterError,
    PopularityDistribution,
    StructuredPolicy,
    hit_probability_general,
    simulate,
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
    report = simulate_hits([policy], POP4, dist, trials=20000, seed=5)[0]
    assert abs(report.estimate - 0.4) <= 4.0 * report.stderr


def test_empty_coverage_never_hits():
    dist = CoverageDistribution(pmf=np.array([1.0]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits([policy], POP4, dist, trials=5000, seed=3)[0]
    assert report.estimate == 0.0
    assert report.stderr == 0.0


def test_full_singleton_caching_always_hits():
    dist = CoverageDistribution(pmf=np.array([0.0, 0.6, 0.4]))
    policy = GeneralPolicy(tuple(frozenset({j}) for j in range(1, 5)))
    report = simulate_hits([policy], POP4, dist, trials=5000, seed=3)[0]
    assert report.estimate == 1.0


def test_fixed_seed_reproducible():
    dist = CoverageDistribution(pmf=np.array([0.2, 0.5, 0.3]))
    policy = GeneralPolicy((frozenset({1, 2}), frozenset({3})))
    a = simulate_hits([policy], POP4, dist, trials=40000, seed=11)[0]
    b = simulate_hits([policy], POP4, dist, trials=40000, seed=11)[0]
    assert a == b
    c = simulate_hits([policy], POP4, dist, trials=40000, seed=12)[0]
    assert c.estimate != a.estimate  # different stream actually sampled


def test_estimate_agrees_with_analytic_value(rng):
    for _ in range(5):
        pop = random_popularity(rng, 8)
        dist = random_coverage(rng)
        policy = GeneralPolicy((frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({1})))
        analytic = hit_probability_general(policy, pop, dist)
        report = simulate_hits([policy], pop, dist, trials=10**5, seed=int(rng.integers(1e6)))[0]
        slack = max(4.0 * report.stderr, 1e-4)
        assert abs(report.estimate - analytic) <= slack


def test_stderr_formula():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits([policy], POP4, dist, trials=1000, seed=0)[0]
    expected = math.sqrt(report.estimate * (1 - report.estimate) / 1000)
    assert report.stderr == pytest.approx(expected, rel=1e-12)


def test_simulate_rejects_bad_inputs():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    with pytest.raises(ParameterError):
        simulate_hits([policy], POP4, dist, trials=0)
    with pytest.raises(ParameterError):
        simulate_hits([policy], POP4, dist, trials=10, seed=-1)
    with pytest.raises(ParameterError):
        simulate_hits([GeneralPolicy((frozenset({9}),))], POP4, dist, trials=10)


def test_policies_share_one_sample_and_keep_their_own_estimates():
    pop = zipf(10, 0.8)
    dist = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    policies = [
        StructuredPolicy((1, 2, 3)),
        GeneralPolicy((frozenset({1, 4}), frozenset({2, 3, 5}), frozenset({2}))),
        StructuredPolicy((0, 2, 2)),
    ]
    shared = simulate_hits(policies, pop, dist, 40000, 8)  # three trial blocks
    assert shared == [simulate_hits([p], pop, dist, 40000, 8)[0] for p in policies]
    assert len({r.estimate for r in shared}) == 3  # so the reversal below shows
    assert simulate_hits(policies[::-1], pop, dist, 40000, 8) == shared[::-1]


def test_no_policies_draw_no_sample(monkeypatch):
    def no_draw(seed, block_index):
        raise AssertionError("a trial block was drawn")

    monkeypatch.setattr(simulate, "_block_rng", no_draw)
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    assert simulate_hits([], POP4, dist, trials=1000, seed=1) == []


# ---------------------------------------------------------------------------
# spatial Poisson process
# ---------------------------------------------------------------------------


def test_ppp_zero_radius_counts_nothing():
    emp = simulate_boolean_ppp(lam=1.0, radius=0.0, window_side=5.0, trials=2000, seed=1)
    assert emp.pmf[0] == 1.0


def test_ppp_window_precondition():
    with pytest.raises(ParameterError):
        simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=5.0, trials=10, seed=1)


@pytest.mark.parametrize(
    "lam, radius, window_side, reason",
    [
        (1.0, math.nan, 5.0, "radius must be finite"),  # counted 0 in every trial
        (1.0, math.inf, math.inf, "radius must be finite"),
        (1.0, 1.0, math.inf, "window side must be finite"),  # numpy: lam value too large
        (1.0, 1.0, math.nan, "window side must be finite"),
        (1e300, 1.0, 1e10, "lam \\* window_side\\^2 must be finite"),
    ],
)
def test_ppp_rejects_sizes_that_are_not_finite(lam, radius, window_side, reason):
    with pytest.raises(ParameterError, match=reason):
        simulate_boolean_ppp(lam=lam, radius=radius, window_side=window_side, trials=10, seed=1)


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


# (counts of N = 0, 1, 2, ..., Poisson mean): short, long and badly fitting vectors
GOF_CASES = {
    "short": ([1505, 1005, 379, 96, 12, 3], 0.7),
    "nine-bins": ([700, 1355, 1346, 844, 490, 175, 60, 20, 10], 2.0),
    "long-tail": ([28, 113, 254, 351, 355, 333, 249, 156, 81, 47, 22, 8, 2, 1], 4.5),
    "poor-fit": ([480, 610, 470, 280, 100, 40, 12, 5, 3], 1.5),  # p ~ 3e-8
    "no-fit": ([400, 500, 450, 300, 200, 100, 30, 15, 5], 1.5),  # p ~ 3e-129
}


@pytest.mark.parametrize("counts, mu", GOF_CASES.values(), ids=GOF_CASES)
def test_gof_pvalue_matches_scipy_chisquare(counts, mu):
    from scipy import stats  # the reference; the library no longer loads it
    trials = sum(counts)
    emp = CoverageDistribution(
        pmf=np.array(counts) / trials, meta={"counts": counts, "trials": trials}
    )
    observed = np.zeros(9)
    observed[: min(8, len(counts))] = counts[:8]
    observed[8] = sum(counts[8:])
    expected = np.append(stats.poisson.pmf(np.arange(8), mu), stats.poisson.sf(7, mu)) * trials
    want = stats.chisquare(observed, expected).pvalue
    assert want > 0.0  # a p-value rounded to 0 would compare nothing
    assert poisson_gof_pvalue(emp, mu) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gof_pvalue_rejects_a_mean_that_is_not_positive_and_finite():
    emp = simulate_boolean_ppp(lam=1.0, radius=0.5, window_side=6.0, trials=1000, seed=2)
    for mu in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            poisson_gof_pvalue(emp, mu)


NO_SCIPY_STATS = """
import math, sys
from geocache.simulate import poisson_gof_pvalue, simulate_boolean_ppp
emp = simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=10.0, trials=2000, seed=3)
assert 0.0 <= poisson_gof_pvalue(emp, math.pi) <= 1.0
assert "scipy.stats" not in sys.modules, "poisson_gof_pvalue loaded scipy.stats"
"""


def test_gof_pvalue_does_not_load_scipy_stats():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_STATS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_simulated_hits_match_both_evaluators_on_disjoint_policy():
    pop = zipf(10, 0.8)
    dist = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    from geocache import hit_probability_structured

    structured = StructuredPolicy((1, 2, 3))
    general = GeneralPolicy((frozenset({1}), frozenset({2, 3}), frozenset({4, 5, 6})))
    analytic_s = hit_probability_structured(structured, pop, dist)
    analytic_g = hit_probability_general(general, pop, dist)
    assert analytic_s == analytic_g
    report = simulate_hits([structured], pop, dist, trials=10**5, seed=17)[0]
    assert report == simulate_hits([general], pop, dist, trials=10**5, seed=17)[0]
    assert abs(report.estimate - analytic_s) <= 4.0 * report.stderr
