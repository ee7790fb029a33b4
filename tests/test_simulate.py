import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    GeneralPolicy,
    ParameterError,
    PopularityDistribution,
    StructuredPolicy,
    boolean_coverage,
    hit_probability_general,
    simulate,
    simulate_boolean_ppp,
    simulate_hits,
    zipf,
)
from geocache.coverage import MAX_POISSON_MEAN
from geocache.policy import UNCACHED
from geocache.simulate import poisson_gof_pvalue
from geocache.solvers import BLOCK_SOLVERS

from conftest import random_coverage, random_popularity

POP4 = PopularityDistribution(np.array([0.4, 0.3, 0.2, 0.1]))


def test_uncached_items_never_hit_under_deep_coverage():
    # every request sees 9 stations, far more than the catalog holds items
    dist = CoverageDistribution(pmf=np.array([0.0] * 9 + [1.0]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits([policy], POP4, [dist], trials=20000, seed=5)[0]
    assert abs(report.estimate - 0.4) <= 4.0 * report.stderr


def test_empty_coverage_never_hits():
    dist = CoverageDistribution(pmf=np.array([1.0]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits([policy], POP4, [dist], trials=5000, seed=3)[0]
    assert report.estimate == 0.0
    assert report.stderr == 0.0


def test_full_singleton_caching_always_hits():
    dist = CoverageDistribution(pmf=np.array([0.0, 0.6, 0.4]))
    policy = GeneralPolicy(tuple(frozenset({j}) for j in range(1, 5)))
    report = simulate_hits([policy], POP4, [dist], trials=5000, seed=3)[0]
    assert report.estimate == 1.0


def test_fixed_seed_reproducible():
    dist = CoverageDistribution(pmf=np.array([0.2, 0.5, 0.3]))
    policy = GeneralPolicy((frozenset({1, 2}), frozenset({3})))
    a = simulate_hits([policy], POP4, [dist], trials=40000, seed=11)[0]
    b = simulate_hits([policy], POP4, [dist], trials=40000, seed=11)[0]
    assert a == b
    c = simulate_hits([policy], POP4, [dist], trials=40000, seed=12)[0]
    assert c.estimate != a.estimate  # different stream actually sampled


def test_estimate_agrees_with_analytic_value(rng):
    for _ in range(5):
        pop = random_popularity(rng, 8)
        dist = random_coverage(rng)
        policy = GeneralPolicy((frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({1})))
        analytic = hit_probability_general(policy, pop, dist)
        report = simulate_hits([policy], pop, [dist], trials=10**5, seed=int(rng.integers(1e6)))[0]
        slack = max(4.0 * report.stderr, 1e-4)
        assert abs(report.estimate - analytic) <= slack


def test_stderr_formula():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    report = simulate_hits([policy], POP4, [dist], trials=1000, seed=0)[0]
    expected = math.sqrt(report.estimate * (1 - report.estimate) / 1000)
    assert report.stderr == pytest.approx(expected, rel=1e-12)


def test_simulate_rejects_bad_inputs():
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    policy = GeneralPolicy((frozenset({1}),))
    with pytest.raises(ParameterError):
        simulate_hits([policy], POP4, [dist], trials=0)
    with pytest.raises(ParameterError):
        simulate_hits([policy], POP4, [dist], trials=10, seed=-1)
    with pytest.raises(ParameterError):
        simulate_hits([GeneralPolicy((frozenset({9}),))], POP4, [dist], trials=10)
    for policies, dists in (([policy], []), ([policy], [dist, dist]), ([], [dist])):
        with pytest.raises(ParameterError, match="coverage distributions"):
            simulate_hits(policies, POP4, dists, trials=10)


def test_policies_share_one_sample_and_keep_their_own_estimates():
    pop = zipf(10, 0.8)
    deep = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    shallow = CoverageDistribution(pmf=np.array([0.3, 0.5, 0.2]))
    structured = StructuredPolicy((1, 2, 3))
    cases = [  # (policy, dist): one policy on two coverages, two policies on one
        (structured, deep),
        (GeneralPolicy((frozenset({1, 4}), frozenset({2, 3, 5}), frozenset({2}))), shallow),
        (StructuredPolicy((0, 2, 2)), deep),
        (structured, shallow),
    ]
    policies, dists = map(list, zip(*cases))
    shared = simulate_hits(policies, pop, dists, 40000, 8)  # three trial blocks
    assert shared == [simulate_hits([p], pop, [d], 40000, 8)[0] for p, d in cases]
    assert len({r.estimate for r in shared}) == 4  # so the reorderings below show
    assert simulate_hits(policies[::-1], pop, dists[::-1], 40000, 8) == shared[::-1]
    order = [2, 0, 3, 1]
    reordered = simulate_hits([policies[i] for i in order], pop, [dists[i] for i in order], 40000, 8)
    assert reordered == [shared[i] for i in order]


def test_cases_with_equal_cut_vectors_each_keep_their_report():
    # equal cut vectors are scored once; every case still gets the count of its own
    pop = zipf(10, 0.8)
    deep = CoverageDistribution(pmf=np.array([0.1, 0.4, 0.3, 0.2]))
    shallow = CoverageDistribution(pmf=np.array([0.3, 0.5, 0.2]))
    coded = StructuredPolicy((1, 2, 3))
    same_cuts = GeneralPolicy((frozenset({1}), frozenset({2, 3}), frozenset({4, 5, 6})))
    cases = [(coded, deep), (StructuredPolicy((2, 2)), deep), (same_cuts, deep), (coded, shallow),
             (coded, deep)]
    policies, dists = map(list, zip(*cases))
    shared = simulate_hits(policies, pop, dists, 40000, 8)
    assert shared == [simulate_hits([p], pop, [d], 40000, 8)[0] for p, d in cases]
    assert shared[0] == shared[2] == shared[4] and len({r.estimate for r in shared}) == 3


def test_no_policies_draw_no_sample(monkeypatch):
    def no_draw(seed, block_index):
        raise AssertionError("a trial block was drawn")

    monkeypatch.setattr(simulate, "_block_rng", no_draw)
    assert simulate_hits([], POP4, [], trials=1000, seed=1) == []


# ---------------------------------------------------------------------------
# guide-table draws
# ---------------------------------------------------------------------------


def boolean_minus_12_db():
    return boolean_coverage(BooleanModelParams(lam=1.0, tau=10 ** (-12 / 10), beta=3.0))


def mostly_zero_pmf(size=200_000):
    p = np.zeros(size)
    p[:3] = [0.1, 0.2, 0.1]
    p[-3:] = [0.2, 0.3, 0.1]
    return p


DRAW_PMFS = {
    "zipf-2000": lambda: zipf(2000, 0.9).probs,
    "boolean-12dB": lambda: boolean_minus_12_db().pmf,
    "one-entry": lambda: np.array([1.0]),
    "zero-run": lambda: np.array([0.0, 0.2] + [0.0] * 9 + [0.8]),
    "mostly-zero": mostly_zero_pmf,
}


@pytest.mark.parametrize("make_pmf", DRAW_PMFS.values(), ids=DRAW_PMFS)
def test_draws_match_generator_choice(make_pmf):
    p = make_pmf()
    draw = simulate._inverse_cdf(p)
    for seed in (0, 1, 7, 2024):
        want = np.random.default_rng(seed).choice(p.size, size=16384, p=p)
        assert np.array_equal(draw(np.random.default_rng(seed).random(16384)), want), seed


# the cdf reaches 1.0 at index 1 by rounding, though the last entry has mass
CUT_PMFS = {**DRAW_PMFS, "rounded-tail": lambda: np.array([0.5, 0.5, 1e-20])}


@pytest.mark.parametrize("make_pmf", CUT_PMFS.values(), ids=CUT_PMFS)
def test_cut_test_equals_the_coverage_number_generator_choice_draws(make_pmf):
    p = make_pmf()
    r = np.append(np.arange(1, p.size + 1), UNCACHED)  # every r in 1..kmax+1, then UNCACHED
    cut = simulate._cuts(r, p)
    draws = min(4096, (1 << 24) // r.size)  # bounds the r-by-draw tables
    for seed in (0, 1, 7, 2024):
        n = np.random.default_rng(seed).choice(p.size, size=draws, p=p)
        u = np.random.default_rng(seed).random(draws)
        assert np.array_equal(cut[:, None] <= u, n >= r[:, None]), seed


def test_a_uniform_equal_to_its_cut_is_a_hit(monkeypatch):
    class Tied:  # every uniform is 0.5: the cut of r = 1 below, and POP4's item 2
        def random(self, count):
            return np.full(count, 0.5)

    monkeypatch.setattr(simulate, "_block_rng", lambda seed, block_index: Tied())
    pmf = np.array([0.5, 0.5])
    assert np.searchsorted(np.cumsum(pmf), 0.5, side="right") == 1  # choice's N at u = 0.5
    dist = CoverageDistribution(pmf=pmf)
    report = simulate_hits([GeneralPolicy((frozenset({2}),))], POP4, [dist], trials=100)[0]
    assert report.estimate == 1.0


def test_bisection_passes_are_bounded(monkeypatch):
    # uniforms just above the zero run's cdf level share one guide bracket
    # about 2e5 indices wide with their index at its far end; a search that
    # steps one index at a time would take that many passes
    p = mostly_zero_pmf()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = np.random.default_rng(3).random(16384)
    u[:64] = cdf[2] + np.arange(64) * 1e-12
    passes = []
    halve = simulate._halve

    def counted(*args):
        passes.append(1)
        return halve(*args)

    monkeypatch.setattr(simulate, "_halve", counted)
    index = simulate._inverse_cdf(p)(u)
    assert np.array_equal(index, np.searchsorted(cdf, u, side="right"))
    assert np.all(index[:64] == p.size - 3)
    assert 0 < len(passes) <= math.ceil(math.log2(p.size)) + 1


# the four block policies at J = 2000, L = 5, -12 dB, 1e5 trials, seed 5
PINNED_HITS = {
    "gdbnc": "0x1.da469d7342edcp-2",
    "ggb": "0x1.da469d7342edcp-2",
    "mp": "0x1.a2e09fe86833cp-3",
    "onc": "0x1.e1da7b0b39192p-2",
}


def test_block_policy_estimates_are_pinned():
    # a change to the draws (a bracket, the order of the two streams) moves these values
    pop = zipf(2000, 0.9)
    dist = boolean_minus_12_db()
    names = sorted(PINNED_HITS)
    policies = [BLOCK_SOLVERS[name](pop, dist, 5).policy for name in names]
    reports = simulate_hits(policies, pop, [dist] * len(policies), trials=10**5, seed=5)
    assert {name: r.estimate.hex() for name, r in zip(names, reports)} == PINNED_HITS


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


def test_ppp_refuses_a_square_mean_over_the_limit_before_any_draw(monkeypatch):
    def no_draw(seed, block_index):
        raise AssertionError("a trial block was drawn")

    monkeypatch.setattr(simulate, "_block_rng", no_draw)
    with pytest.raises(ParameterError, match="per trial is 4e\\+20"):
        simulate_boolean_ppp(lam=1e20, radius=1.0, window_side=10.0, trials=10, seed=1)
    side = 2.0 * 1.01 * math.sqrt(MAX_POISSON_MEAN)  # lam * (2r)^2 just over the limit
    with pytest.raises(ParameterError, match="above the limit"):
        simulate_boolean_ppp(lam=1.0, radius=side / 2, window_side=10.0 * side, trials=10, seed=1)


def test_ppp_huge_window_samples_only_the_square():
    # lam * window_side^2 = 1e12 stations, but each trial draws ~4
    emp = simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=1e6, trials=10, seed=1)
    assert sum(emp.meta["counts"]) == 10 and emp.meta["window_side"] == 1e6


def test_ppp_counts_do_not_depend_on_the_window():
    # restriction property: stations outside the disc's bounding square never count
    small = simulate_boolean_ppp(lam=1.0, radius=0.7, window_side=7.0, trials=40000, seed=4)
    large = simulate_boolean_ppp(lam=1.0, radius=0.7, window_side=7e3, trials=40000, seed=4)
    assert small.meta["counts"] == large.meta["counts"]


def test_ppp_mean_matches_poisson():
    radius = 1.0 / math.sqrt(math.pi)  # lam * pi * r^2 = 1
    emp = simulate_boolean_ppp(
        lam=1.0, radius=radius, window_side=10.0 * radius, trials=10**5, seed=5
    )
    mean = math.fsum(k * p for k, p in enumerate(emp.pmf.tolist()))
    sigma = 1.0 / math.sqrt(10**5)  # Poisson(1) has unit variance
    assert abs(mean - 1.0) <= 4.0 * sigma


@pytest.mark.parametrize("run_points", [1, 7, 1000])
def test_ppp_counts_do_not_depend_on_the_run_size(monkeypatch, run_points):
    # 3000 trials of ~4 points: at run size 1 every trial with a point is drawn alone
    expected = simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=10.0, trials=3000, seed=6)
    monkeypatch.setattr(simulate, "_PPP_RUN_POINTS", run_points)
    emp = simulate_boolean_ppp(lam=1.0, radius=1.0, window_side=10.0, trials=3000, seed=6)
    assert emp.meta["counts"] == expected.meta["counts"]


def _ppp_counts_by_bincount(lam, radius, trials, seed):
    """The per-trial coverage counts of ``simulate_boolean_ppp``, from the same draws,
    counted the earlier way: a trial index per point, and a bincount of the inside ones."""
    side = 2.0 * radius
    covered = []
    for block, count in simulate._trial_blocks(trials):
        rng = simulate._block_rng(seed, block)
        n_points = rng.poisson(lam * side * side, size=count)
        ends = np.cumsum(n_points)
        lo = 0
        while lo < count:
            start = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, start + simulate._PPP_RUN_POINTS, side="right")))
            d = (rng.random((int(ends[hi - 1]) - start, 2)) - 0.5) * side
            inside = (d * d).sum(axis=1) <= radius * radius
            trial_ids = np.repeat(np.arange(hi - lo), n_points[lo:hi])
            covered.append(np.bincount(trial_ids[inside], minlength=hi - lo))
            lo = hi
    return np.concatenate(covered)


PPP_ORACLE_CASES = {  # (lam, radius, trials, _PPP_RUN_POINTS)
    "catalog-mc": (1.0, 1.0, 200_000, None),
    "side-1.4": (1.0, 0.7, 50_000, None),
    "runs-of-1000-points": (3.0, 1.0, 40_000, 1000),
    "runs-of-one-trial": (2.0, 0.5, 5000, 1),
    "zero-radius": (1.0, 0.0, 1000, None),
    "mostly-empty-trials": (0.05, 1.0, 40_000, 7),
}


@pytest.mark.parametrize("lam, radius, trials, run_points", PPP_ORACLE_CASES.values(), ids=PPP_ORACLE_CASES)
def test_ppp_counts_match_the_bincount_oracle(monkeypatch, lam, radius, trials, run_points):
    if run_points is not None:
        monkeypatch.setattr(simulate, "_PPP_RUN_POINTS", run_points)
    counts = _ppp_counts_by_bincount(lam, radius, trials, 5)
    assert counts.size == trials
    emp = simulate_boolean_ppp(lam=lam, radius=radius, window_side=10.0, trials=trials, seed=5)
    assert emp.meta["counts"] == np.bincount(counts).tolist()
    assert emp.pmf.tobytes() == (np.bincount(counts) / trials).tobytes()


def test_ppp_memory_stays_bounded_at_a_large_radius():
    # 400 points per trial: one 16384-trial block holds 6.5e6 points, ~250 MB drawn at once
    tracemalloc.start()
    try:
        emp = simulate_boolean_ppp(lam=1.0, radius=10.0, window_side=100.0, trials=16384, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(emp.meta["counts"]) == 16384 and peak < 100e6, peak


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
    report = simulate_hits([structured], pop, [dist], trials=10**5, seed=17)[0]
    assert report == simulate_hits([general], pop, [dist], trials=10**5, seed=17)[0]
    assert abs(report.estimate - analytic_s) <= 4.0 * report.stderr
