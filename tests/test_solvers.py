import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from geocache import (
    BooleanModelParams,
    ConvergenceError,
    CoverageDistribution,
    ParameterError,
    PopularityDistribution,
    StructuredPolicy,
    boolean_coverage,
    greedy_bound_check,
    greedy_disjoint,
    greedy_general,
    hit_probability_general,
    hit_probability_ind,
    hit_probability_structured,
    independent_caching,
    most_popular,
    solve_dp,
    zipf,
)
from geocache import solvers
from geocache.policy import GeneralPolicy

from conftest import random_coverage, random_instance, random_popularity

POP4 = PopularityDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
DIST_1COV = CoverageDistribution(pmf=np.array([0.0, 1.0]))
DIST_P2 = CoverageDistribution(pmf=np.array([0.0, 0.0, 1.0]))
DIST_HALF = CoverageDistribution(pmf=np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# DP optimum
# ---------------------------------------------------------------------------


def test_dp_single_coverage_reduces_to_most_popular():
    pop = random_popularity(np.random.default_rng(1), 6)
    result = solve_dp(pop, DIST_1COV, 3)
    assert result.policy.sizes == (1, 1, 1)
    expected = math.fsum(pop.probs[:3].tolist())
    assert result.hit_prob == pytest.approx(expected, abs=1e-15)


def test_dp_prefers_singletons_under_half_double_coverage():
    result = solve_dp(POP4, DIST_HALF, 2)
    assert result.policy.sizes == (1, 1)
    assert result.hit_prob == pytest.approx(0.7, abs=1e-15)


def test_dp_codes_two_items_under_sure_double_coverage():
    result = solve_dp(POP4, DIST_P2, 1)
    assert result.policy.sizes == (2,)
    assert result.hit_prob == pytest.approx(0.7, abs=1e-15)


def test_dp_value_equals_its_table(rng):
    for _ in range(50):
        pop, dist, L = random_instance(rng)
        result = solve_dp(pop, dist, L)
        assert result.hit_prob == pytest.approx(result.diagnostics["dp_value"], abs=1e-12)


def test_dp_handles_more_blocks_than_items():
    pop = PopularityDistribution(np.array([0.6, 0.4]))
    result = solve_dp(pop, DIST_HALF, 5)
    assert result.policy.total_items <= 2
    assert result.hit_prob == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# greedy with general blocks
# ---------------------------------------------------------------------------


def test_ggb_single_coverage_picks_singletons():
    pop = random_popularity(np.random.default_rng(2), 8)
    result = greedy_general(pop, DIST_1COV, 4)
    assert [sorted(b) for b in result.policy.blocks] == [[1], [2], [3], [4]]


def test_ggb_first_block_matches_single_block_dp(rng):
    for _ in range(100):
        pop, dist, _ = random_instance(rng)
        greedy = greedy_general(pop, dist, 1)
        optimum = solve_dp(pop, dist, 1)
        assert greedy.hit_prob == pytest.approx(optimum.hit_prob, abs=1e-12)


def _exhaustive_best_gain(pop, dist, prior_blocks):
    """Best marginal hit-probability increment over every nonempty subset."""
    J = pop.size
    base = (
        hit_probability_general(GeneralPolicy(tuple(prior_blocks)), pop, dist)
        if prior_blocks
        else 0.0
    )
    best = -1.0
    for size in range(1, J + 1):
        for combo in itertools.combinations(range(1, J + 1), size):
            candidate = list(prior_blocks) + [frozenset(combo)]
            value = hit_probability_general(GeneralPolicy(tuple(candidate)), pop, dist)
            best = max(best, value - base)
    return best


def test_ggb_steps_match_exhaustive_subset_search(rng):
    # validates the top-c candidate reduction on tiny instances
    for _ in range(20):
        J = int(rng.integers(2, 7))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        K = int(rng.integers(1, 4))
        result = greedy_general(pop, dist, K)
        blocks = list(result.policy.blocks)
        for l in range(K):
            prior = blocks[:l]
            chosen = blocks[: l + 1]
            base = (
                hit_probability_general(GeneralPolicy(tuple(prior)), pop, dist)
                if prior
                else 0.0
            )
            achieved = hit_probability_general(GeneralPolicy(tuple(chosen)), pop, dist) - base
            best = _exhaustive_best_gain(pop, dist, prior)
            assert achieved == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# greedy with disjoint blocks
# ---------------------------------------------------------------------------


def test_gdbnc_single_coverage_is_most_popular():
    pop = random_popularity(np.random.default_rng(3), 6)
    result = greedy_disjoint(pop, DIST_1COV, 3)
    assert result.policy.sizes == (1, 1, 1)


def test_gdbnc_hand_worked_instance():
    result = greedy_disjoint(POP4, DIST_P2, 2)
    assert result.diagnostics["raw_sizes"] == [2, 2]
    assert result.hit_prob == pytest.approx(1.0, abs=1e-15)


def test_gdbnc_never_beats_dp(rng):
    for _ in range(200):
        pop, dist, L = random_instance(rng)
        assert greedy_disjoint(pop, dist, L).hit_prob <= solve_dp(pop, dist, L).hit_prob + 1e-12


def test_gdbnc_nondecreasing_flag():
    pop = zipf(12, 1.2)
    free = greedy_disjoint(pop, DIST_HALF, 3)
    constrained = greedy_disjoint(pop, DIST_HALF, 3, nondecreasing=True)
    raw = constrained.diagnostics["raw_sizes"]
    used = [m for m in raw if m > 0]
    assert all(b >= a for a, b in zip(used, used[1:]))
    assert constrained.hit_prob <= free.hit_prob + 1e-12


# ---------------------------------------------------------------------------
# most popular
# ---------------------------------------------------------------------------


def test_mp_hits_top_mass_times_tail():
    pop = zipf(4, 0.0)
    dist = CoverageDistribution(pmf=np.array([0.2, 0.8]))
    assert most_popular(pop, dist, 2).hit_prob == pytest.approx(0.4, abs=1e-15)


def test_mp_saturates_at_catalog():
    dist = CoverageDistribution(pmf=np.array([0.3, 0.7]))
    result = most_popular(POP4, dist, 9)
    assert result.hit_prob == pytest.approx(dist.tail_at(1), abs=1e-15)


def test_mp_optimal_in_single_coverage(rng):
    for _ in range(50):
        pop = random_popularity(rng, int(rng.integers(2, 10)))
        q = float(rng.random())
        dist = CoverageDistribution(pmf=np.array([1.0 - q, q]))
        L = int(rng.integers(1, 5))
        assert most_popular(pop, dist, L).hit_prob == solve_dp(pop, dist, L).hit_prob


# ---------------------------------------------------------------------------
# independent caching
# ---------------------------------------------------------------------------


def test_ind_single_coverage_is_top_l_indicator():
    result = independent_caching(POP4, DIST_1COV, 2)
    assert result.solver_name == "ind"
    np.testing.assert_allclose(result.policy.b, [1.0, 1.0, 0.0, 0.0])
    assert result.hit_prob == pytest.approx(0.7, abs=1e-12)


def test_ind_uniform_popularity_spreads_budget():
    pop = zipf(4, 0.0)
    result = independent_caching(pop, DIST_HALF, 2)
    np.testing.assert_allclose(result.policy.b, [0.5, 0.5, 0.5, 0.5], atol=1e-7)
    # 1 - G(1 - 1/2) with G(z) = 0.5 z + 0.5 z^2
    assert result.hit_prob == pytest.approx(1.0 - (0.5 * 0.5 + 0.5 * 0.25), abs=1e-7)


def test_ind_budget_saturates(rng):
    for _ in range(30):
        J = int(rng.integers(3, 12))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        if dist.pmf[0] == 1.0:
            continue
        L = int(rng.integers(1, J))
        b = independent_caching(pop, dist, L).policy.b
        assert float(b.sum()) == pytest.approx(L, abs=1e-8)
        assert np.all(np.diff(b) <= 1e-9)  # nonincreasing


def test_ind_never_covered_degenerates():
    dist = CoverageDistribution(pmf=np.array([1.0]))
    result = independent_caching(POP4, dist, 2)
    assert result.hit_prob == 0.0
    assert float(result.policy.b.sum()) <= 2 + 1e-9


def test_ind_full_budget_caches_everything():
    result = independent_caching(POP4, DIST_HALF, 4)
    np.testing.assert_allclose(result.policy.b, 1.0)
    assert result.hit_prob == pytest.approx(DIST_HALF.tail_at(1), abs=1e-12)


def test_ind_invariant_under_equal_popularity_permutation():
    # equal-probability items must receive identical caching probabilities
    pop = PopularityDistribution(np.array([0.3, 0.3, 0.2, 0.2]))
    b = independent_caching(pop, DIST_HALF, 2).policy.b
    assert b[0] == pytest.approx(b[1], abs=1e-10)
    assert b[2] == pytest.approx(b[3], abs=1e-10)


def _nested_bisection_ind(pop, dist, L):
    """Reference (b, mu, hit): the outer mu bisection around an 80-step
    bisection of a_j G'(1 - b_j) = mu per item, evaluated by Horner."""
    J = pop.size
    probs = pop.probs
    pmf = dist.pmf
    deriv = pmf[1:] * np.arange(1, pmf.size)

    def hit(b):
        return math.fsum((probs * (1.0 - npoly.polyval(1.0 - b, pmf))).tolist())

    if L >= J:
        return np.ones(J), 0.0, hit(np.ones(J))
    gp0 = float(npoly.polyval(0.0, deriv)) if deriv.size else 0.0
    gp1 = float(npoly.polyval(1.0, deriv)) if deriv.size else 0.0
    top = np.zeros(J)
    top[:L] = 1.0
    if gp1 == 0.0:
        return top, 0.0, 0.0
    if not np.any(pmf[2:] > 0.0):
        return top, float(probs[L - 1]) * gp1, hit(top)

    def b_of_mu(mu):
        t = np.where(probs > 0.0, mu / np.where(probs > 0.0, probs, 1.0), np.inf)
        b = np.zeros(J)
        b[t <= gp0] = 1.0
        mid = (t > gp0) & (t < gp1)
        if np.any(mid):
            target = t[mid]
            zlo = np.zeros(target.size)
            zhi = np.ones(target.size)
            for _ in range(80):
                zm = 0.5 * (zlo + zhi)
                below = npoly.polyval(zm, deriv) < target
                zlo = np.where(below, zm, zlo)
                zhi = np.where(below, zhi, zm)
            b[mid] = 1.0 - 0.5 * (zlo + zhi)
        return b

    b = b_of_mu(0.0)
    total = float(b.sum())
    if total <= L + 1e-12:
        return b, 0.0, hit(b)
    lo, hi = 0.0, float(probs[0]) * gp1
    best = (abs(total - L), b, 0.0)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        b = b_of_mu(mu)
        total = float(b.sum())
        gap = abs(total - L)
        if gap < best[0]:
            best = (gap, b, mu)
        if gap < 1e-9:
            break
        if total > L:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 1e-18 * max(1.0, hi):
            break
    _, b, mu = best
    return b, mu, hit(b)


def _assert_matches_nested_bisection(pop, dist, L):
    result = independent_caching(pop, dist, L)
    b, mu, hit = _nested_bisection_ind(pop, dist, L)
    assert abs(result.hit_prob - hit) <= 1e-12
    np.testing.assert_allclose(result.policy.b, b, rtol=0.0, atol=1e-12)
    return result


def _assert_kkt(result, pop, dist):
    """a_j G'(1 - b_j) = mu on every item strictly inside (0, 1)."""
    mu = result.policy.multiplier
    b = result.policy.b
    deriv = dist.pmf[1:] * np.arange(1, dist.pmf.size)
    interior = (b > 0.0) & (b < 1.0)
    for j in np.flatnonzero(interior):
        slope = pop.probs[j] * npoly.polyval(1.0 - b[j], deriv)
        assert abs(slope - mu) <= 1e-12 * mu


def test_ind_matches_nested_bisection_on_random_instances(rng):
    for _ in range(200):
        pop, dist, L = random_instance(rng)
        _assert_matches_nested_bisection(pop, dist, L)


@pytest.mark.parametrize(
    "pmf",
    [
        [0.2, 0.5, 0.0, 0.3],  # p_2 = 0: G''(0) = 0
        [0.1, 0.3, 0.0, 0.4, 0.2],
        [0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7],  # mass only at k = 9
        [0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8],
    ],
)
def test_ind_flat_derivative_near_zero(pmf):
    dist = CoverageDistribution(pmf=np.array(pmf))
    for J, gamma, L in ((20, 0.9, 5), (40, 1.2, 2)):
        pop = zipf(J, gamma)
        result = _assert_matches_nested_bisection(pop, dist, L)
        _assert_kkt(result, pop, dist)


def test_ind_kkt_residual_on_random_instances(rng):
    checked = 0
    for _ in range(100):
        J = int(rng.integers(3, 30))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng, int(rng.integers(2, 12)))
        result = independent_caching(pop, dist, int(rng.integers(1, J)))
        _assert_kkt(result, pop, dist)
        checked += int(np.sum((result.policy.b > 0.0) & (result.policy.b < 1.0)))
    assert checked > 100


def test_ind_boolean_cell_pinned():
    pop = zipf(40, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (-11.0 / 10.0), beta=3.0))
    result = independent_caching(pop, dist, 5)
    assert abs(result.hit_prob - 0.9209537903168286) <= 1e-12
    assert result.diagnostics["mu_iterations"] > 0
    assert result.diagnostics["budget_gap"] < 1e-9
    assert hit_probability_ind(result.policy, pop, dist) == result.hit_prob


def test_ind_ill_conditioned_budget_raises_convergence_error():
    # G'(z) = 0.2 + 8.8 z^10 is so flat near 0 that b(mu) jumps by ~1e-6
    # between adjacent doubles mu; the nested bisection stalls here as well
    dist = CoverageDistribution(pmf=np.array([0.0, 0.2] + [0.0] * 9 + [0.8]))
    with pytest.raises(ConvergenceError, match="stalled"):
        independent_caching(zipf(8, 0.6), dist, 3)


def test_ind_stalled_bisection_raises_convergence_error(monkeypatch):
    # b(mu) jumps from caching everything to caching nothing, so no mu meets the budget
    monkeypatch.setattr(
        solvers, "_marginals", lambda mu, probs, *_: np.full(probs.size, float(mu < 0.1))
    )
    with pytest.raises(ConvergenceError, match="stalled"):
        independent_caching(POP4, DIST_HALF, 2)


# ---------------------------------------------------------------------------
# ordering chain and result hygiene
# ---------------------------------------------------------------------------


def test_solver_ordering_chain(rng):
    for _ in range(100):
        pop, dist, L = random_instance(rng)
        onc = solve_dp(pop, dist, L)
        assert onc.hit_prob >= greedy_disjoint(pop, dist, L).hit_prob - 1e-12
        assert onc.hit_prob >= most_popular(pop, dist, L).hit_prob - 1e-12
        assert onc.hit_prob >= greedy_general(pop, dist, L).hit_prob - 1e-12


def test_results_reevaluate_identically(rng):
    for _ in range(50):
        pop, dist, L = random_instance(rng)
        for result in (
            solve_dp(pop, dist, L),
            greedy_disjoint(pop, dist, L),
            most_popular(pop, dist, L),
        ):
            again = hit_probability_structured(result.policy, pop, dist)
            assert again == result.hit_prob
        g = greedy_general(pop, dist, L)
        assert hit_probability_general(g.policy, pop, dist) == g.hit_prob


def test_solvers_reject_bad_block_count():
    for fn in (solve_dp, greedy_general, greedy_disjoint, most_popular, independent_caching):
        with pytest.raises(ParameterError):
            fn(POP4, DIST_HALF, 0)


# ---------------------------------------------------------------------------
# greedy bound report
# ---------------------------------------------------------------------------


def test_bound_report_fields():
    report = greedy_bound_check(POP4, DIST_HALF, 2, 4)
    assert report["factor"] == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)
    assert report["satisfied"]
    assert report["greedy_hit"] >= report["bound"] - 1e-12


def test_bound_tight_case_single_coverage():
    report = greedy_bound_check(POP4, DIST_1COV, 2, 2)
    assert report["greedy_hit"] == pytest.approx(report["optimal_hit"], abs=1e-12)
    assert report["slack"] == pytest.approx(
        math.exp(-1.0) * report["optimal_hit"], abs=1e-9
    )


def test_bound_loose_factor_with_many_greedy_blocks():
    # K = 4L leaves only a (1 - e^(-1/4)) guarantee; it must still hold
    report = greedy_bound_check(POP4, DIST_HALF, 1, 4)
    assert report["factor"] == pytest.approx(0.22119921692859512, rel=1e-12)
    assert report["satisfied"]


def test_bound_rejects_k_below_l():
    with pytest.raises(ParameterError):
        greedy_bound_check(POP4, DIST_HALF, 3, 2)
