import hashlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    ParameterError,
    PopularityDistribution,
    SinrModelParams,
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
    sinr_coverage,
    solve_dp,
    zipf,
)
from geocache import solvers
from geocache.oracle import reference_hit
from geocache.policy import UNCACHED, GeneralPolicy, canonical_sizes, item_thresholds

import solver_oracles
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
    assert sum(result.policy.sizes) <= 2
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
    np.testing.assert_allclose(result.policy.b, [1.0, 1.0, 0.0, 0.0])
    assert result.hit_prob == pytest.approx(0.7, abs=1e-12)


def test_ind_uniform_popularity_spreads_budget():
    pop = zipf(4, 0.0)
    result = independent_caching(pop, DIST_HALF, 2)
    np.testing.assert_allclose(result.policy.b, [0.5, 0.5, 0.5, 0.5], atol=1e-7)
    # 1 - G(1 - 1/2) with G(z) = 0.5 z + 0.5 z^2
    assert result.hit_prob == pytest.approx(1.0 - (0.5 * 0.5 + 0.5 * 0.25), abs=1e-7)
    # single coverage: G' is constant, so the tied items share the budget
    dist = CoverageDistribution(pmf=np.array([0.5, 0.5]))
    result = independent_caching(pop, dist, 2)
    assert result.policy.b.tolist() == [0.5] * 4
    assert result.hit_prob == pytest.approx(0.25, abs=1e-15)
    _assert_kkt(result, pop, dist)


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
    assert result.policy.b.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert result.policy.multiplier == 0.0
    assert result.diagnostics["mu_iterations"] == 0


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


def _horner(z, coef):
    """``npoly.polyval`` per row: row i of z at the polynomial of row i of coef.

    Zero top coefficients, which pad a row to the longest polynomial,
    leave every value as polyval gives it for the unpadded row.
    """
    acc = coef[:, -1:] + z * 0
    for k in range(coef.shape[1] - 2, -1, -1):
        acc = coef[:, k : k + 1] + acc * z
    return acc


def _nested_bisection_ind(instances):
    """Reference [(b, mu, hit)] for [(pop, dist, L)]: the outer mu bisection
    around an 80-step bisection of a_j G'(1 - b_j) = mu per item, evaluated
    by Horner.

    All instances bisect at once, each with its own midpoints and stop
    rule. Items pad to the longest catalog with zero popularity (b = 0)
    and G' to the highest degree with zero coefficients.
    """
    results = [None] * len(instances)

    def hit(probs, pmf, b):
        return math.fsum((probs * (1.0 - npoly.polyval(1.0 - b, pmf))).tolist())

    searched = []  # (index, probs, deriv, gp0, gp1, L) of the instances that bisect
    for i, (pop, dist, L) in enumerate(instances):
        J, probs, pmf = pop.size, pop.probs, dist.pmf
        deriv = pmf[1:] * np.arange(1, pmf.size)
        gp0 = float(npoly.polyval(0.0, deriv)) if deriv.size else 0.0
        gp1 = float(npoly.polyval(1.0, deriv)) if deriv.size else 0.0
        top = np.zeros(J)
        top[:L] = 1.0
        if L >= J:
            results[i] = (np.ones(J), 0.0, hit(probs, pmf, np.ones(J)))
        elif gp1 == 0.0:
            results[i] = (top, 0.0, 0.0)
        elif not np.any(pmf[2:] > 0.0):
            results[i] = (top, float(probs[L - 1]) * gp1, hit(probs, pmf, top))
        else:
            searched.append((i, probs, deriv, gp0, gp1, L))
    if not searched:
        return results

    _, prob_rows, deriv_rows, gp0, gp1, L = zip(*searched)
    gp0, gp1, L = (np.array(v, dtype=float)[:, None] for v in (gp0, gp1, L))
    sizes = [a.size for a in prob_rows]
    probs = np.zeros((len(searched), max(sizes)))
    deriv = np.zeros((len(searched), max(d.size for d in deriv_rows)))
    for row, (a, d) in enumerate(zip(prob_rows, deriv_rows)):
        probs[row, : a.size] = a
        deriv[row, : d.size] = d

    def b_of_mu(mu):
        t = np.where(probs > 0.0, mu / np.where(probs > 0.0, probs, 1.0), np.inf)
        b = np.where(t <= gp0, 1.0, 0.0)
        zlo = np.zeros(t.shape)
        zhi = np.ones(t.shape)
        for _ in range(80):
            zm = 0.5 * (zlo + zhi)
            below = _horner(zm, deriv) < t
            zlo = np.where(below, zm, zlo)
            zhi = np.where(below, zhi, zm)
        return np.where((t > gp0) & (t < gp1), 1.0 - 0.5 * (zlo + zhi), b)

    def totals(b):  # each row summed as np.sum sums the unpadded row
        return np.array([[row[:size].sum()] for row, size in zip(b, sizes)])

    mu = np.zeros((len(searched), 1))
    b = b_of_mu(mu)
    total = totals(b)
    done = total <= L + 1e-12
    lo, hi = np.zeros_like(mu), probs[:, :1] * gp1
    best_gap, best_b, best_mu = np.abs(total - L), b, mu
    for _ in range(200):
        if done.all():
            break
        active = ~done
        mu = np.where(active, 0.5 * (lo + hi), mu)
        b = b_of_mu(mu)
        total = totals(b)
        gap = np.abs(total - L)
        better = active & (gap < best_gap)
        best_gap = np.where(better, gap, best_gap)
        best_b = np.where(better, b, best_b)
        best_mu = np.where(better, mu, best_mu)
        going = active & ~(gap < 1e-9)
        lo = np.where(going & (total > L), mu, lo)
        hi = np.where(going & ~(total > L), mu, hi)
        done = ~going | (hi - lo <= 1e-18 * np.maximum(1.0, hi))
    for row, (i, a, *_) in enumerate(searched):
        pmf = instances[i][1].pmf
        b = best_b[row, : a.size]
        results[i] = (b, float(best_mu[row, 0]), hit(a, pmf, b))
    return results


def _assert_matches_nested_bisection(instances):
    """The ind results of [(pop, dist, L)], each checked against the reference."""
    results = []
    for (pop, dist, L), (b, mu, hit) in zip(instances, _nested_bisection_ind(instances)):
        result = independent_caching(pop, dist, L)
        assert abs(result.hit_prob - hit) <= 1e-12
        np.testing.assert_allclose(result.policy.b, b, rtol=0.0, atol=1e-12)
        results.append(result)
    return results


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
    _assert_matches_nested_bisection([random_instance(rng) for _ in range(200)])


FLAT_NEAR_ZERO_PMFS = [
    [0.2, 0.5, 0.0, 0.3],  # p_2 = 0: G''(0) = 0
    [0.1, 0.3, 0.0, 0.4, 0.2],
    [0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7],  # mass only at k = 9
    [0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8],
]


@pytest.mark.parametrize("pmf", FLAT_NEAR_ZERO_PMFS)
def test_ind_flat_derivative_near_zero(pmf):
    dist = CoverageDistribution(pmf=np.array(pmf))
    instances = [(zipf(J, gamma), dist, L) for J, gamma, L in ((20, 0.9, 5), (40, 1.2, 2))]
    for (pop, _, _), result in zip(instances, _assert_matches_nested_bisection(instances)):
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


def test_ind_newton_start_changes_only_the_speed(rng):
    # any z_right = 1 - b(mu') with mu' > mu lies right of every root, like z = 1
    dists = [CoverageDistribution(pmf=np.array(pmf)) for pmf in FLAT_NEAR_ZERO_PMFS]
    dists += [random_coverage(rng, int(rng.integers(2, 12))) for _ in range(100)]
    compared = 0
    for dist in dists:
        pop = random_popularity(rng, int(rng.integers(2, 40)))
        deriv = dist.pmf[1:] * np.arange(1, dist.pmf.size)
        if deriv.size < 2:
            continue
        gp0, gp1 = float(npoly.polyval(0.0, deriv)), float(npoly.polyval(1.0, deriv))
        ones = np.ones(pop.size)
        for _ in range(5):
            mu, mu_right = np.sort(rng.random(2)) * float(pop.probs[0]) * gp1
            args = (pop.probs, gp0, gp1, deriv)
            z_right = 1.0 - solvers._marginals(mu_right, *args, ones)[0]
            b = solvers._marginals(mu, *args, ones)[0]
            np.testing.assert_allclose(
                solvers._marginals(mu, *args, z_right)[0], b, rtol=0.0, atol=1e-14
            )
            compared += int(np.sum((b > 0.0) & (b < 1.0)))
    assert compared > 500


@pytest.mark.parametrize(
    "J, gamma, taus_db",
    [
        (40, 0.9, range(-12, 13)),  # the Boolean panels of Figure 1
        (40, 0.56, range(-12, 13)),
        (2000, 0.9, (-12, -6, 0, 6, 12)),  # the J = 2000 catalog
    ],
)
def test_ind_kkt_on_figure_and_catalog_cells(J, gamma, taus_db):
    pop = zipf(J, gamma)
    for tau_db in taus_db:
        dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (tau_db / 10.0), beta=3.0))
        _assert_kkt(independent_caching(pop, dist, 5), pop, dist)


def test_ind_underflow_regime_meets_budget():
    # Boolean beta = 2.5 at -36 dB: mean coverage ~2.4e3, so G' and G'' underflow to 0
    # on most of [0, 1] and mu bisects down into the subnormals
    pop = zipf(10, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (-36.0 / 10.0), beta=2.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = independent_caching(pop, dist, 9)
        oracle, _ = solver_oracles.independent_caching(pop, dist, 9)
    assert abs(float(result.policy.b.sum()) - 9) <= 1e-9
    assert abs(result.hit_prob - reference_hit(result.policy, pop, dist)) <= 1e-12
    solver_oracles.assert_same_result(result, oracle)  # the plain bisection's, to the byte


def test_ind_boolean_cell_pinned():
    pop = zipf(40, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (-11.0 / 10.0), beta=3.0))
    result = independent_caching(pop, dist, 5)
    assert abs(result.hit_prob - 0.9209537903168286) <= 1e-12
    assert result.diagnostics["mu_iterations"] > 0
    assert result.diagnostics["budget_gap"] < 1e-9
    assert hit_probability_ind(result.policy, pop, dist) == result.hit_prob


def _assert_meets_budget(result, pop, dist, L):
    b = result.policy.b
    assert abs(float(b.sum()) - L) <= 1e-12
    assert np.all(np.diff(b) <= 0.0)  # nonincreasing
    assert abs(result.hit_prob - reference_hit(result.policy, pop, dist)) <= 1e-12


def test_ind_ill_conditioned_budget_meets_it_on_the_jump():
    # G'(z) = 0.2 + 8.8 z^10 is so flat near 0 that b(mu) jumps by ~1e-6
    # between adjacent doubles mu; the nested bisection stalls here
    dist = CoverageDistribution(pmf=np.array([0.0, 0.2] + [0.0] * 9 + [0.8]))
    pop = zipf(8, 0.6)
    result = independent_caching(pop, dist, 3)
    _assert_meets_budget(result, pop, dist, 3)
    _assert_kkt(result, pop, dist)
    assert result.diagnostics["mu_iterations"] <= 60


def test_ind_all_or_nothing_step_splits_the_budget(monkeypatch):
    # b(mu) jumps from caching everything to caching nothing, so no mu meets the budget
    monkeypatch.setattr(
        solvers, "_marginals",
        lambda mu, probs, *_: (np.full(probs.size, float(mu < 0.1)), np.zeros(probs.size)),
    )
    result = independent_caching(POP4, DIST_HALF, 2)
    _assert_meets_budget(result, POP4, DIST_HALF, 2)
    assert result.policy.b.tolist() == [0.5] * 4


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
# size searches bounded by kmax against full-range references
# ---------------------------------------------------------------------------


def _padded_tail(dist, J):
    """Pbar(0..J) zero-padded past kmax, then a 0 for ggb's uncached sentinel J + 1."""
    out = np.zeros(J + 2)
    m = min(J + 1, dist.tail.size)
    out[:m] = dist.tail[:m]
    return out


def _padded_hit(policy, pop, dist):
    r = item_thresholds(policy, pop.size)
    cached = r != UNCACHED
    return math.fsum((pop.probs[cached] * _padded_tail(dist, pop.size)[r[cached]]).tolist())


def _full_range_dp(pop, dist, L):
    # one (n, x) matrix per stage, every size x that fits; argmax keeps the first max
    J, prefix, tails = pop.size, pop.prefix, _padded_tail(dist, pop.size)
    n, x = np.ogrid[: J + 1, : J + 1]
    end = np.minimum(n + x, J)
    value, choices = np.zeros(J + 1), []
    for _ in range(L):
        gains = np.where(n + x <= J, (prefix[end] - prefix[n]) * tails[x] + value[end], -np.inf)
        choices.insert(0, np.argmax(gains, axis=1))
        value = gains[np.arange(J + 1), choices[0]]
    raw, used = [], 0
    for choice in choices:
        raw.append(int(choice[used]))
        used += raw[-1]
    policy = StructuredPolicy(canonical_sizes(raw))
    return policy, {"dp_value": float(value[0]), "raw_sizes": raw}


def _full_range_first_block(prefix, tails, J):
    return int(np.argmax((prefix[1:] - prefix[0]) * tails[1 : J + 1])) + 1


def _full_range_ggb(pop, dist, K):
    J, probs, tails = pop.size, pop.probs, _padded_tail(dist, pop.size)
    m1 = _full_range_first_block(pop.prefix, tails, J)
    blocks = [frozenset(range(1, m1 + 1))]
    r = np.full(J, J + 1)
    r[:m1] = m1
    for _ in range(2, K + 1):
        covered_tail = tails[r]
        best = None
        for c in range(1, J + 1):
            g = probs * np.maximum(tails[c] - covered_tail, 0.0)
            top = np.argsort(-g, kind="stable")[:c]
            gain = float(np.sum(g[top]))
            if best is None or gain > best[0]:
                best = (gain, c, np.sort(top))
        _, c, top = best
        blocks.append(frozenset(int(j) + 1 for j in top))
        r[top] = np.minimum(r[top], c)
    return GeneralPolicy(tuple(blocks)), {}


def _full_range_gdbnc(pop, dist, L):
    J, prefix, tails = pop.size, pop.prefix, _padded_tail(dist, pop.size)
    raw = [_full_range_first_block(prefix, tails, J)]
    for _ in range(2, L + 1):
        used = sum(raw)
        raw.append(int(np.argmax((prefix[used:] - prefix[used]) * tails[: J - used + 1])))
    return StructuredPolicy(canonical_sizes(raw)), {"raw_sizes": raw}


def _scan_instance(rng, i):
    J = int(rng.integers(1, 61))
    kind = i % 4
    if kind == 0:  # every item ties
        w = np.ones(J)
    elif kind == 1:
        w = zipf(J, (0.0, 0.56, 0.9, 1.5)[i // 4 % 4]).probs.copy()
    else:
        w = np.sort(rng.random(J))[::-1]
        if kind == 2:  # zero-probability items after a random rank
            w[int(rng.integers(1, J + 1)) :] = 0.0
    kmax = int(rng.integers(0, 12))
    pmf = rng.random(kmax + 1)
    pmf[rng.random(kmax + 1) < 0.3] = 0.0
    if pmf.sum() <= 0.0:
        pmf[kmax] = 1.0
    pop = PopularityDistribution(w / math.fsum(w.tolist()))
    return pop, CoverageDistribution(pmf=pmf / math.fsum(pmf.tolist())), int(rng.integers(1, 7))


def _assert_matches_reference(solve, reference, pop, dist, L, tag):
    result = solve(pop, dist, L)
    policy, diagnostics = reference(pop, dist, L)
    assert result.policy.to_json_dict() == policy.to_json_dict(), (tag, solve.__name__)
    assert result.hit_prob.hex() == _padded_hit(policy, pop, dist).hex()
    assert diagnostics.items() <= result.diagnostics.items()


def test_size_searches_bounded_by_kmax_match_full_range_references():
    # a block larger than kmax is never decoded, so no solver scores one; the
    # result must equal a search over every size up to J, to the bit
    rng = np.random.default_rng(16)
    solvers_and_references = [
        (solve_dp, _full_range_dp),
        (greedy_general, _full_range_ggb),
        (greedy_disjoint, _full_range_gdbnc),
    ]
    for i in range(1000):
        pop, dist, L = _scan_instance(rng, i)
        for solve, reference in solvers_and_references:
            _assert_matches_reference(solve, reference, pop, dist, L, i)
        J, kmax = pop.size, dist.kmax
        # a block larger than kmax + 1 and a whole-catalog block read the tail past the support
        for policy in (
            StructuredPolicy((1, kmax + 2)) if J >= kmax + 3 else StructuredPolicy((J,)),
            GeneralPolicy((frozenset(range(1, J + 1)), frozenset({J}))),
        ):
            assert hit_probability_general(policy, pop, dist).hex() == _padded_hit(policy, pop, dist).hex()
    # J >> kmax: the catalog_mc cells (J = 2000, L = 5, Zipf 0.9, Boolean -12/0/12 dB), then
    # tied popularities; ggb's full-range reference is too slow at these sizes
    wide = [
        (zipf(2000, 0.9), boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (db / 10.0), beta=3.0)), 5)
        for db in (-12, 0, 12)
    ]
    for J in (200, 250, 300, 400):
        pmf = rng.random(int(rng.integers(2, 41)))
        wide.append((PopularityDistribution(np.full(J, 1.0 / J)),
                     CoverageDistribution(pmf=pmf / math.fsum(pmf.tolist())), int(rng.integers(1, 7))))
    for i, (pop, dist, L) in enumerate(wide):
        for solve, reference in ((solve_dp, _full_range_dp), (greedy_disjoint, _full_range_gdbnc)):
            _assert_matches_reference(solve, reference, pop, dist, L, ("wide", i))


def test_ggb_scores_only_sizes_up_to_kmax():
    # candidate_evaluations counts the (c, set) candidates scored: min(J, kmax) per block, at least 1
    pop = zipf(50, 0.9)
    for pmf, per_block in [([0.2, 0.3, 0.1, 0.4], 3), ([1.0], 1), ([0.0] * 60 + [1.0], 50)]:
        result = greedy_general(pop, CoverageDistribution(pmf=np.array(pmf)), 4)
        assert result.diagnostics["candidate_evaluations"] == 4 * per_block


# ---------------------------------------------------------------------------
# vectorised searches and the settled bisection against their loop forms
# ---------------------------------------------------------------------------


def _loop_form_instance(rng, i):
    """J from 1 to 2000 with kmax below and above it. A quarter of the catalogs
    tie all items, and a quarter have zero-popularity items after a random rank."""
    J, kmax = [(1, 0), (2, 5), (3, 1), (7, 3), (7, 12), (40, 11), (40, 60), (150, 4),
               (150, 700), (600, 25), (2000, 11), (2000, 60)][i % 12]
    kind = i // 12 % 4
    if kind == 0:
        w = np.ones(J)
    elif kind == 1:
        w = zipf(J, (0.0, 0.56, 0.9, 1.5)[i % 4]).probs.copy()
    else:
        w = np.sort(rng.random(J))[::-1]
        if kind == 2:
            w[int(rng.integers(1, J + 1)) :] = 0.0
    pmf = rng.random(kmax + 1)
    pmf[rng.random(kmax + 1) < 0.3] = 0.0
    if i % 3 == 0:  # tied coverage masses
        pmf = np.round(pmf * 4.0)
    if pmf.sum() <= 0.0:
        pmf[kmax] = 1.0
    pop = PopularityDistribution(w / math.fsum(w.tolist()))
    return pop, CoverageDistribution(pmf=pmf / math.fsum(pmf.tolist())), int(rng.integers(1, 8))


def test_size_searches_match_their_per_size_loops():
    # one score matrix per row block for onc and gdbnc, one row argsort per block of sizes
    # for ggb: the same floats and tie-breaks as one pass per size
    rng = np.random.default_rng(26)
    for i in range(96):
        pop, dist, L = _loop_form_instance(rng, i)
        for solve, oracle in (
            (solve_dp, solver_oracles.solve_dp),
            (greedy_disjoint, solver_oracles.greedy_disjoint),
            (greedy_general, solver_oracles.greedy_general),
        ):
            solver_oracles.assert_same_result(solve(pop, dist, L), oracle(pop, dist, L))


def _ind_against_plain_bisection(instances):
    """Assert each ind result equals the plain bisection's to the byte; return
    the bisection's count of full solves, and each result's multiplier with the
    multipliers of its ``_marginals`` calls."""
    solves, calls = 0, []
    original = solvers._marginals
    for pop, dist, L in instances:
        oracle, made = solver_oracles.independent_caching(pop, dist, L)
        mus = []
        with mock.patch.object(
            solvers, "_marginals", lambda mu, *args: mus.append(mu) or original(mu, *args)
        ):
            result = independent_caching(pop, dist, L)
        solver_oracles.assert_same_result(result, oracle)
        solves += made
        calls.append((result.policy.multiplier, mus))
    return solves, calls


def test_ind_matches_plain_bisection_on_random_instances():
    rng = np.random.default_rng(27)
    instances = []
    for i in range(72):
        pop, dist, _ = _loop_form_instance(rng, i)
        instances.append((pop, dist, int(rng.integers(1, min(pop.size, 20) + 1))))
    solves, calls = _ind_against_plain_bisection(instances)
    assert sum(len(mus) for _, mus in calls) < solves


def test_ind_jump_exit_solves_the_settled_lower_end():
    # a bound may have settled the lower end without a solve: the exit solves b(lo) then
    dists = [CoverageDistribution(pmf=np.array(pmf)) for pmf in FLAT_NEAR_ZERO_PMFS]
    instances = [(zipf(J, gamma), dist, L) for dist in dists
                 for J, gamma, L in ((20, 0.9, 5), (40, 1.2, 2), (8, 0.6, 3))]
    _, calls = _ind_against_plain_bisection(instances)
    # a jump exit's last solve is at lo, below the returned multiplier hi, and new
    assert any(mus[-1] < hi and mus[-1] not in mus[:-1] for hi, mus in calls)


def test_ind_matches_plain_bisection_at_the_largest_catalog():
    # the settling bound's rounding margin is fixed while J and L grow to the CLI's limits
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (-6.0 / 10.0), beta=3.0))
    solves, calls = _ind_against_plain_bisection([(zipf(100_000, 0.9), dist, 1000)])
    assert len(calls[0][1]) < solves


def test_ggb_scores_sizes_in_blocks_past_the_score_budget():
    # J > 2^14, though the ranked prefix is shorter and a block of scores holds several
    # sizes; one size per block is test_ggb_scores_one_size_per_block_past_a_small_score_budget
    pop = zipf(20_000, 0.9)
    for db in (-6, 12):
        dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (db / 10.0), beta=3.0))
        solver_oracles.assert_same_result(
            greedy_general(pop, dist, 3), solver_oracles.greedy_general(pop, dist, 3)
        )


def _large_catalog_coverages():
    """Boolean -12/0/12 dB (kmax 58, 22, 11), SIR -10 dB and a kmax = 0 pmf."""
    dists = [boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (db / 10.0), beta=3.0))
             for db in (-12, 0, 12)]
    dists.append(sinr_coverage(SinrModelParams(lam=1.0, tau=0.1, beta=3.0)))
    dists.append(CoverageDistribution(pmf=np.array([1.0])))
    return dists


def test_block_searches_past_the_reachable_states_match_the_full_catalog_oracles():
    # onc and gdbnc search only the states L blocks of at most kmax items reach; the
    # oracles search every state 0..J and must give the same policy, hit and diagnostics
    dists = _large_catalog_coverages()
    for J, gamma, L in itertools.product((2000, 20_000), (0.0, 0.9), (1, 5, 12)):
        pop = zipf(J, gamma)
        for dist in dists:
            for solve, oracle in (
                (solve_dp, solver_oracles.solve_dp),
                (greedy_disjoint, solver_oracles.greedy_disjoint),
            ):
                solver_oracles.assert_same_result(solve(pop, dist, L), oracle(pop, dist, L))


def test_ggb_ranking_a_prefix_matches_the_full_ranking_where_every_gain_ties():
    # uniform popularity ties every uncached gain: the stable sort's index order alone
    # keeps the items past the prefix out of each top-c set; where N = 4 surely, the
    # best c is kmax, whose set needs the prefix's last uncached item
    pop = zipf(20_000, 0.0)
    for dist in _large_catalog_coverages() + [CoverageDistribution(pmf=np.array([0, 0, 0, 0, 1.0]))]:
        solver_oracles.assert_same_result(
            greedy_general(pop, dist, 5), solver_oracles.greedy_general(pop, dist, 5)
        )


def test_ggb_scores_one_size_per_block_past_a_small_score_budget(monkeypatch):
    # a budget of 16 scores holds less than two rows of every ranked prefix here (P >= 35),
    # so each size is scored alone; the onc search of the first block runs in small blocks too
    monkeypatch.setattr(solvers, "_SCORE_ENTRIES", 16)
    pop = zipf(40, 0.9)
    for db in (-12, -6):
        dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (db / 10.0), beta=3.0))
        solver_oracles.assert_same_result(
            greedy_general(pop, dist, 5), solver_oracles.greedy_general(pop, dist, 5)
        )


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


# ---------------------------------------------------------------------------
# pinned results
# ---------------------------------------------------------------------------


GGB_BLOCKS = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17],
              [18, 19, 20, 21, 22, 23], [24, 25, 26, 27, 28, 29]]
# (J, L, tau_db) -> policy -> (hit as float.hex, policy JSON or sha256 of ind's b, diagnostics)
# on the Boolean defaults with Zipf 0.9; at 200 dB kmax = 0, and gdbnc and ggb force a
# first block of one item
PINNED_RESULTS = {
    (40, 5, -6.0): {
        "onc": ("0x1.98ceb7a264eb7p-1", {"type": "structured", "sizes": [4, 5, 5, 6, 6]},
                {"dp_value": 0.7984521280036094, "raw_sizes": [4, 5, 5, 6, 6],
                 "stage_maximizations": 205}),
        "ggb": ("0x1.8bcfbb06ae0cfp-1", {"type": "general", "blocks": GGB_BLOCKS},
                {"candidate_evaluations": 175}),
        "gdbnc": ("0x1.8bcfbb06ae0cfp-1", {"type": "structured", "sizes": [5, 6, 6, 6, 6]},
                  {"raw_sizes": [5, 6, 6, 6, 6]}),
        "mp": ("0x1.eca3fbcc33c37p-2", {"type": "structured", "sizes": [1, 1, 1, 1, 1]}, {}),
        "ind": ("0x1.819cbf3350465p-1",
                "0a4fc85f2753ec066a6b95626dc8724c59d911be6d75c3b80f84e8e322eb7900",
                {"mu_iterations": 36, "budget_gap": 6.469402791253742e-11}),
    },
    (2000, 5, -6.0): {
        "onc": ("0x1.59503cbeedcbfp-2", {"type": "structured", "sizes": [4, 5, 5, 6, 6]},
                {"dp_value": 0.33722014346444584, "raw_sizes": [4, 5, 5, 6, 6],
                 "stage_maximizations": 880}),
        "ggb": ("0x1.4e55fb86846efp-2", {"type": "general", "blocks": GGB_BLOCKS},
                {"candidate_evaluations": 175}),
        "gdbnc": ("0x1.4e55fb86846efp-2", {"type": "structured", "sizes": [5, 6, 6, 6, 6]},
                  {"raw_sizes": [5, 6, 6, 6, 6]}),
        "mp": ("0x1.a0203d83e67ddp-3", {"type": "structured", "sizes": [1, 1, 1, 1, 1]}, {}),
        "ind": ("0x1.45c547f41272fp-2",
                "b2fb4620152b7f9644dfab517c05cb98aa6f3d5fd876f88f062ab8bff9d10886",
                {"mu_iterations": 35, "budget_gap": 9.151595037337756e-10}),
    },
    (4, 3, 200.0): {
        "onc": ("0x0.0p+0", {"type": "structured", "sizes": [0, 0, 0]},
                {"dp_value": 0.0, "raw_sizes": [0, 0, 0], "stage_maximizations": 12}),
        "ggb": ("0x0.0p+0", {"type": "general", "blocks": [[1], [1], [1]]},
                {"candidate_evaluations": 3}),
        "gdbnc": ("0x0.0p+0", {"type": "structured", "sizes": [1, 0, 0]}, {"raw_sizes": [1, 0, 0]}),
        "mp": ("0x0.0p+0", {"type": "structured", "sizes": [1, 1, 1]}, {}),
        "ind": ("0x0.0p+0", "be21622c7a8e0bacaf6fd7e6a3121384467dd031da3e3d9d9ad0b18f6cf38c5b",
                {"mu_iterations": 0, "budget_gap": 0.0}),
    },
}


@pytest.mark.parametrize("J, L, tau_db", PINNED_RESULTS)
def test_solver_results_are_pinned(J, L, tau_db):
    # a refactor of a solver or of its result moves none of these bits
    pop = zipf(J, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (tau_db / 10.0), beta=3.0))
    results = {}
    for name, solve in {**solvers.BLOCK_SOLVERS, "ind": independent_caching}.items():
        result = solve(pop, dist, L)
        if name == "ind":
            policy = hashlib.sha256(result.policy.b.tobytes()).hexdigest()
        else:
            policy = result.policy.to_json_dict()
        results[name] = (result.hit_prob.hex(), policy, result.diagnostics)
    assert results == PINNED_RESULTS[J, L, tau_db]
