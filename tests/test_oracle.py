import math
import tracemalloc

import numpy as np
import pytest

from geocache import (
    BooleanModelParams,
    CoverageDistribution,
    GeneralPolicy,
    IndPolicy,
    PopularityDistribution,
    StructuredPolicy,
    boolean_coverage,
    hit_probability_ind,
    solve_dp,
    zipf,
)
from geocache.cli import ALL_POLICIES, _run_policy
from geocache.errors import ParameterError
from geocache.oracle import reference_hit

from conftest import random_coverage, random_popularity
from solver_oracles import EnumerationBudgetError, brute_general, brute_structured

POP4 = PopularityDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
DIST_HALF = CoverageDistribution(pmf=np.array([0.0, 0.5, 0.5]))
DIST_P2 = CoverageDistribution(pmf=np.array([0.0, 0.0, 1.0]))


def test_brute_structured_hand_instance():
    result = brute_structured(POP4, DIST_HALF, 2)
    assert result.policy.sizes == (1, 1)
    assert result.hit_prob == pytest.approx(0.7, abs=1e-15)


def test_brute_structured_single_block_scan():
    result = brute_structured(POP4, DIST_P2, 1)
    assert result.policy.sizes == (2,)
    assert result.hit_prob == pytest.approx(0.7, abs=1e-15)


def test_brute_general_hand_instance():
    result = brute_general(POP4, DIST_P2, 1)
    assert result.policy.blocks == (frozenset({1, 2}),)
    assert result.hit_prob == pytest.approx(0.7, abs=1e-15)


def test_brute_structured_budget_guard():
    pop = random_popularity(np.random.default_rng(0), 500)
    with pytest.raises(EnumerationBudgetError):
        brute_structured(pop, DIST_HALF, 8)


def test_brute_general_budget_guard():
    pop = random_popularity(np.random.default_rng(0), 12)
    with pytest.raises(EnumerationBudgetError):
        brute_general(pop, DIST_HALF, 3)


def test_brute_structured_matches_dp(rng):
    for _ in range(100):
        J = int(rng.integers(2, 13))
        L = int(rng.integers(1, 5))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        assert abs(
            brute_structured(pop, dist, L).hit_prob - solve_dp(pop, dist, L).hit_prob
        ) < 1e-12


def test_general_optimum_never_beats_structured(rng):
    # overlap and arbitrary item picks cannot improve on consecutive blocks
    for _ in range(25):
        J = int(rng.integers(2, 7))
        L = int(rng.integers(1, 3))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)
        general = brute_general(pop, dist, L)
        structured = brute_structured(pop, dist, L)
        assert general.hit_prob >= structured.hit_prob - 1e-15
        assert abs(general.hit_prob - structured.hit_prob) < 1e-12


def test_reference_hit_agrees_with_every_solver(rng):
    # block policies sum the same terms, so they agree exactly; ind is a different sum
    for _ in range(40):
        J = int(rng.integers(2, 30))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng, kmax=int(rng.integers(1, 12)))
        L = int(rng.integers(1, J + 2))
        for name in ALL_POLICIES:
            result = _run_policy(name, pop, dist, L)
            gap = abs(reference_hit(result.policy, pop, dist) - result.hit_prob)
            assert gap <= (1e-14 if name == "ind" else 0.0), (name, gap)


def test_reference_hit_hand_values():
    # r = (1, 2, 2, uncached) with Pbar(1) = 1, Pbar(2) = 0.5
    for policy in (StructuredPolicy((1, 2, 0)), GeneralPolicy((frozenset({2, 3}), frozenset({1})))):
        assert reference_hit(policy, POP4, DIST_HALF) == pytest.approx(0.65, abs=1e-15)
    assert reference_hit(StructuredPolicy((0, 0)), POP4, DIST_HALF) == 0.0
    with pytest.raises(ParameterError):
        reference_hit(GeneralPolicy((frozenset({5}),)), POP4, DIST_HALF)


def test_reference_hit_of_ind_holds_one_row_of_terms_at_a_time():
    # Boolean -20 dB: kmax 133, so all kmax * J terms of the sum at once take ~86 MB
    J = 20_000
    pop = zipf(J, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=0.01, beta=3.0))
    policy = IndPolicy(b=np.random.default_rng(3).random(J), multiplier=0.0)
    tracemalloc.start()
    try:
        value = reference_hit(policy, pop, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.kmax == 133 and peak < 4e6, peak
    assert abs(value - hit_probability_ind(policy, pop, dist)) <= 1e-14


def test_reference_hit_of_ind_skips_only_exact_zero_terms():
    # an item with b_j = 0 adds a_j * 0 * ... = +0.0 at every k, so summing only the
    # others must give the fsum over all J items to the bit; subnormal b are kept
    rng = np.random.default_rng(33)
    J = 3000
    pop = zipf(J, 0.9)
    dist = boolean_coverage(BooleanModelParams(lam=1.0, tau=10.0 ** (-6 / 10.0), beta=3.0))
    b = rng.random(J)
    kind = rng.integers(0, 4, J)
    b[kind == 0] = 0.0
    b[kind == 1] = rng.random(int((kind == 1).sum())) * 5e-324 * 2**40  # subnormal
    b[kind == 2] = 1.0
    assert 0.0 < b[kind == 1].max() < np.finfo(float).tiny

    def terms():  # every item's terms, each formed as reference_hit forms it
        for a, bj in zip(pop.probs.tolist(), b.tolist()):
            term = a * bj
            for k in range(1, dist.kmax + 1):
                yield dist.tail_at(k) * term
                term *= 1.0 - bj

    full = math.fsum(terms())
    assert reference_hit(IndPolicy(b=b, multiplier=0.0), pop, dist).hex() == full.hex()
