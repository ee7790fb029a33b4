import math

import numpy as np
import pytest

from geocache import (
    CoverageDistribution,
    GeneralPolicy,
    ParameterError,
    PopularityDistribution,
    StructuredPolicy,
    hit_probability_general,
    hit_probability_structured,
)
from geocache.policy import UNCACHED, canonical_sizes, item_thresholds

from conftest import random_coverage, random_popularity

POP4 = PopularityDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
DIST_P2 = CoverageDistribution(pmf=np.array([0.0, 0.0, 1.0]))  # Pbar(1)=Pbar(2)=1
DIST_HALF = CoverageDistribution(pmf=np.array([0.0, 0.5, 0.5]))  # Pbar(1)=1, Pbar(2)=.5


def general_twin(policy: StructuredPolicy) -> GeneralPolicy:
    """The same blocks as a general policy."""
    return GeneralPolicy(tuple(frozenset(block) for block in policy.blocks))


def test_general_policy_validation():
    with pytest.raises(ParameterError):
        GeneralPolicy(blocks=())
    with pytest.raises(ParameterError):
        GeneralPolicy(blocks=(frozenset(),))
    with pytest.raises(ParameterError):
        GeneralPolicy(blocks=(frozenset({0}),))
    # numpy integers are items too, stored as Python ints
    assert [type(j) for j in GeneralPolicy((frozenset({np.int64(2)}),)).blocks[0]] == [int]


def test_structured_policy_validation():
    with pytest.raises(ParameterError):
        StructuredPolicy(sizes=(2, 1))  # nonzero sizes must be nondecreasing
    with pytest.raises(ParameterError):
        StructuredPolicy(sizes=(-1,))
    assert StructuredPolicy(sizes=(1, 0, 2)).blocks == (range(1, 2), range(2, 4))
    assert type(StructuredPolicy(sizes=(np.int64(1), 2)).sizes[0]) is int


def test_hit_requires_items_inside_catalog():
    pop2 = PopularityDistribution(np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        hit_probability_general(GeneralPolicy((frozenset({3}),)), pop2, DIST_P2)
    # a huge last size is rejected at the first item past the catalog
    for policy in (
        GeneralPolicy((frozenset({1, 3}),)),
        StructuredPolicy((1, 2)),
        StructuredPolicy((1, 10**30)),
    ):
        with pytest.raises(ParameterError, match="beyond the catalog"):
            item_thresholds(policy, 2)


def test_hit_zero_when_only_irrelevant_item_cached():
    pop2 = PopularityDistribution(np.array([1.0, 0.0]))
    policy = GeneralPolicy((frozenset({2}),))
    assert item_thresholds(policy, 2).tolist() == [UNCACHED, 1]
    # coverage far beyond the catalog still never serves an uncached item
    deep = CoverageDistribution(pmf=np.array([0.0] * 9 + [1.0]))
    for dist in (DIST_P2, deep):
        assert hit_probability_general(policy, pop2, dist) == 0.0


def test_hit_two_item_block_under_sure_double_coverage():
    policy = GeneralPolicy((frozenset({1, 2}),))
    assert hit_probability_general(policy, POP4, DIST_P2) == pytest.approx(0.7, abs=1e-15)


def test_hit_overlapping_blocks_use_smallest_cardinality():
    policy = GeneralPolicy((frozenset({1}), frozenset({1, 2})))
    assert item_thresholds(policy, 4).tolist() == [1, 2, UNCACHED, UNCACHED]
    value = hit_probability_general(policy, POP4, DIST_HALF)
    assert value == pytest.approx(0.4 * 1.0 + 0.3 * 0.5, abs=1e-15)


def test_hit_structured_singletons():
    policy = StructuredPolicy((1, 1))
    assert hit_probability_structured(policy, POP4, DIST_HALF) == pytest.approx(0.7, abs=1e-15)


def test_hit_structured_pairs():
    policy = StructuredPolicy((2, 2))
    assert hit_probability_structured(policy, POP4, DIST_HALF) == pytest.approx(0.5, abs=1e-15)


def test_structured_zero_blocks_are_skipped():
    assert hit_probability_structured(
        StructuredPolicy((0, 0)), POP4, DIST_HALF
    ) == 0.0
    assert item_thresholds(StructuredPolicy((1, 0, 2)), 4).tolist() == [1, 2, 2, UNCACHED]


def test_structured_matches_general_on_expanded_blocks_exactly(rng):
    # the two evaluators must agree bitwise on disjoint interval policies
    for _ in range(200):
        pop = random_popularity(rng, int(rng.integers(2, 12)))
        dist = random_coverage(rng)
        L = int(rng.integers(1, 4))
        sizes = []
        budget = pop.size
        for _ in range(L):
            m = int(rng.integers(0, budget + 1))
            sizes.append(m)
            budget -= m
        policy = StructuredPolicy(canonical_sizes(sizes))
        if not policy.blocks:
            continue
        via_blocks = hit_probability_structured(policy, pop, dist)
        twin = general_twin(policy)
        via_items = hit_probability_general(twin, pop, dist)
        assert via_blocks == via_items
        assert np.array_equal(item_thresholds(policy, pop.size), item_thresholds(twin, pop.size))


def test_hit_monotone_in_coverage_tail(rng):
    # shifting pmf mass upward raises the tail pointwise, never lowers the hit
    for _ in range(100):
        pop = random_popularity(rng, 8)
        dist = random_coverage(rng, kmax=4)
        shifted = np.concatenate(([0.0], dist.pmf))  # N' = N + 1
        better = CoverageDistribution(pmf=shifted)
        policy = GeneralPolicy(
            (frozenset({1, 2}), frozenset({3}), frozenset({2, 3, 4}))
        )
        assert hit_probability_general(policy, pop, better) >= hit_probability_general(
            policy, pop, dist
        ) - 1e-15


def _hit_of_block_list(blocks, pop, dist):
    if not blocks:
        return 0.0
    return hit_probability_general(GeneralPolicy(tuple(blocks)), pop, dist)


def test_hit_set_function_monotone_and_submodular(rng):
    # adding blocks never hurts, and marginal gains shrink as the base grows
    for _ in range(300):
        J = int(rng.integers(2, 10))
        pop = random_popularity(rng, J)
        dist = random_coverage(rng)

        def rand_block():
            size = int(rng.integers(1, J + 1))
            return frozenset(int(j) + 1 for j in rng.choice(J, size=size, replace=False))

        small = [rand_block() for _ in range(int(rng.integers(1, 3)))]
        large = small + [rand_block() for _ in range(int(rng.integers(1, 3)))]
        extra = rand_block()

        f_small = _hit_of_block_list(small, pop, dist)
        f_large = _hit_of_block_list(large, pop, dist)
        assert f_small <= f_large + 1e-12

        gain_small = _hit_of_block_list(small + [extra], pop, dist) - f_small
        gain_large = _hit_of_block_list(large + [extra], pop, dist) - f_large
        assert gain_small >= gain_large - 1e-12


def test_policy_json_round_trip():
    from geocache.policy import policy_from_json_dict

    g = GeneralPolicy((frozenset({1, 3}), frozenset({2})))
    assert policy_from_json_dict(g.to_json_dict()) == g
    s = StructuredPolicy((1, 2, 0))
    assert policy_from_json_dict(s.to_json_dict()) == s
