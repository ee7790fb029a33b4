"""Brute-force reference solvers and a reference hit evaluator; built to be
obviously correct, not fast."""

from __future__ import annotations

import math
from itertools import product

from .coverage import CoverageDistribution
from .errors import EnumerationBudgetError, ParameterError
from .policy import (
    GeneralPolicy,
    StructuredPolicy,
    hit_probability_general,
    hit_probability_structured,
)
from .popularity import PopularityDistribution
from .solvers import IndPolicy, SolverResult

ENUMERATION_BUDGET = 10**7


def reference_hit(policy, pop: PopularityDistribution, dist: CoverageDistribution) -> float:
    """P_hit of any solver's policy, computed without the evaluators the solvers use.

    Block policies: a plain loop over the blocks finds each item's smallest
    block size r_j, and P_hit = sum_j a_j Pbar(r_j). Independent caching
    uses the tail identity 1 - G(1 - b) = sum_{k>=1} Pbar(k) b (1 - b)^(k-1)
    instead of the coverage pgf G.
    """
    J = pop.size
    if isinstance(policy, IndPolicy):
        if policy.b.size != J:
            raise ParameterError("caching probabilities must cover the catalog exactly")
        term = pop.probs * policy.b  # a_j b_j (1 - b_j)^(k-1) at k = 1
        terms = []
        for k in range(1, dist.kmax + 1):
            terms.extend((dist.tail_at(k) * term).tolist())
            term = term * (1.0 - policy.b)
        return math.fsum(terms)
    if isinstance(policy, StructuredPolicy):
        blocks, start = [], 1
        for m in policy.sizes:
            blocks.append(range(start, start + m))
            start += m
    else:
        blocks = policy.blocks
    smallest = {}
    for block in blocks:
        for j in block:
            if j > J:
                raise ParameterError("policy references items beyond the catalog")
            smallest[j] = min(len(block), smallest.get(j, len(block)))
    probs = pop.probs.tolist()
    return math.fsum(probs[j - 1] * dist.tail_at(r) for j, r in smallest.items())


def _nondecreasing_size_tuples(L, J):
    """All (m_1 <= ... <= m_L), m_i >= 0, sum <= J, lexicographic order."""

    def rec(depth, lo, budget, acc):
        if depth == L:
            yield tuple(acc)
            return
        for m in range(lo, budget + 1):
            acc.append(m)
            yield from rec(depth + 1, m, budget - m, acc)
            acc.pop()

    yield from rec(0, 0, J, [])


def brute_structured(
    pop: PopularityDistribution, dist: CoverageDistribution, L: int
) -> SolverResult:
    """Exhaustive maximum over nondecreasing block-size tuples."""
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    if math.comb(J + L, L) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"C({J + L},{L}) size tuples exceed the {ENUMERATION_BUDGET} budget"
        )
    prefix = pop.prefix

    best_value = -1.0
    best_sizes = None
    for sizes in _nondecreasing_size_tuples(L, J):
        value = 0.0
        n = 0
        for m in sizes:
            if m:
                value += (prefix[n + m] - prefix[n]) * dist.tail_at(m)
                n += m
        if value > best_value:
            best_value = value
            best_sizes = sizes

    policy = StructuredPolicy(best_sizes)
    return SolverResult(
        policy=policy,
        hit_prob=hit_probability_structured(policy, pop, dist),
    )


def brute_general(
    pop: PopularityDistribution, dist: CoverageDistribution, L: int
) -> SolverResult:
    """Exhaustive maximum over all L-tuples of nonempty subsets (overlap allowed)."""
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    n_subsets = (1 << J) - 1
    if n_subsets**L > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"({n_subsets})^{L} block tuples exceed the {ENUMERATION_BUDGET} budget"
        )
    probs = pop.probs.tolist()

    masks = []
    for mask in range(1, n_subsets + 1):
        items = [j for j in range(J) if mask >> j & 1]
        masks.append((len(items), items))

    best_value = -1.0
    best_tuple = None
    for combo in product(range(n_subsets), repeat=L):
        r = [None] * J
        for idx in combo:
            card, items = masks[idx]
            for j in items:
                if r[j] is None or card < r[j]:
                    r[j] = card
        value = math.fsum(
            probs[j] * dist.tail_at(r[j]) for j in range(J) if r[j] is not None
        )
        if value > best_value:
            best_value = value
            best_tuple = combo

    blocks = tuple(
        frozenset(j + 1 for j in masks[idx][1]) for idx in best_tuple
    )
    policy = GeneralPolicy(blocks)
    return SolverResult(
        policy=policy,
        hit_prob=hit_probability_general(policy, pop, dist),
    )
