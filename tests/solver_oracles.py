"""Oracles for the solvers: exhaustive searches and earlier loop forms.

``brute_structured`` and ``brute_general`` search every nondecreasing
block-size tuple and every tuple of item subsets, so they give the true
optimum of small instances, the value ``onc`` must reach. A search that
would enumerate more than ``ENUMERATION_BUDGET`` candidates raises
``EnumerationBudgetError`` instead of running.

The loop forms return what their library counterparts must return to the
bit: the per-size search that one score matrix replaced, over every state
0..J where the library searches only the states its blocks can reach; the
greedy that sorted all J gains once per candidate size; and the bisection
on the multiplier that solved every step in full, whose multiplier and mu
steps ``ind`` must reach to the bit.
"""

import math
from itertools import product

import numpy as np
from numpy.polynomial import polynomial as npoly

from geocache import (
    CoverageDistribution,
    GeneralPolicy,
    GeocacheError,
    IndPolicy,
    ParameterError,
    PopularityDistribution,
    SolverResult,
    StructuredPolicy,
    hit_probability_general,
    hit_probability_ind,
    hit_probability_structured,
)
from geocache.policy import canonical_sizes

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(GeocacheError, RuntimeError):
    """A brute-force search would exceed its hard enumeration budget."""


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


def best_sizes(prefix, tail, after, top):
    """One stage of ``solvers._best_sizes``, one pass over the states per size."""
    best = after.copy()
    size = np.zeros(after.size, dtype=int)
    for x in range(1, top + 1):
        gains = (prefix[x:] - prefix[:-x]) * tail[x] + after[x:]
        better = gains > best[:-x]
        size[:-x][better] = x
        best[:-x][better] = gains[better]
    return size, best


def stage_sizes(prefix, tail, top, stages):
    """``solvers._best_sizes`` as one ``best_sizes`` pass per stage."""
    choice = np.zeros((stages, prefix.size), dtype=int)
    value = np.zeros(prefix.size)
    for l in reversed(range(stages)):
        choice[l], value = best_sizes(prefix, tail, value, top)
    return choice, value[0]


def solve_dp(pop, dist, L):
    """``solvers.solve_dp`` on the per-size search over every state 0..J.

    Its ``stage_maximizations`` is the count the library must report: the
    states L blocks of at most max(1, min(J, kmax)) items reach, per stage.
    """
    J = pop.size
    top = min(J, dist.kmax)
    choice, value = stage_sizes(pop.prefix, dist.tail, top, L)
    raw, n = [], 0
    for row in choice:
        raw.append(int(row[n]))
        n += raw[-1]
    policy = StructuredPolicy(canonical_sizes(raw))
    return SolverResult(
        policy=policy,
        hit_prob=hit_probability_structured(policy, pop, dist),
        diagnostics={
            "dp_value": float(value),
            "raw_sizes": raw,
            "stage_maximizations": L * (min(J, L * max(1, top)) + 1),
        },
    )


def greedy_disjoint(pop, dist, L):
    """``solvers.greedy_disjoint`` on the per-size search over every state 0..J."""
    size = stage_sizes(pop.prefix, dist.tail, min(pop.size, dist.kmax), 1)[0][0]
    raw = [max(1, int(size[0]))]
    for _ in range(2, L + 1):
        raw.append(int(size[sum(raw)]))
    policy = StructuredPolicy(canonical_sizes(raw))
    return SolverResult(
        policy=policy,
        hit_prob=hit_probability_structured(policy, pop, dist),
        diagnostics={"raw_sizes": raw},
    )


def greedy_general(pop, dist, K):
    """``solvers.greedy_general`` with one stable sort of the gains per size."""
    J = pop.size
    probs = pop.probs
    tails = dist.tail
    sizes = range(1, max(1, min(J, dist.kmax)) + 1)

    m1 = max(1, int(best_sizes(pop.prefix, tails, np.zeros(J + 1), min(J, dist.kmax))[0][0]))
    blocks = [frozenset(range(1, m1 + 1))]
    r = np.full(J, dist.kmax + 1, dtype=int)
    r[:m1] = m1

    evaluations = len(sizes)
    for _ in range(2, K + 1):
        covered_tail = tails[r]
        best = None
        for c in sizes:
            g = probs * np.maximum(tails[c] - covered_tail, 0.0)
            order = np.argsort(-g, kind="stable")
            top = order[:c]
            gain = float(np.sum(g[top]))
            evaluations += 1
            if best is None or gain > best[0]:
                best = (gain, c, np.sort(top))
        _, c, top = best
        blocks.append(frozenset(int(j) + 1 for j in top))
        r[top] = np.minimum(r[top], c)

    policy = GeneralPolicy(tuple(blocks))
    return SolverResult(
        policy=policy,
        hit_prob=hit_probability_general(policy, pop, dist),
        diagnostics={"candidate_evaluations": evaluations},
    )


def _marginals(mu, probs, gp0, gp1, deriv, z_right):
    """b(mu) by Newton steps from ``z_right`` until every step is at most 1e-14,
    and whether the loop stopped at its 64-step cap instead."""
    t = np.where(probs > 0.0, mu / np.where(probs > 0.0, probs, 1.0), np.inf)
    b = np.zeros(probs.size)
    b[t <= gp0] = 1.0
    mid = (t > gp0) & (t < gp1)
    capped = False
    if np.any(mid):
        t = t[mid]
        z = z_right[mid]
        deriv2 = deriv[1:] * np.arange(1, deriv.size)
        powers = np.empty((t.size, deriv.size))
        powers[:, 0] = 1.0
        for _ in range(64):
            powers[:, 1:] = z[:, None]
            np.cumprod(powers, axis=1, out=powers)
            resid = powers @ deriv - t
            slope = powers[:, :-1] @ deriv2
            step = np.divide(resid, slope, out=np.zeros(t.size), where=slope > 0.0)
            z = z - step
            if np.max(np.abs(step)) <= 1e-14:
                break
        else:
            capped = True
        b[mid] = 1.0 - z
    return b, capped


def independent_caching(pop, dist, L):
    """``solvers.independent_caching`` solving every bisection step in full.

    Also returns the number of ``_marginals`` solves it made. Its diagnostics
    add ``capped``: whether a solve behind the returned b stopped at the
    Newton cap, where b depends on the solve's start.
    """
    J = pop.size
    probs = pop.probs
    deriv = dist.pmf[1:] * np.arange(1, dist.pmf.size)
    solves = 0

    def result(b, mu, iterations=0, capped=False):
        policy = IndPolicy(b=b, multiplier=mu)
        return SolverResult(
            policy=policy,
            hit_prob=hit_probability_ind(policy, pop, dist),
            diagnostics={
                "mu_iterations": iterations,
                "budget_gap": abs(float(policy.b.sum()) - L),
                "capped": capped,
            },
        ), solves

    if L >= J:
        return result(np.ones(J), 0.0)
    gp0 = float(npoly.polyval(0.0, deriv)) if deriv.size else 0.0
    gp1 = float(npoly.polyval(1.0, deriv)) if deriv.size else 0.0
    b = np.zeros(J)
    b[:L] = 1.0
    if gp1 == 0.0:
        return result(b, 0.0)
    b_lo, capped_lo = _marginals(0.0, probs, gp0, gp1, deriv, np.ones(J))
    solves += 1
    if float(b_lo.sum()) <= L + 1e-12:
        return result(b_lo, 0.0, capped=capped_lo)
    lo, hi = 0.0, float(probs[0]) * gp1
    b_hi, capped_hi = np.zeros(J), False
    iterations = 0
    while lo < (mu := 0.5 * (lo + hi)) < hi:
        iterations += 1
        b, capped = _marginals(mu, probs, gp0, gp1, deriv, 1.0 - b_hi)
        solves += 1
        total = float(b.sum())
        if abs(total - L) < 1e-9:
            return result(b, mu, iterations, capped)
        if total > L:
            lo, b_lo, capped_lo = mu, b, capped
        else:
            hi, b_hi, capped_hi = mu, b, capped
    theta = (L - b_hi.sum()) / (b_lo.sum() - b_hi.sum())
    return result(b_hi + theta * (b_lo - b_hi), hi, iterations, capped_lo or capped_hi)


def assert_same_result(result, oracle):
    """Equal policies, hex-equal hits and equal diagnostics.

    For ``ind``: the multiplier's bits and the mu steps are the plain
    bisection's, and the hit and every b_j agree to 1e-14, the spread that
    the start of a Newton solve leaves. Where the oracle's own solve stopped
    at its cap, b depends on the start by far more, and is checked only
    through the hit and the budget.
    """
    policy, expected = result.policy, oracle.policy
    if isinstance(expected, IndPolicy):
        assert policy.multiplier.hex() == expected.multiplier.hex()
        assert result.diagnostics["mu_iterations"] == oracle.diagnostics["mu_iterations"]
        assert abs(result.hit_prob - oracle.hit_prob) <= 1e-14
        if oracle.diagnostics["capped"]:
            assert result.diagnostics["budget_gap"] < 1e-9
        else:
            np.testing.assert_allclose(policy.b, expected.b, rtol=0.0, atol=1e-14)
        return
    assert policy.to_json_dict() == expected.to_json_dict()
    assert result.hit_prob.hex() == oracle.hit_prob.hex()
    assert result.diagnostics == oracle.diagnostics
