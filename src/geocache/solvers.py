"""Caching-policy constructions: DP optimum, greedy heuristics, baselines.

Solver names used throughout (and on the CLI):
  onc    -- optimal network-coding policy from the dynamic program
  ggb    -- greedy with general (possibly overlapping) blocks
  gdbnc  -- greedy with disjoint consecutive blocks
  mp     -- most-popular singletons
  ind    -- optimized independent randomized caching
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .coverage import CoverageDistribution
from .errors import ConvergenceError, ParameterError
from .policy import (
    GeneralPolicy,
    StructuredPolicy,
    canonical_sizes,
    hit_probability_general,
    hit_probability_structured,
)
from .popularity import PopularityDistribution

__all__ = [
    "SolverResult",
    "IndPolicy",
    "solve_dp",
    "greedy_general",
    "greedy_disjoint",
    "most_popular",
    "independent_caching",
    "hit_probability_ind",
    "greedy_bound_check",
    "BLOCK_SOLVERS",
]


@dataclass(frozen=True)
class SolverResult:
    policy: object
    hit_prob: float
    solver_name: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (-1e-12 <= self.hit_prob <= 1.0 + 1e-12):
            raise ParameterError(f"hit probability out of [0,1]: {self.hit_prob}")


@dataclass(frozen=True)
class IndPolicy:
    """Marginal caching probabilities of the independent randomized baseline."""

    b: np.ndarray
    multiplier: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise ParameterError("caching probabilities must form a nonempty vector")
        if np.any(b < -1e-12) or np.any(b > 1.0 + 1e-12):
            raise ParameterError("caching probabilities must lie in [0,1]")
        b = np.clip(b, 0.0, 1.0)
        b.flags.writeable = False
        object.__setattr__(self, "b", b)


def _tails_for_search(dist: CoverageDistribution, J: int) -> np.ndarray:
    """Pbar(0..J) followed by an exact-zero sentinel slot at index J+1."""
    return np.concatenate((dist.tail_array(J), [0.0]))


# ---------------------------------------------------------------------------
# Optimal policy via dynamic programming (ONC)
# ---------------------------------------------------------------------------


def solve_dp(pop: PopularityDistribution, dist: CoverageDistribution, L: int) -> SolverResult:
    """Maximize the hit probability over structured policies by backward DP.

    Stage l holding n already-cached items scores each candidate size x by
    A([n+1, n+x]) * Pbar(x) plus the best continuation; the argmax chain is
    unrolled into sizes and reported in canonical nondecreasing order
    (reordering stage optima never changes the value). O(L * J^2).
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    prefix = pop.prefix
    tails = dist.tail_array(J)

    value = np.zeros((L + 2, J + 1))
    choice = np.zeros((L + 1, J + 1), dtype=int)
    for l in range(L, 0, -1):
        for n in range(J + 1):
            gains = (prefix[n:] - prefix[n]) * tails[: J - n + 1] + value[l + 1, n:]
            x = int(np.argmax(gains))  # first max: smallest size wins ties
            value[l, n] = gains[x]
            choice[l, n] = x

    raw = []
    n = 0
    for l in range(1, L + 1):
        x = int(choice[l, n])
        raw.append(x)
        n += x

    policy = StructuredPolicy(canonical_sizes(raw))
    hit = hit_probability_structured(policy, pop, dist)
    return SolverResult(
        policy=policy,
        hit_prob=hit,
        solver_name="onc",
        diagnostics={
            "dp_value": float(value[1, 0]),
            "raw_sizes": raw,
            "stage_maximizations": L * (J + 1),
        },
    )


# ---------------------------------------------------------------------------
# Greedy with general blocks (GGB)
# ---------------------------------------------------------------------------


def _best_first_block(prefix: np.ndarray, tails: np.ndarray, J: int) -> int:
    gains = (prefix[1:] - prefix[0]) * tails[1 : J + 1]
    return int(np.argmax(gains)) + 1


def greedy_general(pop: PopularityDistribution, dist: CoverageDistribution, K: int) -> SolverResult:
    """Greedy marginal-gain policy over arbitrary content subsets.

    The first block is the best popularity prefix. Each later block adds,
    over candidate cardinalities c, the top-c items ranked by the marginal
    gain a_j * (Pbar(c) - Pbar(r_j))^+ where r_j is the smallest block
    already covering j; the best (c, set) pair wins. Ties prefer smaller
    cardinality, then the lexicographically smallest item set.
    """
    if K < 1:
        raise ParameterError(f"block count must be >= 1, got {K}")
    J = pop.size
    probs = pop.probs
    tails = _tails_for_search(dist, J)
    sentinel = J + 1  # "not cached anywhere": tail contribution exactly 0

    m1 = _best_first_block(pop.prefix, tails, J)
    blocks = [frozenset(range(1, m1 + 1))]
    r = np.full(J, sentinel, dtype=int)
    r[:m1] = m1

    item_order = np.arange(J)
    evaluations = J
    for _ in range(2, K + 1):
        covered_tail = tails[r]
        best = None  # (gain, c, top_indices)
        for c in range(1, J + 1):
            g = probs * np.maximum(tails[c] - covered_tail, 0.0)
            order = np.lexsort((item_order, -g))
            top = order[:c]
            gain = float(np.sum(g[top]))
            evaluations += 1
            if best is None or gain > best[0]:
                best = (gain, c, np.sort(top))
        _, c, top = best
        blocks.append(frozenset(int(j) + 1 for j in top))
        r[top] = np.minimum(r[top], c)

    policy = GeneralPolicy(tuple(blocks))
    hit = hit_probability_general(policy, pop, dist)
    return SolverResult(
        policy=policy,
        hit_prob=hit,
        solver_name="ggb",
        diagnostics={"candidate_evaluations": evaluations},
    )


# ---------------------------------------------------------------------------
# Greedy with disjoint consecutive blocks (GDBNC)
# ---------------------------------------------------------------------------


def greedy_disjoint(
    pop: PopularityDistribution,
    dist: CoverageDistribution,
    L: int,
    *,
    nondecreasing: bool = False,
) -> SolverResult:
    """Greedy over consecutive disjoint blocks of the popularity ranking.

    Block l >= 2 takes the size maximizing A([used+1, used+m]) * Pbar(m),
    unconstrained by default; ``nondecreasing`` instead restricts each block
    to sizes >= the previous one. The result is reported in canonical order.
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    prefix = pop.prefix
    tails = _tails_for_search(dist, J)

    m1 = _best_first_block(prefix, tails, J)
    raw = [m1]
    used = m1
    for _ in range(2, L + 1):
        lo = raw[-1] if nondecreasing else 0
        if lo > J - used:
            raw.append(0)
            continue
        best_m, best_gain = lo, (prefix[used + lo] - prefix[used]) * tails[lo]
        for m in range(lo + 1, J - used + 1):
            gain = (prefix[used + m] - prefix[used]) * tails[m]
            if gain > best_gain:
                best_m, best_gain = m, gain
        raw.append(best_m)
        used += best_m

    policy = StructuredPolicy(canonical_sizes(raw))
    hit = hit_probability_structured(policy, pop, dist)
    return SolverResult(
        policy=policy,
        hit_prob=hit,
        solver_name="gdbnc",
        diagnostics={"raw_sizes": raw, "nondecreasing": nondecreasing},
    )


# ---------------------------------------------------------------------------
# Most-popular baseline (MP)
# ---------------------------------------------------------------------------


def most_popular(pop: PopularityDistribution, dist: CoverageDistribution, L: int) -> SolverResult:
    """Cache the L most popular items, one per block, no coding."""
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    policy = StructuredPolicy((1,) * min(L, pop.size))
    hit = hit_probability_structured(policy, pop, dist)
    return SolverResult(policy=policy, hit_prob=hit, solver_name="mp", diagnostics={})


# ---------------------------------------------------------------------------
# Independent randomized caching baseline (IND)
# ---------------------------------------------------------------------------


_TABLE_CELLS = 2**14  # uniform cells of the G' table on [0, 1]
_POLISH_TOL = 1e-14  # stop polishing once every iterate moves by no more than this
_POLISH_MAX = 64  # safeguarded steps; bisection alone shrinks a cell below the tol in 33


def hit_probability_ind(
    policy: IndPolicy, pop: PopularityDistribution, dist: CoverageDistribution
) -> float:
    """P_hit of independent sampling: sum_j a_j (1 - G(1 - b_j)), G the coverage pgf."""
    if policy.b.size != pop.size:
        raise ParameterError("caching probabilities must cover the catalog exactly")
    hit_terms = pop.probs * (1.0 - npoly.polyval(1.0 - policy.b, dist.pmf))
    return math.fsum(hit_terms.tolist())


def _gprime_inverse(deriv: np.ndarray):
    """Return ``solve(t)``, the z in (0, 1) with G'(z) = t for G'(0) < t < G'(1).

    ``deriv`` holds the coefficients of the nondecreasing polynomial G'. It
    is tabulated once on a uniform grid; each solve inverts the table with
    ``np.interp`` and polishes with Newton steps, evaluating G' and G'' as
    one power-matrix product. Every iterate stays inside the bracket the
    table cell gives (tightened by the sign of each residual); a step with
    G'' <= 0 or one leaving the bracket bisects it instead.
    """
    grid = np.linspace(0.0, 1.0, _TABLE_CELLS + 1)
    table = npoly.polyval(grid, deriv)
    deriv2 = deriv[1:] * np.arange(1, deriv.size)

    def solve(t: np.ndarray) -> np.ndarray:
        cell = np.searchsorted(table, t)  # table[cell - 1] < t <= table[cell]
        lo, hi = grid[cell - 1], grid[cell]
        z = np.clip(np.interp(t, table, grid), lo, hi)
        powers = np.empty((t.size, deriv.size))
        powers[:, 0] = 1.0
        for _ in range(_POLISH_MAX):
            powers[:, 1:] = z[:, None]
            np.cumprod(powers, axis=1, out=powers)
            resid = powers @ deriv - t
            slope = powers[:, :-1] @ deriv2
            lo = np.where(resid < 0.0, z, lo)
            hi = np.where(resid > 0.0, z, hi)
            newton = z - resid / np.where(slope > 0.0, slope, np.inf)
            inside = (slope > 0.0) & (newton >= lo) & (newton <= hi)
            step = np.where(inside, newton, 0.5 * (lo + hi)) - z
            z = z + step
            if np.max(np.abs(step)) <= _POLISH_TOL:
                break
        return z

    return solve


def _marginals(mu: float, probs: np.ndarray, gp0: float, gp1: float, solve) -> np.ndarray:
    """b(mu) from the KKT conditions: b_j = 1 where mu/a_j <= G'(0), 0 where
    mu/a_j >= G'(1), else 1 - z with G'(z) = mu/a_j found by ``solve``."""
    t = np.where(probs > 0.0, mu / np.where(probs > 0.0, probs, 1.0), np.inf)
    b = np.zeros(probs.size)
    b[t <= gp0] = 1.0
    mid = (t > gp0) & (t < gp1)
    if np.any(mid):
        b[mid] = 1.0 - solve(t[mid])
    return b


def independent_caching(
    pop: PopularityDistribution, dist: CoverageDistribution, L: int
) -> SolverResult:
    """Optimize marginal caching probabilities b for independent sampling.

    Each station draws its cache contents independently with marginals b,
    so item j is hit with probability 1 - G(1-b_j) where G is the pgf of
    the coverage number. The concave program max sum_j a_j (1 - G(1-b_j))
    s.t. sum b_j <= L, 0 <= b_j <= 1 is solved by an outer bisection on the
    dual multiplier mu, stopped once |sum(b) - L| < 1e-9. For each mu the
    KKT condition a_j G'(1-b_j) = mu is solved for all interior items at
    once by a tabulated inverse of G' with safeguarded Newton polish.

    Returns a ``SolverResult`` holding an ``IndPolicy``; its diagnostics
    give the number of mu steps and the final |sum(b) - L|. Raises
    ``ConvergenceError`` if the bisection stalls short of the budget.
    """
    if L < 1:
        raise ParameterError(f"block count must be >= 1, got {L}")
    J = pop.size
    probs = pop.probs
    deriv = dist.pmf[1:] * np.arange(1, dist.pmf.size)

    def result(b, mu, iterations=0):
        policy = IndPolicy(b=b, multiplier=mu)
        return SolverResult(
            policy=policy,
            hit_prob=hit_probability_ind(policy, pop, dist),
            solver_name="ind",
            diagnostics={
                "mu_iterations": iterations,
                "budget_gap": abs(float(policy.b.sum()) - L),
            },
        )

    if L >= J:
        return result(np.ones(J), 0.0)

    gp0 = float(npoly.polyval(0.0, deriv)) if deriv.size else 0.0
    gp1 = float(npoly.polyval(1.0, deriv)) if deriv.size else 0.0

    b = np.zeros(J)
    b[:L] = 1.0
    if gp1 == 0.0:
        # never covered: hit probability is 0 for every feasible b
        return result(b, 0.0)
    if not np.any(dist.pmf[2:] > 0.0):
        # single-coverage regime: G' is constant, the program is a box LP
        return result(b, float(probs[L - 1]) * gp1)

    solve = _gprime_inverse(deriv)
    b = _marginals(0.0, probs, gp0, gp1, solve)
    total = float(b.sum())
    if total <= L + 1e-12:
        return result(b, 0.0)

    lo, hi = 0.0, float(probs[0]) * gp1
    best = (abs(total - L), b, 0.0)
    for iterations in range(1, 201):
        mu = 0.5 * (lo + hi)
        b = _marginals(mu, probs, gp0, gp1, solve)
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
    gap, b, mu = best
    if gap >= 1e-8:
        raise ConvergenceError(
            f"dual bisection stalled with |sum(b) - L| = {gap:.3e} after {iterations} steps"
        )
    return result(b, mu, iterations)


# ---------------------------------------------------------------------------
# Greedy suboptimality bound report
# ---------------------------------------------------------------------------


def greedy_bound_check(
    pop: PopularityDistribution, dist: CoverageDistribution, L: int, K: int
) -> dict:
    """Check the (1 - e^(-L/K)) guarantee of the general-blocks greedy.

    The greedy run with K >= L blocks must reach at least (1 - e^(-L/K))
    times the optimal L-block hit probability (the DP optimum over
    structured policies equals the general optimum).
    """
    if not (K >= L >= 1):
        raise ParameterError(f"need K >= L >= 1, got L={L}, K={K}")
    greedy = greedy_general(pop, dist, K)
    optimal = solve_dp(pop, dist, L)
    factor = 1.0 - math.exp(-L / K)
    bound = factor * optimal.hit_prob
    return {
        "L": L,
        "K": K,
        "greedy_hit": greedy.hit_prob,
        "optimal_hit": optimal.hit_prob,
        "factor": factor,
        "bound": bound,
        "satisfied": bool(greedy.hit_prob >= bound - 1e-12),
        "slack": greedy.hit_prob - bound,
    }


BLOCK_SOLVERS = {
    "onc": solve_dp,
    "ggb": greedy_general,
    "gdbnc": greedy_disjoint,
    "mp": most_popular,
}
